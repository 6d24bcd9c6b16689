package transport

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when goroutines running transport code
// outlive its tests: a server's accept loop, every connection's read,
// serve and coalescing-writer loops, and every connection's handler
// workers must end when their server or connection is closed.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stacks := lingeringGoroutines(2 * time.Second); stacks != "" {
			fmt.Fprintf(os.Stderr, "goroutines in internal/transport outlived the tests:\n\n%s\n", stacks)
			code = 1
		}
	}
	os.Exit(code)
}

// lingeringGoroutines waits up to limit for every goroutine but the caller
// whose stack passes through this package to exit, and returns the stacks
// of those that did not.
func lingeringGoroutines(limit time.Duration) string {
	deadline := time.Now().Add(limit)
	for {
		buf := make([]byte, 1<<20)
		all := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
		var left []string
		for _, g := range all[1:] { // all[0] is this goroutine
			if strings.Contains(g, "repro/internal/transport.") {
				left = append(left, g)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return strings.Join(left, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
