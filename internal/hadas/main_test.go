package hadas

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when goroutines running hadas code outlive
// its tests: a site's probe loop must end when the site is closed, and a
// fan-out's per-peer calls when the fan-out returns.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stacks := lingeringGoroutines(2 * time.Second); stacks != "" {
			fmt.Fprintf(os.Stderr, "goroutines in internal/hadas outlived the tests:\n\n%s\n", stacks)
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
			if strings.Contains(g, "repro/internal/hadas.") {
				left = append(left, g)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return strings.Join(left, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
