package chaos

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when goroutines running this repository's
// code outlive its tests: every run starts a mesh of sites — servers,
// connections, probe loops, clients and agents — and must close all of
// it, whichever package the goroutine is parked in.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stacks := lingeringGoroutines(2 * time.Second); stacks != "" {
			fmt.Fprintf(os.Stderr, "goroutines started by internal/chaos outlived the tests:\n\n%s\n", stacks)
			code = 1
		}
	}
	os.Exit(code)
}

// lingeringGoroutines waits up to limit for every goroutine but the caller
// whose stack passes through this repository's packages to exit, and
// returns the stacks of those that did not.
func lingeringGoroutines(limit time.Duration) string {
	deadline := time.Now().Add(limit)
	for {
		buf := make([]byte, 1<<20)
		all := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
		var left []string
		for _, g := range all[1:] { // all[0] is this goroutine
			if strings.Contains(g, "repro/internal/") {
				left = append(left, g)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return strings.Join(left, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
