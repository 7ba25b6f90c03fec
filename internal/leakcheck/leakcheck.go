// Package leakcheck fails a test binary that ends with more goroutines
// than it started with: a test that starts a pool and never closes it
// leaks the pool's workers.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main is a package's TestMain: it counts the goroutines, calls start
// (the package's shared pools), runs the tests, calls stop, and exits
// with the tests' code, or with 1 when they passed but goroutines
// outlive them. Close returns only after a pool's workers have exited,
// but the testing package's own runner goroutines can still be exiting
// when m.Run returns, so they get until a deadline to go. start and
// stop may be nil.
func Main(m *testing.M, pkg string, start, stop func()) {
	before := runtime.NumGoroutine()
	if start != nil {
		start()
	}
	code := m.Run()
	if stop != nil {
		stop()
	}
	if fz := flag.Lookup("test.fuzz"); fz != nil && fz.Value.String() != "" {
		// Fuzzing starts the testing package's own signal handler,
		// which outlives m.Run: the check covers plain test runs.
		os.Exit(code)
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before && code == 0 {
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "%s tests leaked %d goroutines:\n%s\n", pkg, after-before, buf[:runtime.Stack(buf, true)])
		code = 1
	}
	os.Exit(code)
}
