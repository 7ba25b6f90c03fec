package core

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the test binary when it ends with more goroutines than
// it started with: a test that starts a pool and never closes it leaks
// the pool's workers. Close does not wait for the workers to exit, so
// they get until a deadline to go.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
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
		fmt.Fprintf(os.Stderr, "core tests leaked %d goroutines:\n%s\n", after-before, buf[:runtime.Stack(buf, true)])
		code = 1
	}
	os.Exit(code)
}
