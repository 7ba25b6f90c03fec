package graph

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// The pools the package's tests share; TestMain starts and closes them.
var (
	testPool *core.Pool
	symPools []struct {
		name string
		pool *core.Pool
	}
)

func on(f func(w *core.Worker)) { testPool.Do(f) }

// TestMain starts the shared pools, and fails the test binary when it
// ends with more goroutines than it started with once they are closed:
// a test that starts a pool and never closes it leaks the pool's
// workers. Close does not wait for the workers to exit, so they get
// until a deadline to go.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	testPool = core.NewPool(4)
	for _, workers := range []int{1, 2, 8} {
		name := fmt.Sprintf("%d workers", workers)
		if workers == 1 {
			name = "1 worker"
		}
		symPools = append(symPools, struct {
			name string
			pool *core.Pool
		}{name, core.NewPool(workers)})
	}
	code := m.Run()
	testPool.Close()
	for _, p := range symPools {
		p.pool.Close()
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
		fmt.Fprintf(os.Stderr, "graph tests leaked %d goroutines:\n%s\n", after-before, buf[:runtime.Stack(buf, true)])
		code = 1
	}
	os.Exit(code)
}
