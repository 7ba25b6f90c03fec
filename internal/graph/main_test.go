package graph

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
)

// The pools the package's tests share; TestMain starts and closes them.
var (
	testPool *core.Pool
	symPools []struct {
		name string
		pool *core.Pool
	}
)

// csrBlockMin is the fewest edges one block of the CSR counting sort
// covers (core.CountSort's block rule, max(1<<14, 4n) edges), the unit
// the Build tests size their edge lists in. It copies core's unexported
// countSortBlockMin; core's TestCountSortBlockRule pins that value.
const csrBlockMin = 1 << 14

func on(f func(w *core.Worker)) { testPool.Do(f) }

func TestMain(m *testing.M) { leakcheck.Main(m, "graph", startPools, closePools) }

func startPools() {
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
}

func closePools() {
	testPool.Close()
	for _, p := range symPools {
		p.pool.Close()
	}
}
