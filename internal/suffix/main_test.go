package suffix

import (
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m, "suffix", startPools, closePools) }

func startPools() { testPool, fuzzPool = core.NewPool(4), core.NewPool(2) }

func closePools() {
	testPool.Close()
	fuzzPool.Close()
}
