package specfor

import (
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
)

func TestMain(m *testing.M) {
	leakcheck.Main(m, "specfor", func() { testPool = core.NewPool(4) }, func() { testPool.Close() })
}
