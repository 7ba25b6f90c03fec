package geom

import (
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
)

func TestMain(m *testing.M) {
	leakcheck.Main(m, "geom", func() { testPool = core.NewPool(4) }, func() { testPool.Close() })
}
