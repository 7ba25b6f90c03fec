package radix

import (
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
)

func TestMain(m *testing.M) {
	leakcheck.Main(m, "radix", func() { testPool = core.NewPool(4) }, func() { testPool.Close() })
}
