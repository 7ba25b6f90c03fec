package hashtable

import (
	"testing"

	"repro/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m, "hashtable", nil, nil) }
