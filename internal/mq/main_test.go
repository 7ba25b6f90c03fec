package mq

import (
	"testing"

	"repro/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m, "mq", nil, nil) }
