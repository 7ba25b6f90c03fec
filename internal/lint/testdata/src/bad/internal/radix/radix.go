// Package radix stubs the radix entry the certifier models as
// permutation-preserving: SortPairsAt permutes its vals argument among
// the positions at lists.
package radix

import "fixture/internal/core"

func SortPairsAt(w *core.Worker, keys []uint64, vals, at []int32, bits int) {}
