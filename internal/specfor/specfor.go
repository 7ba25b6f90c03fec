// Package specfor implements PBBS's speculative_for: deterministic
// parallel execution of a prioritized loop over items with dynamically
// discovered conflicts. Items reserve the shared state they would
// touch with priority writes, winners commit, losers retry in a later
// round — the reserve-and-commit idiom behind the paper's mm, msf and
// dr benchmarks (Sec 5.2), packaged once instead of hand-rolled per
// benchmark.
//
// The whole construct is an arbitrary-read-write (AW) pattern: the
// library can schedule it deterministically but cannot make it
// Fearless — exactly the paper's Observation 5.
package specfor

import (
	"sync/atomic"

	"repro/internal/core"
)

// Loop defines one speculative loop. Item indices double as priorities
// (lower commits first under contention); callers wanting random order
// permute their item array up front, as PBBS does.
type Loop struct {
	// Reserve inspects item i and stakes its claims (typically WriteMin
	// with priority i on shared reservation slots). Returning false
	// drops the item: it needs no commit (e.g. its work became moot).
	Reserve func(i int) bool
	// Commit attempts to apply item i, returning true when the item is
	// finished and false when it lost a reservation race and must retry.
	Commit func(i int) bool
	// PostRound, if non-nil, runs after each round with the items that
	// will retry — the hook for resetting reservation slots so stale
	// priorities from dropped items cannot starve later ones.
	PostRound func(retry []int32)
}

// Stats summarizes a run.
type Stats struct {
	Rounds    int
	Committed int
	Dropped   int
	Conflicts int // commit attempts that had to retry
}

// Run executes the loop over items [0, n), processing roughly
// granularity fresh items per round plus all retries. granularity <= 0
// chooses a default. It returns when every item has committed or
// dropped.
func Run(w *core.Worker, n, granularity int, loop Loop) Stats {
	if granularity <= 0 {
		granularity = 1024
		if n/50 > granularity {
			granularity = n / 50
		}
	}
	var stats Stats
	var retry []int32
	cursor := 0
	status := make([]int8, 0, granularity*2) // per-round item status
	const (
		stDropped  = int8(0)
		stReserved = int8(1)
		stDone     = int8(2)
	)
	round := make([]int32, 0, granularity*2)
	// The phase bodies and tallies are built once per run; the bodies
	// read round and status, which only move between rounds.
	reserve := func(lo, hi int) {
		for k := lo; k < hi; k++ {
			if loop.Reserve(int(round[k])) {
				status[k] = stReserved
			}
		}
	}
	// Each subrange tallies locally and folds into the shared counters
	// once.
	var committed, conflicted, dropped atomic.Int64
	commit := func(lo, hi int) {
		var nc, nx, nd int64
		for k := lo; k < hi; k++ {
			switch status[k] {
			case stReserved:
				if loop.Commit(int(round[k])) {
					status[k] = stDone
					nc++
				} else {
					nx++
				}
			case stDropped:
				nd++
			}
		}
		committed.Add(nc)
		conflicted.Add(nx)
		dropped.Add(nd)
	}
	for cursor < n || len(retry) > 0 {
		stats.Rounds++
		round = round[:0]
		round = append(round, retry...)
		fresh := granularity
		if cursor+fresh > n {
			fresh = n - cursor
		}
		for k := 0; k < fresh; k++ {
			round = append(round, int32(cursor+k))
		}
		cursor += fresh
		status = status[:0]
		for range round {
			status = append(status, stDropped)
		}
		// Phase 1: reserve (AW priority writes inside loop.Reserve).
		core.ForBlocks(w, 0, len(round), 0, reserve)
		// Phase 2: commit winners.
		committed.Store(0)
		conflicted.Store(0)
		dropped.Store(0)
		core.ForBlocks(w, 0, len(round), 0, commit)
		stats.Committed += int(committed.Load())
		stats.Conflicts += int(conflicted.Load())
		stats.Dropped += int(dropped.Load())
		// Collect retries (reserved but not committed), keeping priority
		// order.
		next := retry[:0]
		for k, it := range round {
			if status[k] == stReserved {
				next = append(next, it)
			}
		}
		retry = next
		if loop.PostRound != nil {
			loop.PostRound(retry)
		}
	}
	return stats
}
