package report

import (
	"fmt"
	"io"

	"repro/internal/bench"
)

// GraphReport runs sssp live in both queue disciplines and prints the
// MultiQueue operation counters (docs/GRAPH.md): lock acquisitions per
// processed vertex must drop by about the batch size when the batched
// driver replaces item-at-a-time pops.
func GraphReport(w io.Writer, scale bench.Scale, threads int) error {
	single, batched, err := bench.GraphQueueTelemetry(scale, threads)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "MultiQueue discipline, sssp-rmat live at threads=%d:\n", threads)
	fmt.Fprintf(w, "%-22s %14s %14s\n", "", "single-item", "batched")
	row := func(label string, a, b uint64) {
		fmt.Fprintf(w, "%-22s %14d %14d\n", label, a, b)
	}
	row("lock acquisitions", single.LockAcquires, batched.LockAcquires)
	row("push operations", single.PushOps, batched.PushOps)
	row("pop operations", single.PopOps, batched.PopOps)
	row("empty pops", single.EmptyPops, batched.EmptyPops)
	row("pushed items", single.PushedItems, batched.PushedItems)
	row("popped items", single.PoppedItems, batched.PoppedItems)
	fmt.Fprintf(w, "%-22s %14.3f %14.3f\n", "locks per item", single.LocksPerItem(), batched.LocksPerItem())
	if b := batched.LocksPerItem(); b > 0 {
		fmt.Fprintf(w, "lock-traffic reduction: %.0fx fewer acquisitions per processed vertex\n",
			single.LocksPerItem()/b)
	}
	wasted := "-"
	if single.PushedItems > 0 {
		wasted = fmt.Sprintf("%+.1f%%", 100*(float64(batched.PushedItems)/float64(single.PushedItems)-1))
	}
	fmt.Fprintf(w, "queue traffic vs single-item discipline: %s pushed items %s\n",
		wasted, "(relaxation waste the batching trades for lock amortization)")
	return nil
}
