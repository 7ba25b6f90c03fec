package report

import (
	"fmt"
	"io"
	"path"

	"repro/internal/lint"
)

// RacesReport renders the parallel-write certification summary
// (rpbreport -what races): per-package, how every shared write inside
// a parallel region was discharged — worker-local, atomic,
// lock-guarded, or index-disjoint — and which writes the analysis
// refused to certify, split into audited (//lint:scared) and
// unexplained. The classes map onto the paper's fear spectrum:
// worker-local and index-disjoint writes are Fearless (exclusive
// access proved), atomic and lock-guarded writes are Scared-but-safe
// (synchronization pays for aliasing), and refusals are where a Rust
// port would need unsafe or a redesign.
func RacesReport(w io.Writer) error {
	rep, err := lintModule(lint.Races)
	if err != nil {
		return err
	}

	t := siteTally{
		proved: []string{lint.RaceWorkerLocal, lint.RaceAtomic, lint.RaceLockGuarded, lint.RaceIndexDisjoint},
		heads:  []string{"local", "atomic", "locked", "index", "audited", "refused"},
		widths: []int{7, 7, 7, 7, 8, 8},
	}
	for _, s := range rep.Sites {
		t.add(path.Dir(s.File), s.Class, s.Marker, fmt.Sprintf("%s:%d %s in %s", s.File, s.Line, s.Target, s.Region))
	}

	fmt.Fprintf(w, "Parallel-write certification: every shared write in a parallel region\n")
	fmt.Fprintf(w, "(%d regions; fearless = worker-local + index-disjoint, synchronized = atomic + lock-guarded)\n",
		rep.Regions)
	t.print(w, "package", 28, true)
	fearless := rep.WorkerLocal + rep.IndexDisjoint
	synced := rep.Atomic + rep.LockGuarded
	if total := fearless + synced + rep.Refused; total > 0 {
		fmt.Fprintf(w, "\n%d/%d writes proved exclusive (fearless), %d synchronized, %d refused (%d unexplained in enforced packages)\n",
			fearless, total, synced, rep.Refused, rep.Unexplained)
	}
	t.printRefusals(w, "writes")
	return nil
}
