package report

import (
	"fmt"
	"io"
	"path"

	"repro/internal/lint"
)

// LifetimesReport renders the arena-lifetime certification summary
// (rpbreport -what lifetimes): per-package, how every arena checkout's
// lifetime was discharged — released-in-scope (a matching Release
// proves the Rust-style scoped borrow), region-confined (the slice
// never leaves the parallel region body), worker-confined (it stays
// with one worker for the worker's lifetime) — and which checkouts the
// analysis refused, split into audited (//lint:scared) and
// unexplained. This is the borrow-checker leg of the lint suite: the
// other passes prove writes are exclusive; this one proves the memory
// they target is still owned when it is touched.
func LifetimesReport(w io.Writer) error {
	rep, err := lintModule(lint.Lifetimes)
	if err != nil {
		return err
	}

	t := siteTally{
		proved: []string{lint.LifeReleased, lint.LifeRegionConfined, lint.LifeWorkerConfined},
		heads:  []string{"released", "region", "worker", "audited", "refused"},
		widths: []int{9, 7, 7, 8, 8},
	}
	for _, s := range rep.Sites {
		t.add(path.Dir(s.File), s.Class, s.Marker,
			fmt.Sprintf("%s:%d %s %s in %s: %s", s.File, s.Line, s.Origin, s.Expr, s.Func, s.Reason))
	}

	fmt.Fprintf(w, "Arena-lifetime certification: every checkout's ownership proof\n")
	fmt.Fprintf(w, "(%d regions, %d marks; released = scoped LIFO borrow, region/worker = confinement proof)\n",
		rep.Regions, rep.Marks)
	t.print(w, "package", 28, true)
	if rep.Checkouts > 0 {
		proved := rep.Released + rep.RegionConfined + rep.WorkerConfined
		fmt.Fprintf(w, "\n%d/%d checkouts proved confined, %d refused (%d unexplained in enforced packages)\n",
			proved, rep.Checkouts, rep.Refused, rep.Unexplained)
	}
	t.printRefusals(w, "checkouts")
	return nil
}
