package report

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/seqgen"
)

// Fig6 reproduces the appendix microbenchmark (paper Listings 10-15,
// Fig 6): replace every element of a vector with the hash of its value,
// expressed five ways. The lines-of-code column counts the body of each
// Go implementation below, mirroring the paper's right axis.
//
// The goroutine-per-task variant is the analog of Listing 13's
// thread-per-task, which the paper reports as panicking at scale; Go
// goroutines are cheaper than OS threads, so instead of crashing it is
// merely catastrophically slow and memory-hungry — it therefore runs on
// a capped element count and reports the cap.
const (
	fig6N       = 1 << 21 // vector length
	fig6TaskCap = 1 << 16 // max elements for goroutine-per-task
)

type fig6Row struct {
	name    string
	loc     int
	seconds float64
	note    string
}

func fig6Vector(n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(i)
	}
	return v
}

// serialHash is Listing 11: the sequential loop. (LoC: 3)
func serialHash(v []uint64) {
	for i := range v {
		seqgen.HashTask(&v[i])
	}
}

// perTaskHash is Listing 13: one goroutine per element. (LoC: 8)
func perTaskHash(v []uint64) {
	var wg sync.WaitGroup
	wg.Add(len(v))
	for i := range v {
		go func(e *uint64) {
			defer wg.Done()
			seqgen.HashTask(e) //lint:scared paper Listing 13: goroutine i is handed &v[i] alone, and wg.Wait joins them all
		}(&v[i])
	}
	wg.Wait()
}

// perCoreHash is Listing 14: one goroutine per core, even split. (LoC: 15)
func perCoreHash(v []uint64, nThreads int) {
	chunk := (len(v) + nThreads - 1) / nThreads
	var wg sync.WaitGroup
	for t := 0; t < nThreads; t++ {
		lo := t * chunk
		hi := lo + chunk
		if hi > len(v) {
			hi = len(v)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(part []uint64) {
			defer wg.Done()
			for i := range part {
				seqgen.HashTask(&part[i]) //lint:scared paper Listing 14: part is v[lo:hi] of thread t's static chunk, disjoint from every other thread's
			}
		}(v[lo:hi])
	}
	wg.Wait()
}

// jobQueueHash is Listing 15: a mutex-guarded queue of slices drained
// by worker goroutines. (LoC: 24)
func jobQueueHash(v []uint64, nThreads int) {
	const jobSize = 10000
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for t := 0; t < nThreads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				lo := next
				next += jobSize
				mu.Unlock()
				if lo >= len(v) {
					return
				}
				hi := lo + jobSize
				if hi > len(v) {
					hi = len(v)
				}
				for i := lo; i < hi; i++ {
					seqgen.HashTask(&v[i]) //lint:scared paper Listing 15: [lo, hi) was claimed under mu by advancing next, so each job range has one owner
				}
			}
		}()
	}
	wg.Wait()
}

// workStealHash is Listing 12's Rayon one-liner: the library's parallel
// iterator on the work-stealing pool. (LoC: 3)
func workStealHash(w *core.Worker, v []uint64) {
	core.ForEachIdx(w, v, 0, func(_ int, e *uint64) { seqgen.HashTask(e) })
}

func timeIt(reps int, f func()) float64 {
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		f()
		s := time.Since(start).Seconds()
		if r == 0 || s < best {
			best = s
		}
	}
	return best
}

// Fig6 runs the five variants and renders run times plus LoC; it
// ignores cfg.Scale.
func Fig6(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	pool := core.NewPool(cfg.Threads)
	defer pool.Close()

	var rows []fig6Row
	v := fig6Vector(fig6N)
	rows = append(rows, fig6Row{"serial (Listing 11)", 3,
		timeIt(cfg.Reps, func() { serialHash(v) }), ""})

	// Time the capped vector, then extrapolate the per-element cost.
	vt := fig6Vector(fig6TaskCap)
	perTask := timeIt(cfg.Reps, func() { perTaskHash(vt) }) * fig6N / fig6TaskCap
	note := fmt.Sprintf("capped at n=%d: goroutine-per-task explodes at scale (paper: panic)", fig6TaskCap)
	rows = append(rows, fig6Row{"goroutine per task (Listing 13)", 8, perTask, note})

	rows = append(rows, fig6Row{"goroutine per core (Listing 14)", 15,
		timeIt(cfg.Reps, func() { perCoreHash(v, cfg.Threads) }), ""})
	rows = append(rows, fig6Row{"mutex job queue (Listing 15)", 24,
		timeIt(cfg.Reps, func() { jobQueueHash(v, cfg.Threads) }), ""})
	rows = append(rows, fig6Row{"work stealing / core (Listing 12)", 3,
		timeIt(cfg.Reps, func() {
			pool.Do(func(wk *core.Worker) { workStealHash(wk, v) })
		}), ""})

	fmt.Fprintf(w, "Fig 6: hash microbenchmark, n=%d, %d threads (best of %d)\n", fig6N, cfg.Threads, cfg.Reps)
	fmt.Fprintf(w, "%-36s %10s %6s  %s\n", "variant", "time(s)", "LoC", "notes")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %10.4f %6d  %s\n", r.name, r.seconds, r.loc, r.note)
	}
	fmt.Fprintln(w, "(paper: Rayon fastest with fewest LoC; thread-per-task panics; serial slowest of the rest)")
}
