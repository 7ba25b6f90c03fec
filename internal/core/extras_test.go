package core

import (
	"sync/atomic"
	"testing"
)

func TestAsyncWaitBasic(t *testing.T) {
	on(func(w *Worker) {
		f := Async(w, func(w *Worker) int { return 41 + 1 })
		if got := f.Wait(w); got != 42 {
			t.Errorf("Wait = %d", got)
		}
	})
}

func TestAsyncSequentialPath(t *testing.T) {
	f := Async[string](nil, func(*Worker) string { return "done" })
	if !f.done.Load() || f.Wait(nil) != "done" {
		t.Fatal("nil-worker future misbehaved")
	}
}

func TestAsyncManyFutures(t *testing.T) {
	on(func(w *Worker) {
		futs := make([]*Future[int], 100)
		for i := range futs {
			i := i
			futs[i] = Async(w, func(w *Worker) int {
				// Each future itself computes in parallel.
				return int(MapReduce(w, 100, 0, func(j int) int { return i + j },
					func(a, b int) int { return a + b }))
			})
		}
		for i, f := range futs {
			want := 100*i + 99*100/2
			if got := f.Wait(w); got != want {
				t.Fatalf("future %d = %d, want %d", i, got, want)
			}
		}
	})
}

func TestFutureWaitedByNonSpawner(t *testing.T) {
	// Non-strict fork-join: a different task joins the future.
	on(func(w *Worker) {
		f := Async(w, func(*Worker) int { return 7 })
		var got atomic.Int64
		w.Join(
			func(w *Worker) { got.Store(int64(f.Wait(w))) },
			func(w *Worker) {},
		)
		if got.Load() != 7 {
			t.Fatalf("cross-task wait = %d", got.Load())
		}
	})
}

func TestPipelineOrdering(t *testing.T) {
	const n = 200
	const stages = 4
	// Record, per item, the order stages observed it.
	state := make([][stages]int32, n)
	var clock atomic.Int32
	fns := make([]func(int), stages)
	for s := 0; s < stages; s++ {
		s := s
		fns[s] = func(i int) {
			state[i][s] = clock.Add(1)
		}
	}
	on(func(w *Worker) { Pipeline(w, n, fns) })
	for i := 0; i < n; i++ {
		for s := 1; s < stages; s++ {
			if state[i][s] <= state[i][s-1] {
				t.Fatalf("item %d: stage %d ran at %d before stage %d at %d",
					i, s, state[i][s], s-1, state[i][s-1])
			}
		}
	}
	for s := 0; s < stages; s++ {
		for i := 1; i < n; i++ {
			if state[i][s] <= state[i-1][s] {
				t.Fatalf("stage %d: item %d ran before item %d", s, i, i-1)
			}
		}
	}
}

func TestPipelineComputesChain(t *testing.T) {
	const n = 1000
	data := make([]int, n)
	for i := range data {
		data[i] = i
	}
	on(func(w *Worker) {
		Pipeline(w, n, []func(int){
			func(i int) { data[i] *= 2 },
			func(i int) { data[i] += 3 },
			func(i int) { data[i] *= data[i] },
		})
	})
	for i := range data {
		want := (i*2 + 3) * (i*2 + 3)
		if data[i] != want {
			t.Fatalf("data[%d] = %d, want %d", i, data[i], want)
		}
	}
}

func TestPipelineSequentialAndDegenerate(t *testing.T) {
	ran := 0
	Pipeline(nil, 5, []func(int){func(i int) { ran++ }})
	if ran != 5 {
		t.Fatalf("sequential pipeline ran %d items", ran)
	}
	Pipeline(nil, 0, []func(int){func(int) { t.Fatal("ran on n=0") }})
	Pipeline(nil, 5, nil)
	on(func(w *Worker) {
		Pipeline(w, 0, []func(int){func(int) { t.Error("ran on n=0 parallel") }})
	})
}

func TestPipelineSingleWorkerPool(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var order []int
	p.Do(func(w *Worker) {
		Pipeline(w, 3, []func(int){
			func(i int) { order = append(order, i) },
			func(i int) { order = append(order, 10+i) },
		})
	})
	if len(order) != 6 {
		t.Fatalf("ran %d cells", len(order))
	}
}

func TestHelpUntilImmediate(t *testing.T) {
	on(func(w *Worker) {
		w.HelpUntil(func() bool { return true })
	})
}

func TestFuturePanicSurfacesAtWait(t *testing.T) {
	on(func(w *Worker) {
		f := Async(w, func(*Worker) int { panic("future boom") })
		defer func() {
			r := recover()
			tp, ok := r.(*TaskPanic)
			if !ok || tp.Value != "future boom" {
				t.Errorf("recovered %v", r)
			}
		}()
		f.Wait(w)
		t.Error("Wait returned despite panic")
	})
}
