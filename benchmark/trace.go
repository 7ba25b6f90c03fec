package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one traced interval. Spans are recorded from this package
// only, around the calls into each layer; Parent is the id of the span
// that was open when this one began (0 for the root).
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	Pass     int                `json:"pass"` // -1 outside a pass
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Attrs    map[string]string  `json:"attrs,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is used from the
// driver goroutine only. A nil tracer records nothing, so the untraced
// run goes through the same code.
type tracer struct {
	t0       time.Time
	workload string
	pass     int
	spans    []span
	open     []int // ids of the spans currently open, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload, pass: -1}
}

// parent is the innermost open span, 0 when none is open.
func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return 0
	}
	return t.open[len(t.open)-1]
}

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string, attrs map[string]string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: t.parent(), Name: name, Workload: t.workload, Pass: t.pass,
		StartNs: time.Since(t.t0).Nanoseconds(), Attrs: attrs,
	})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one, and
// attaches the counter deltas read at its boundaries.
func (t *tracer) end(id int, counters map[string]float64) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("trace: span %d closed out of order (open: %v)", id, t.open))
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id-1]
	s.EndNs = time.Since(t.t0).Nanoseconds()
	s.Counters = counters
}

// timed records an already measured interval as a closed child of the
// innermost open span: the kernel timer and the span share one pair of
// clock readings, so kernel spans sum exactly to the pass time.
func (t *tracer) timed(name string, start, end time.Time, attrs map[string]string, counters map[string]float64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: t.parent(), Name: name, Workload: t.workload, Pass: t.pass,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
		Attrs: attrs, Counters: counters,
	})
}

// selfTimes returns, per span id, the span's duration minus the part of
// it that its child spans cover.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNs - s.StartNs
		if s.Parent != 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// traceFile is what -spans writes: the spans plus each one's self time.
type traceFile struct {
	Meta   meta          `json:"meta"`
	Spans  []span        `json:"spans"`
	SelfNs map[int]int64 `json:"self_ns"`
}

func writeTrace(path string, m meta, spans []span) error {
	data, err := json.MarshalIndent(traceFile{Meta: m, Spans: spans, SelfNs: selfTimes(spans)}, "", " ")
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
