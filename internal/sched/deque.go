package sched

import "sync/atomic"

// dequeCapacity is the fixed capacity of each worker's deque. Fork-join
// recursion pushes at most O(depth) outstanding tasks per chain, so a deep
// deque combined with the injector-overflow path in Worker.spawn is ample.
const dequeCapacity = 1 << 13

// deque is a Chase-Lev work-stealing deque with a fixed-size circular
// buffer. The owning worker pushes and pops at the bottom; thieves steal
// from the top. All cross-thread coordination goes through the atomic
// top/bottom indices and atomic task slots, following Chase & Lev,
// "Dynamic Circular Work-Stealing Deque" (SPAA 2005), with the dynamic
// growth replaced by an overflow path handled by the caller.
//
// top (thief-CAS'd), bottom (owner-written), and steals (thief-written)
// each sit on their own cache line: a thief hammering CAS on top must not
// invalidate the line the owner's push/pop path reads bottom from, and
// vice versa — the false-sharing half of making the uncontended fast
// path cheap.
type deque struct {
	top    atomic.Int64 // next index to steal from
	_      [56]byte
	bottom atomic.Int64 // next index to push at (owner-only writes)
	_      [56]byte
	steals atomic.Int64 // successful steals from this deque, ever
	_      [56]byte
	tasks  [dequeCapacity]atomic.Pointer[task]
}

// PushBottom adds t at the bottom of the deque. It returns false when the
// deque is full, in which case the caller must route the task elsewhere.
// Only the owning worker may call PushBottom.
func (d *deque) PushBottom(t *task) bool {
	b := d.bottom.Load()
	top := d.top.Load()
	if b-top >= dequeCapacity {
		return false
	}
	d.tasks[b&(dequeCapacity-1)].Store(t)
	d.bottom.Store(b + 1)
	return true
}

// PopBottom removes and returns the most recently pushed task, or nil when
// the deque is empty. Only the owning worker may call PopBottom.
func (d *deque) PopBottom() *task {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	top := d.top.Load()
	if top > b {
		// Deque was already empty; restore bottom.
		d.bottom.Store(top)
		return nil
	}
	t := d.tasks[b&(dequeCapacity-1)].Load()
	if top != b {
		return t // more than one task remained; no race with thieves
	}
	// Single task left: race against thieves via CAS on top.
	if !d.top.CompareAndSwap(top, top+1) {
		t = nil // a thief got it first
	}
	d.bottom.Store(top + 1)
	return t
}

// Steal removes and returns the oldest task, or nil when the deque is
// empty or the steal race was lost. Any worker may call Steal. A
// successful steal bumps the deque's raid counter, which the owner reads
// as the "my deque was raided" demand hint driving lazy splitting.
func (d *deque) Steal() *task {
	top := d.top.Load()
	b := d.bottom.Load()
	if top >= b {
		return nil
	}
	t := d.tasks[top&(dequeCapacity-1)].Load()
	if !d.top.CompareAndSwap(top, top+1) {
		return nil
	}
	d.steals.Add(1)
	return t
}

// Raids returns the number of successful steals from this deque since the
// pool started — a monotone counter the owner compares against a snapshot
// to detect demand.
func (d *deque) Raids() int64 { return d.steals.Load() }

// Empty reports whether the deque currently appears empty. It is a racy
// snapshot intended for heuristics only.
func (d *deque) Empty() bool {
	return d.top.Load() >= d.bottom.Load()
}
