// Package arena is a type-checkable stand-in for the real arena
// substrate: the lifetimes fixtures need go/types to resolve the
// checkout API (Alloc/AllocUninit/AcquireBox, Mark/Release/Reset,
// Of). Bodies are plain heap semantics; only the
// signatures and the package path suffix matter to the pass.
package arena

import "fixture/internal/sched"

type Arena struct{ gen int }

type Mark struct{ gen int }

func Of(w *sched.Worker) *Arena { return &Arena{} }

func (a *Arena) Mark() Mark { return Mark{gen: a.gen} }

func (a *Arena) Release(m Mark) {}

func (a *Arena) Reset() { a.gen++ }

func Alloc[T any](a *Arena, n int) []T { return make([]T, n) }

func AllocUninit[T any](a *Arena, n int) []T { return make([]T, n) }

func AcquireBox[T any](w *sched.Worker) *T { return new(T) }

func ReleaseBox[T any](w *sched.Worker, b *T) {}
