// Package testgate holds an exploration in place so a test can observe
// it mid-run. Tests that check autosave, cancellation, deadlines or
// drains need a run that is still going when the tick, deadline or
// cancel arrives. Sizing the workload so that it "takes long enough" is a
// race the machine can lose. A gate removes the race: it wraps an
// implementation's machines, keeping the same transitions and the same
// name, and blocks a chosen machine call until the test releases it.
//
// Only tests import this package.
package testgate

import (
	"sync"
	"sync/atomic"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// Gate blocks the at-th Start call of the wrapped machines, and every
// call after it, until Release. Calls are counted across all processes
// and all execution trees; each tree's root configuration starts every
// process once, so with a single worker, call procs*t+1 is the first
// call of tree t.
type Gate struct {
	at          int64
	calls       atomic.Int64
	release     chan struct{}
	releaseOnce sync.Once
	reached     chan struct{}
	reachedOnce sync.Once
}

// New returns a gate that blocks from the at-th Start call (1-based) on.
func New(at int64) *Gate {
	return &Gate{at: at, release: make(chan struct{}), reached: make(chan struct{})}
}

// Reached returns a channel that is closed once a call has arrived at the
// gate: the run has got as far as the at-th Start call. A test that stops
// the run waits on it first, so the stop cannot land before the run
// started.
func (g *Gate) Reached() <-chan struct{} { return g.reached }

// Wrap returns a copy of im whose machines pass through g. Objects,
// name, process count and symmetry declaration are shared with im.
func (g *Gate) Wrap(im *program.Implementation) *program.Implementation {
	out := *im
	out.Machines = make([]program.Machine, len(im.Machines))
	for p, m := range im.Machines {
		out.Machines[p] = gated{Machine: m, g: g}
	}
	return &out
}

// Release opens the gate for good. It is safe to call more than once.
func (g *Gate) Release() { g.releaseOnce.Do(func() { close(g.release) }) }

// ReleaseOn opens the gate once done is closed — typically a context's
// Done channel, so the engine resumes only after it was cancelled or its
// deadline expired. done must close eventually, or the waiting goroutine
// leaks.
func (g *Gate) ReleaseOn(done <-chan struct{}) {
	go func() {
		<-done
		g.Release()
	}()
}

// gated passes Start through the gate; Next is the wrapped machine's.
type gated struct {
	program.Machine
	g *Gate
}

func (w gated) Start(inv types.Invocation, mem any) any {
	if w.g.calls.Add(1) >= w.g.at {
		w.g.reachedOnce.Do(func() { close(w.g.reached) })
		<-w.g.release
	}
	return w.Machine.Start(inv, mem)
}
