// Package stress provides the concurrent correctness-testing harness of
// the experiments (E2's register chain, E9's universal construction): a
// clock-stamped history recorder, regularity checking for single-writer
// registers, and ready-made stress drivers for register-like objects. The
// exhaustive explorer (package explore) proves properties of small
// instances; this package samples large instances under the Go scheduler
// and checks the recorded histories with the linearizability checker
// (package linearize) or the regularity condition.
package stress

import (
	"fmt"
	"math/rand"
	"sync"

	"waitfree/internal/hist"
	"waitfree/internal/linearize"
	"waitfree/internal/types"
)

// Recorder collects a concurrent history of operations with a global
// logical clock. It is safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	clock int64
	ops   hist.History
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Tick returns the next clock value.
func (r *Recorder) Tick() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock++
	return int(r.clock)
}

// Record appends one operation.
func (r *Recorder) Record(op hist.Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, op)
}

// Read performs f as a clock-stamped read operation by proc.
func (r *Recorder) Read(proc int, f func() int) int {
	begin := r.Tick()
	v := f()
	r.Record(hist.Op{Proc: proc, Port: 1, Inv: types.Read, Resp: types.ValOf(v), Begin: begin, End: r.Tick()})
	return v
}

// Write performs f as a clock-stamped write(v) operation by proc.
func (r *Recorder) Write(proc, v int, f func()) {
	begin := r.Tick()
	f()
	r.Record(hist.Op{Proc: proc, Port: 1, Inv: types.Write(v), Resp: types.OK, Begin: begin, End: r.Tick()})
}

// Op performs f as a clock-stamped operation with an arbitrary invocation.
func (r *Recorder) Op(proc, port int, inv types.Invocation, f func() types.Response) types.Response {
	begin := r.Tick()
	resp := f()
	r.Record(hist.Op{Proc: proc, Port: port, Inv: inv, Resp: resp, Begin: begin, End: r.Tick()})
	return resp
}

// History returns a copy of the recorded history.
func (r *Recorder) History() hist.History {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(hist.History(nil), r.ops...)
}

// CheckAtomic verifies the history is linearizable as a k-valued register
// initialized to init.
func (r *Recorder) CheckAtomic(k, init int) error {
	_, err := linearize.Check(types.Register(1, k), init, r.History())
	return err
}

// CheckRegular verifies the recorded history is single-writer regular
// (see Regular).
func (r *Recorder) CheckRegular(init int) error { return Regular(r.History(), init) }

// Regular verifies single-writer regularity of a register history: every
// read returns the value of the latest write completed before it, of some
// overlapping write, or the initial value. A pending write (End ==
// hist.Pending, e.g. the writer crashed mid-operation) never completes
// before any read; it overlaps every read that begins after it starts, so
// its value is allowed there. Pending reads returned no value and are
// skipped.
func Regular(h hist.History, init int) error {
	var writes, reads hist.History
	for _, op := range h {
		if op.Inv.Op == types.OpWrite {
			writes = append(writes, op)
		} else {
			reads = append(reads, op)
		}
	}
	for _, rd := range reads {
		if !rd.Complete() {
			continue
		}
		allowed := map[int]bool{}
		latestEnd := -1
		latestVal := init
		for _, w := range writes {
			switch {
			case w.Complete() && w.End < rd.Begin:
				if w.End > latestEnd {
					latestEnd = w.End
					latestVal = w.Inv.A
				}
			case w.Begin < rd.End:
				allowed[w.Inv.A] = true
			}
		}
		allowed[latestVal] = true
		if !allowed[rd.Resp.Val] {
			return fmt.Errorf("stress: read %v not regular (allowed %v)", rd, allowed)
		}
	}
	return nil
}

// RegisterUnderTest abstracts a multi-writer register for the stress
// drivers; adapt single-writer registers by ignoring the writer index.
type RegisterUnderTest struct {
	Write func(writer, v int)
	Read  func(reader int) int
}

// Config shapes a register stress run.
type Config struct {
	Writers, Readers int
	Values           int // value range 0..Values-1
	OpsPerParty      int
	Seed             int64
}

// Run drives the register concurrently and returns the recorder. Writers
// write pseudo-random values; readers read. Ops stay under the
// linearizability checker's operation cap when
// (Writers+Readers)*OpsPerParty <= 64.
func Run(reg RegisterUnderTest, cfg Config) *Recorder {
	rec := NewRecorder()
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Pre-draw write values so goroutines need no shared rng.
	vals := make([][]int, cfg.Writers)
	for w := range vals {
		vals[w] = make([]int, cfg.OpsPerParty)
		for i := range vals[w] {
			vals[w][i] = rng.Intn(cfg.Values)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, v := range vals[w] {
				v := v
				rec.Write(w, v, func() { reg.Write(w, v) })
			}
		}(w)
	}
	for rd := 0; rd < cfg.Readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := 0; i < cfg.OpsPerParty; i++ {
				rec.Read(cfg.Writers+rd, func() int { return reg.Read(rd) })
			}
		}(rd)
	}
	wg.Wait()
	return rec
}
