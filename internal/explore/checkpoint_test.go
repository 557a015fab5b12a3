package explore

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"waitfree/internal/consensus"
	"waitfree/internal/faults"
)

// cancelMidRun runs a consensus check sequentially and cancels it from the
// progress callback as soon as at least one tree (but not all) is done,
// returning the checkpoint of the partial report. CASRegister3 explores 8
// trees at ~25ms each, so a 1ms tick reliably lands mid-run.
func cancelMidRun(t *testing.T, opts Options) *Checkpoint {
	t.Helper()
	im := consensus.CASRegister3()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Parallelism = 1
	opts.ProgressInterval = time.Millisecond
	opts.OnProgress = func(s Stats) {
		if s.TreesDone >= 1 {
			cancel()
		}
	}
	rep, err := ConsensusContext(ctx, im, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Checkpoint == nil {
		t.Fatal("cancelled run carries no checkpoint")
	}
	return rep.Checkpoint
}

// TestCheckpointResumeEquality is the acceptance test for checkpoint and
// resume: cancel a run mid-flight, round-trip the checkpoint through its
// JSON form (the CLIs' -checkpoint file), resume, and require the resumed
// report to be deep-equal to an uninterrupted run's — verdicts, bounds,
// and the Nodes/Leaves accounting alike.
func TestCheckpointResumeEquality(t *testing.T) {
	im := consensus.CASRegister3()
	for _, fm := range []faults.Model{{}, {MaxCrashes: 1},
		{MaxCrashes: 1, Mode: faults.CrashRecovery, MaxRecoveries: 1}} {
		base := Options{Faults: fm}
		cp := cancelMidRun(t, base)
		if cp.Faults != fm {
			t.Fatalf("checkpoint fault model %v, want %v", cp.Faults, fm)
		}
		if len(cp.Trees) == 0 {
			t.Fatalf("checkpoint recorded no finished trees: %v", cp)
		}

		blob, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		var restored Checkpoint
		if err := json.Unmarshal(blob, &restored); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cp, &restored) {
			t.Fatalf("checkpoint does not survive its JSON round-trip:\nbefore: %+v\nafter:  %+v", cp, &restored)
		}

		resumeOpts := base
		resumeOpts.ResumeFrom = &restored
		resumeOpts.Parallelism = 2
		resumed, err := Consensus(im, resumeOpts)
		if err != nil {
			t.Fatal(err)
		}
		uninterrupted, err := Consensus(im, base)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripStats(resumed), stripStats(uninterrupted)) {
			t.Errorf("faults=%v: resumed report differs from uninterrupted run\nresumed:       %+v\nuninterrupted: %+v",
				fm, resumed, uninterrupted)
		}
		if resumed.Checkpoint != nil {
			t.Errorf("completed resumed run still carries a checkpoint")
		}
	}
}

// TestCheckpointResumeViolating checks resume on a protocol whose
// exploration ends in a violation: the resumed run must reproduce the
// exact violation report of an uninterrupted run.
func TestCheckpointResumeViolating(t *testing.T) {
	im := consensus.NaiveRegister2()
	uninterrupted, err := Consensus(im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An empty checkpoint of the right shape resumes from nothing.
	cp := &Checkpoint{
		Version: CheckpointVersion,
		Impl:    im.Name,
		Procs:   im.Procs,
		Values:  2,
		Roots:   4,
	}
	resumed, err := Consensus(im, Options{ResumeFrom: cp})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripStats(resumed), stripStats(uninterrupted)) {
		t.Errorf("resumed violating report differs\nresumed:       %+v\nuninterrupted: %+v", resumed, uninterrupted)
	}
	if resumed.Violation == nil {
		t.Fatal("resumed run lost the violation")
	}
}

// TestResumeFromValidation pins every fingerprint check on the resume
// path: a checkpoint from a different implementation, shape, version, or
// fault model — or one that is internally malformed — must be rejected
// with ErrBadCheckpoint before any tree is explored.
func TestResumeFromValidation(t *testing.T) {
	im := consensus.TAS2()
	good := func() *Checkpoint {
		return &Checkpoint{
			Version: CheckpointVersion,
			Impl:    im.Name,
			Procs:   2,
			Values:  2,
			Roots:   4,
		}
	}
	if _, err := Consensus(im, Options{ResumeFrom: good()}); err != nil {
		t.Fatalf("well-formed empty checkpoint rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Checkpoint)
	}{
		{"version", func(c *Checkpoint) { c.Version = CheckpointVersion + 1 }},
		{"impl", func(c *Checkpoint) { c.Impl = "someone-else" }},
		{"procs", func(c *Checkpoint) { c.Procs = 3 }},
		{"values", func(c *Checkpoint) { c.Values = 3 }},
		{"roots", func(c *Checkpoint) { c.Roots = 8 }},
		{"fault model", func(c *Checkpoint) { c.Faults = faults.Model{MaxCrashes: 1} }},
		{"mask range", func(c *Checkpoint) { c.Trees = []TreeResult{{Mask: 4}} }},
		{"duplicate mask", func(c *Checkpoint) {
			// TAS2 declares 3 objects (elect + two prefer bits).
			tr := TreeResult{Mask: 1, MaxAccess: []int{0, 0, 0}, OpAccess: []map[string]int{{}, {}, {}}, ProcSteps: []int{0, 0}}
			c.Trees = []TreeResult{tr, tr}
		}},
		{"bound shape", func(c *Checkpoint) {
			c.Trees = []TreeResult{{Mask: 0, MaxAccess: []int{0}, OpAccess: []map[string]int{{}}, ProcSteps: []int{0, 0}}}
		}},
		{"excess trees", func(c *Checkpoint) {
			tr := TreeResult{MaxAccess: []int{0, 0, 0}, OpAccess: []map[string]int{{}, {}, {}}, ProcSteps: []int{0, 0}}
			for mask := 0; mask < c.Roots+1; mask++ {
				tr.Mask = mask % c.Roots // more trees than roots, before the per-tree scan trips on the reuse
				c.Trees = append(c.Trees, tr)
			}
		}},
	}
	for _, m := range mutations {
		cp := good()
		m.mut(cp)
		if _, err := Consensus(im, Options{ResumeFrom: cp}); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: err = %v, want ErrBadCheckpoint", m.name, err)
		}
	}

	// Single-tree runs have no frontier: Run must reject ResumeFrom.
	scripts := proposalScripts([]int{0, 1})
	if _, err := Run(im, scripts, Options{ResumeFrom: good()}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("Run accepted ResumeFrom: %v", err)
	}
}

// TestCheckpointRemainingClamped pins Remaining on malformed counts: a
// checkpoint claiming more trees than roots (rejected by validateFor, but
// Remaining is also called on display paths before validation) must report
// zero, not a negative count.
func TestCheckpointRemainingClamped(t *testing.T) {
	cp := &Checkpoint{Roots: 8, Trees: make([]TreeResult, 3)}
	if got := cp.Remaining(); got != 5 {
		t.Errorf("Remaining() = %d, want 5", got)
	}
	cp = &Checkpoint{Roots: 2, Trees: make([]TreeResult, 5)}
	if got := cp.Remaining(); got != 0 {
		t.Errorf("Remaining() on an overfull checkpoint = %d, want 0", got)
	}
}
