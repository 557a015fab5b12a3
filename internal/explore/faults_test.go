package explore

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/faults"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// oneCrash is the canonical single-crash model most tests explore under.
var oneCrash = faults.Model{MaxCrashes: 1}

// TestQueue2UnderCrashExploration is the pinned fault-tolerance check of
// the paper's queue-based protocol: Queue2 must verify under exhaustive
// exploration of every single-crash schedule, in both crash modes, and the
// Section 4.2 bounds must be exactly those of the crash-free run — crash
// edges are not object accesses, and every survivor-only execution is a
// prefix of a crash-free one.
func TestQueue2UnderCrashExploration(t *testing.T) {
	im := consensus.Queue2()
	plain, err := Consensus(im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []faults.Mode{faults.CrashStop, faults.CrashBeforeFirstStep} {
		opts := Options{Faults: faults.Model{MaxCrashes: 1, Mode: mode}}
		rep, err := Consensus(im, opts)
		if err != nil {
			t.Fatalf("mode=%v: %v", mode, err)
		}
		if !rep.OK() {
			t.Fatalf("mode=%v: Queue2 failed under 1-crash exploration: %s",
				mode, rep)
		}
		if rep.Faults == nil || *rep.Faults != opts.Faults {
			t.Errorf("mode=%v: report does not echo fault model: %+v", mode, rep.Faults)
		}
		if !reflect.DeepEqual(rep.Decisions, []int{0, 1}) {
			t.Errorf("mode=%v: decisions %v, want [0 1]", mode, rep.Decisions)
		}
		if rep.Depth != plain.Depth ||
			!reflect.DeepEqual(rep.MaxAccess, plain.MaxAccess) ||
			!reflect.DeepEqual(rep.OpAccess, plain.OpAccess) ||
			!reflect.DeepEqual(rep.ProcSteps, plain.ProcSteps) {
			t.Errorf("mode=%v: crash exploration changed the Section 4.2 bounds:\nplain:  D=%d max=%v ops=%v steps=%v\nfaults: D=%d max=%v ops=%v steps=%v",
				mode,
				plain.Depth, plain.MaxAccess, plain.OpAccess, plain.ProcSteps,
				rep.Depth, rep.MaxAccess, rep.OpAccess, rep.ProcSteps)
		}
		if rep.Nodes <= plain.Nodes || rep.Leaves <= plain.Leaves {
			t.Errorf("mode=%v: fault exploration did not add configurations (nodes %d vs %d, leaves %d vs %d)",
				mode, rep.Nodes, plain.Nodes, rep.Leaves, plain.Leaves)
		}
	}
}

// TestAllProcessesMayCrash covers the degenerate schedules where every
// process crashes: the all-crashed leaves are vacuous (nothing decided,
// nothing to check) and must not flag a correct protocol.
func TestAllProcessesMayCrash(t *testing.T) {
	im := consensus.TAS2()
	rep, err := Consensus(im, Options{Faults: faults.Model{MaxCrashes: im.Procs}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("TAS2 failed when all processes may crash: %s", rep)
	}
	if !reflect.DeepEqual(rep.Decisions, []int{0, 1}) {
		t.Errorf("decisions %v, want [0 1]", rep.Decisions)
	}
}

// spinAsk/spinCheck/spinDecide are the comparable machine states of the
// deliberately broken protocols below.
type spinAsk struct{}
type spinCheck struct{}
type spinDecide struct{ prop int }

// announcerMachine writes its proposal, offset by one past the register's
// empty sentinel 0, then decides it — shared by the two broken protocols
// below.
var announcerMachine = program.FuncMachine{
	StartFn: func(inv types.Invocation, _ any) any { return spinDecide{prop: inv.A} },
	NextFn: func(state any, _ types.Response) (program.Action, any) {
		s := state.(spinDecide)
		if s.prop >= 0 {
			return program.InvokeAction(0, types.Write(s.prop+1)), spinDecide{prop: -s.prop - 1}
		}
		return program.ReturnAction(types.ValOf(-s.prop-1), nil), state
	},
}

// spinnerImpl is a deliberately broken protocol: process 0 announces its
// proposal on a flag register and decides it; process 1 spin-waits for
// the announcement and adopts it. Agreement and validity hold on every
// completed execution, so crash-free the protocol is merely not wait-free
// (the spin loop cycles); if process 0 crashes before announcing, process
// 1 starves forever on its own — the survivor-starvation shape fault
// exploration must surface with a crash-annotated schedule.
func spinnerImpl() *program.Implementation {
	waiter := program.FuncMachine{
		StartFn: func(types.Invocation, any) any { return spinAsk{} },
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			switch state.(type) {
			case spinAsk:
				return program.InvokeAction(0, types.Read), spinCheck{}
			case spinCheck:
				if resp.Val == 0 {
					return program.InvokeAction(0, types.Read), spinCheck{}
				}
				return program.ReturnAction(types.ValOf(resp.Val-1), nil), state
			}
			panic("spinner: foreign state")
		},
	}
	return &program.Implementation{
		Name:   "spinner",
		Target: types.Consensus(2),
		Procs:  2,
		Objects: []program.ObjectDecl{
			{Name: "flag", Spec: types.Register(2, 3), Init: 0, PortOf: []int{1, 2}},
		},
		Machines: []program.Machine{announcerMachine, waiter},
	}
}

// TestSurvivorStarvationCounterexample is the acceptance test for crash
// exploration on a broken protocol: the spinner must be reported as
// survivor starvation, with the crash recorded in the counterexample
// schedule. Without fault exploration the same protocol reports a plain
// configuration cycle with no crash annotation — the contrast pins that
// crash branches are explored first.
func TestSurvivorStarvationCounterexample(t *testing.T) {
	im := spinnerImpl()

	rep, err := Consensus(im, Options{Faults: oneCrash})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.WaitFree {
		t.Fatalf("spinner verified under crash exploration: %s", rep)
	}
	v := rep.Violation
	if v == nil || v.Kind != KindBlockedBySurvivorStarvation {
		t.Fatalf("violation = %+v, want KindBlockedBySurvivorStarvation", v)
	}
	if len(v.Schedule) == 0 || !v.Schedule[0].Crash || v.Schedule[0].Proc != 0 {
		t.Fatalf("counterexample schedule is not crash-annotated:\n%s", FormatSchedule(v.Schedule))
	}
	if !strings.Contains(FormatSchedule(v.Schedule), "CRASH") {
		t.Errorf("rendered schedule lacks the CRASH marker:\n%s", FormatSchedule(v.Schedule))
	}
	if !strings.Contains(FormatLanes(v.Schedule, im), "CRASH") {
		t.Errorf("lane rendering lacks the CRASH marker:\n%s", FormatLanes(v.Schedule, im))
	}

	// The depth-bounded analogue: with an access counter on the flag no
	// configuration repeats, so the spin must exhaust the budget and still
	// classify as starvation.
	rep, err = Consensus(countingImpl(im), Options{MaxDepth: 32, Faults: oneCrash})
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violation; v == nil || v.Kind != KindBlockedBySurvivorStarvation ||
		!strings.Contains(v.Detail, "object accesses") {
		t.Fatalf("depth-bounded violation = %+v, want KindBlockedBySurvivorStarvation by budget", rep.Violation)
	}

	// Crash-free contrast: a plain cycle, no crash records anywhere.
	rep, err = Consensus(im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violation; v == nil || v.Kind != KindCycle {
		t.Fatalf("crash-free violation = %+v, want KindCycle", rep.Violation)
	}
	for _, s := range rep.Violation.Schedule {
		if s.Crash {
			t.Fatalf("crash record in a crash-free schedule:\n%s", FormatSchedule(rep.Violation.Schedule))
		}
	}
}

// soloDecideImpl is a second broken protocol: process 0 announces then
// decides its proposal; process 1 reads the flag once and, if process 0
// has not announced yet, decides the constant 7 — a value nobody proposed.
func soloDecideImpl() *program.Implementation {
	guesser := program.FuncMachine{
		StartFn: func(types.Invocation, any) any { return spinAsk{} },
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			switch state.(type) {
			case spinAsk:
				return program.InvokeAction(0, types.Read), spinCheck{}
			case spinCheck:
				if resp.Val == 0 {
					return program.ReturnAction(types.ValOf(7), nil), state
				}
				return program.ReturnAction(types.ValOf(resp.Val-1), nil), state
			}
			panic("solo-decide: foreign state")
		},
	}
	return &program.Implementation{
		Name:   "solo-decide",
		Target: types.Consensus(2),
		Procs:  2,
		Objects: []program.ObjectDecl{
			{Name: "flag", Spec: types.Register(2, 3), Init: 0, PortOf: []int{1, 2}},
		},
		Machines: []program.Machine{announcerMachine, guesser},
	}
}

// TestInvalidAfterCrashCounterexample pins the second new violation kind:
// a crashed execution that completes but whose survivors decided an
// unproposed value must be KindInvalidAfterCrash, flagged as a validity
// failure, with the crash in the schedule.
func TestInvalidAfterCrashCounterexample(t *testing.T) {
	im := soloDecideImpl()
	rep, err := Consensus(im, Options{Faults: oneCrash})
	if err != nil {
		t.Fatal(err)
	}
	v := rep.Violation
	if v == nil || v.Kind != KindInvalidAfterCrash {
		t.Fatalf("violation = %+v, want KindInvalidAfterCrash", v)
	}
	if rep.Validity || !rep.Agreement {
		t.Errorf("verdict agreement=%v validity=%v, want validity alone to fail", rep.Agreement, rep.Validity)
	}
	if !strings.HasPrefix(v.Detail, "validity") {
		t.Errorf("detail %q does not name the failed property", v.Detail)
	}
	crashed := false
	for _, s := range v.Schedule {
		crashed = crashed || s.Crash
	}
	if !crashed {
		t.Fatalf("counterexample schedule is not crash-annotated:\n%s", FormatSchedule(v.Schedule))
	}
}

// TestLeafCrashedAnnotation drives Run directly (Consensus owns OnLeaf) to
// pin the Leaf contract under faults: crash-free leaves carry a nil
// Crashed slice even when fault exploration is on, faulty leaves mark
// exactly the crashed processes, and survivors still carry responses.
func TestLeafCrashedAnnotation(t *testing.T) {
	im := consensus.TAS2()
	scripts := proposalScripts([]int{0, 1})
	var crashFree, crashed int
	_, err := Run(im, scripts, Options{
		Faults: oneCrash,
		OnLeaf: func(l *Leaf) error {
			if l.Crashed == nil {
				crashFree++
				return nil
			}
			crashed++
			n := 0
			for p, c := range l.Crashed {
				if c {
					n++
					continue
				}
				if len(l.Responses[p]) == 0 || l.Responses[p][len(l.Responses[p])-1].Label != types.LabelVal {
					return errors.New("survivor has no decision at a crash leaf")
				}
			}
			if n != 1 {
				return errors.New("crash leaf under MaxCrashes=1 must have exactly one crashed process")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if crashFree == 0 || crashed == 0 {
		t.Fatalf("leaf mix crashFree=%d crashed=%d, want both populations", crashFree, crashed)
	}
}

// TestFaultParityAcrossParallelism extends the engine's determinism
// guarantee to fault exploration: with crashes enabled, the merged report
// must stay a pure function of the implementation — identical at every
// parallelism level, on correct and violating protocols alike.
func TestFaultParityAcrossParallelism(t *testing.T) {
	impls := []*program.Implementation{
		consensus.TAS2(), consensus.Queue2(), consensus.NaiveRegister2(),
		consensus.CAS(2), consensus.FetchCons(2), consensus.CAS(3),
		spinnerImpl(), soloDecideImpl(),
	}
	for _, im := range impls {
		opts := Options{Parallelism: 1, Faults: oneCrash}
		seq, seqErr := Consensus(im, opts)
		stripStats(seq)
		for _, workers := range []int{2, 4} {
			popts := opts
			popts.Parallelism = workers
			par, parErr := Consensus(im, popts)
			stripStats(par)
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("%s workers=%d: error mismatch: %v vs %v",
					im.Name, workers, seqErr, parErr)
			}
			if seqErr != nil {
				continue
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("%s workers=%d: fault report mismatch\nseq: %+v\npar: %+v",
					im.Name, workers, seq, par)
			}
		}
	}
}

// TestMemoBudgetDegradation pins graceful degradation: a starved memo
// table must change only the cost of a run — the verdict, bounds, node
// and leaf counts all stay identical; only MemoHits may differ (eviction
// forces re-exploration, which loses hits at the evicted configurations
// and may score fresh ones below them), and the run is flagged Degraded at
// every level (Result, report, Stats) with the evictions counted.
func TestMemoBudgetDegradation(t *testing.T) {
	im := consensus.Queue2()
	full, err := Consensus(im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Consensus(im, Options{MemoBudget: 4, Faults: oneCrash})
	if err != nil {
		t.Fatal(err)
	}
	if !tight.Degraded {
		t.Fatalf("MemoBudget=4 did not degrade on Queue2 (memo hits %d)", tight.MemoHits)
	}
	if tight.Stats == nil || !tight.Stats.Degraded {
		t.Errorf("Stats does not reflect degradation: %+v", tight.Stats)
	}
	if full.Degraded {
		t.Errorf("unbounded run flagged Degraded")
	}
	if !tight.OK() || tight.Depth != full.Depth || !reflect.DeepEqual(tight.MaxAccess, full.MaxAccess) {
		t.Errorf("degradation changed the verdict or bounds:\nfull:  %s\ntight: %s", full.Summary(), tight.Summary())
	}
	if tight.Stats.MemoEvictions == 0 {
		t.Errorf("degraded run reported no evictions: %+v", tight.Stats)
	}
	if tight.Stats.MemoSpilled != 0 {
		t.Errorf("run without a spill tier reported spills: %+v", tight.Stats)
	}

	// Degraded runs must preserve parity too: eviction is deterministic.
	opts := Options{MemoBudget: 4, Faults: oneCrash}
	seq, err := Consensus(im, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 4
	par, err := Consensus(im, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripStats(seq), stripStats(par)) {
		t.Errorf("degraded report differs across parallelism\nseq: %+v\npar: %+v", seq, par)
	}
}

// explodingMachine accesses its object once, then panics — user code the
// engine must survive.
var explodingMachine = program.FuncMachine{
	StartFn: func(types.Invocation, any) any { return 0 },
	NextFn: func(state any, _ types.Response) (program.Action, any) {
		if state.(int) == 0 {
			return program.InvokeAction(0, types.TAS), 1
		}
		panic("machine exploded")
	},
}

// TestExplorerPanicRecovery pins the panic-safety contract: a panic in
// protocol code surfaces as a structured *faults.PanicError naming the
// engine, the stepping process, and the offending configuration — instead
// of killing the worker goroutine and the whole test process with it.
func TestExplorerPanicRecovery(t *testing.T) {
	im := &program.Implementation{
		Name:   "exploding",
		Target: types.Consensus(2),
		Procs:  2,
		Objects: []program.ObjectDecl{
			{Name: "t", Spec: types.TestAndSet(2), Init: 0, PortOf: []int{1, 2}},
		},
		Machines: []program.Machine{explodingMachine, explodingMachine},
	}
	for _, workers := range []int{1, 4} {
		_, err := Consensus(im, Options{Parallelism: workers})
		var pe *faults.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *faults.PanicError", workers, err)
		}
		if pe.Engine != "explore" {
			t.Errorf("workers=%d: engine %q, want explore", workers, pe.Engine)
		}
		if pe.Value != "machine exploded" {
			t.Errorf("workers=%d: value %v, want the panic payload", workers, pe.Value)
		}
		if pe.Proc < 0 || pe.Proc >= im.Procs {
			t.Errorf("workers=%d: offending process %d out of range", workers, pe.Proc)
		}
		if !strings.Contains(pe.Context, "depth") {
			t.Errorf("workers=%d: context %q lacks the configuration breadcrumb", workers, pe.Context)
		}
		if !strings.Contains(string(pe.Stack), "explodingMachine") &&
			!strings.Contains(string(pe.Stack), "faults_test") {
			t.Errorf("workers=%d: stack does not reach the panicking machine:\n%s", workers, pe.Stack)
		}
	}
}

// Two machine-state types, so the configuration key interns type ids:
// every process starts in stA and moves to stB after its first access.
type stA struct{ N int }
type stB struct{ R int }

// typeShiftMachine accesses its object twice and panics on the response
// to its second access, i.e. when stepped from stB. Stepping process 0
// first from the root reaches the mixed configuration (stB, stA), where
// expansion panics: the first configuration that names stB before stA.
var typeShiftMachine = program.FuncMachine{
	StartFn: func(types.Invocation, any) any { return stA{} },
	NextFn: func(state any, resp types.Response) (program.Action, any) {
		switch st := state.(type) {
		case stA:
			if st.N == 0 {
				return program.InvokeAction(0, types.TAS), stA{N: 1}
			}
			return program.InvokeAction(0, types.TAS), stB{R: resp.Val}
		}
		panic("machine exploded")
	},
}

// typeShiftPanic explores the two-process typeShiftMachine protocol, whose
// expansion of (stB, stA) panics, and returns the explorer with the
// recovered *faults.PanicError.
func typeShiftPanic(t *testing.T) (*explorer, *faults.PanicError) {
	t.Helper()
	im := &program.Implementation{
		Name:   "typeshift",
		Target: types.Consensus(2),
		Procs:  2,
		Objects: []program.ObjectDecl{
			{Name: "t", Spec: types.TestAndSet(2), Init: 0, PortOf: []int{1, 2}},
		},
		Machines: []program.Machine{typeShiftMachine, typeShiftMachine},
	}
	e, root, err := newExplorer(im, proposalScripts([]int{0, 1}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.explore(root)
	var pe *faults.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *faults.PanicError", err)
	}
	return e, pe
}

// TestPanicBreadcrumbIsMemoKey pins that the panic breadcrumb and the
// stall heartbeat name the configuration being expanded by its memo key,
// each segment id resolved to its bytes. The memo's encoder met
// stA before stB, so a key rendered by any other encoder for the mixed
// configuration (stB, stA) would intern the two types the other way
// round and name no configuration the memo has seen.
func TestPanicBreadcrumbIsMemoKey(t *testing.T) {
	e, pe := typeShiftPanic(t)
	// The configuration being expanded is the newest gray memo entry (the
	// deepest one on the DFS stack; nothing was dropped, so ids follow
	// insertion order).
	newest := int32(-1)
	for id, en := range e.memo.ents {
		if en.sum == nil && e.memo.idx.recs[id].chunk != deadChunk {
			newest = int32(id)
		}
	}
	if newest < 0 {
		t.Fatal("no configuration is gray after the panic")
	}
	key := fmt.Sprintf("%x", segmentBytes(e, e.memo.idx.key(newest)))
	if want := "depth 1, config key " + key; pe.Proc != 0 || pe.Context != want {
		t.Errorf("breadcrumb = proc %d, %q\nwant proc 0, %q", pe.Proc, pe.Context, want)
	}
	// The stall heartbeat renders the same key from the same breadcrumb.
	e.ctr = newCounters(1, 1)
	e.ctr.captureKeys = true
	e.flushCounters(1)
	var beat string
	if kp := e.ctr.beats[0].key.Load(); kp != nil {
		beat = *kp
	}
	if beat != key {
		t.Errorf("heartbeat key = %q, want the memo key %q", beat, key)
	}
}
