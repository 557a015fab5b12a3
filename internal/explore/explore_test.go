package explore

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"waitfree/internal/linearize"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// ---- test machines ----

// casConsensusState drives the register-free CAS consensus protocol.
type casConsensusState struct {
	PC int
	V  int
}

const casBottom = 2 // the "undecided" CAS value

// casConsensusMachine: cas(bottom, v); decide v on success, the observed
// value on failure. Register-free n-process consensus.
var casConsensusMachine = program.FuncMachine{
	StartFn: func(inv types.Invocation, _ any) any {
		return casConsensusState{PC: 0, V: inv.A}
	},
	NextFn: func(state any, resp types.Response) (program.Action, any) {
		s := state.(casConsensusState)
		switch s.PC {
		case 0:
			return program.InvokeAction(0, types.Inv(types.OpCAS, casBottom, s.V)), casConsensusState{PC: 1, V: s.V}
		default:
			if resp.Val == casBottom {
				return program.ReturnAction(types.ValOf(s.V), nil), s
			}
			return program.ReturnAction(types.ValOf(resp.Val), nil), s
		}
	},
}

func casConsensusImpl(procs int) *program.Implementation {
	machines := make([]program.Machine, procs)
	for p := range machines {
		machines[p] = casConsensusMachine
	}
	return &program.Implementation{
		Name:   "cas-consensus",
		Target: types.Consensus(procs),
		Procs:  procs,
		Objects: []program.ObjectDecl{{
			Name:   "cas",
			Spec:   types.CompareSwap(procs, 3),
			Init:   casBottom,
			PortOf: program.AllPorts(procs),
		}},
		Machines: machines,
	}
}

// tasConsensusState drives the classic TAS + SRSW-bit 2-process consensus.
type tasConsensusState struct {
	PC int
	V  int
}

func tasConsensusMachine(p int) program.Machine {
	ownObj := 1 + p
	otherObj := 1 + (1 - p)
	return program.FuncMachine{
		StartFn: func(inv types.Invocation, _ any) any {
			return tasConsensusState{PC: 0, V: inv.A}
		},
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s := state.(tasConsensusState)
			switch s.PC {
			case 0:
				return program.InvokeAction(ownObj, types.Write(s.V)), tasConsensusState{PC: 1, V: s.V}
			case 1:
				return program.InvokeAction(0, types.TAS), tasConsensusState{PC: 2, V: s.V}
			case 2:
				if resp.Val == 0 { // won
					return program.ReturnAction(types.ValOf(s.V), nil), s
				}
				return program.InvokeAction(otherObj, types.Read), tasConsensusState{PC: 3, V: s.V}
			default:
				return program.ReturnAction(types.ValOf(resp.Val), nil), s
			}
		},
	}
}

func tasConsensusImpl() *program.Implementation {
	return &program.Implementation{
		Name:   "tas-consensus",
		Target: types.Consensus(2),
		Procs:  2,
		Objects: []program.ObjectDecl{
			{Name: "tas", Spec: types.TestAndSet(2), Init: 0, PortOf: program.AllPorts(2)},
			// prefer0: written by process 0, read by process 1.
			{Name: "prefer0", Spec: types.SRSWBit(), Init: 0, PortOf: program.PairPorts(2, 1, 0)},
			// prefer1: written by process 1, read by process 0.
			{Name: "prefer1", Spec: types.SRSWBit(), Init: 0, PortOf: program.PairPorts(2, 0, 1)},
		},
		Machines: []program.Machine{tasConsensusMachine(0), tasConsensusMachine(1)},
	}
}

// selfishMachine decides its own proposal without communicating: violates
// agreement whenever proposals differ.
var selfishMachine = program.FuncMachine{
	StartFn: func(inv types.Invocation, _ any) any { return casConsensusState{V: inv.A} },
	NextFn: func(state any, _ types.Response) (program.Action, any) {
		s := state.(casConsensusState)
		return program.ReturnAction(types.ValOf(s.V), nil), s
	},
}

// stubbornMachine always decides 1: violates validity when all propose 0.
var stubbornMachine = program.FuncMachine{
	StartFn: func(_ types.Invocation, _ any) any { return casConsensusState{} },
	NextFn: func(state any, _ types.Response) (program.Action, any) {
		return program.ReturnAction(types.ValOf(1), nil), state
	},
}

// spinMachine reads a register until it holds 1 (it never does): not
// wait-free.
var spinMachine = program.FuncMachine{
	StartFn: func(_ types.Invocation, _ any) any { return casConsensusState{} },
	NextFn: func(state any, resp types.Response) (program.Action, any) {
		s := state.(casConsensusState)
		if s.PC == 1 && resp.Val == 1 {
			return program.ReturnAction(types.ValOf(1), nil), s
		}
		return program.InvokeAction(0, types.Read), casConsensusState{PC: 1}
	},
}

func noObjectImpl(m program.Machine, procs int) *program.Implementation {
	machines := make([]program.Machine, procs)
	for p := range machines {
		machines[p] = m
	}
	return &program.Implementation{
		Name:     "test-impl",
		Target:   types.Consensus(procs),
		Procs:    procs,
		Machines: machines,
	}
}

// ---- tests ----

func TestCASConsensusCorrect(t *testing.T) {
	for _, procs := range []int{2, 3} {
		report, err := Consensus(casConsensusImpl(procs), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !report.OK() {
			t.Fatalf("procs=%d: %s\n%v", procs, report.Summary(), report.Violation)
		}
		// Every process takes exactly one step, so D = procs.
		if report.Depth != procs {
			t.Errorf("procs=%d: D = %d, want %d", procs, report.Depth, procs)
		}
		if report.MaxAccess[0] != procs {
			t.Errorf("procs=%d: cas object accessed %d times, want %d", procs, report.MaxAccess[0], procs)
		}
		if len(report.Decisions) != 2 {
			t.Errorf("procs=%d: decisions = %v, want both values", procs, report.Decisions)
		}
	}
}

func TestTASConsensusCorrectAndBounded(t *testing.T) {
	report, err := Consensus(tasConsensusImpl(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("%s\n%v", report.Summary(), report.Violation)
	}
	// Winner: write + tas = 2 steps; loser: write + tas + read = 3.
	if report.Depth != 5 {
		t.Errorf("D = %d, want 5", report.Depth)
	}
	// Section 4.2 bounds: the tas object is accessed at most twice; each
	// prefer bit is written at most once and read at most once.
	if report.MaxAccess[0] != 2 {
		t.Errorf("tas accesses = %d, want 2", report.MaxAccess[0])
	}
	for _, obj := range []int{1, 2} {
		if got := report.OpAccess[obj][types.OpWrite]; got != 1 {
			t.Errorf("obj%d writes = %d, want 1", obj, got)
		}
		if got := report.OpAccess[obj][types.OpRead]; got != 1 {
			t.Errorf("obj%d reads = %d, want 1", obj, got)
		}
	}
}

func TestAgreementViolationDetected(t *testing.T) {
	report, err := Consensus(noObjectImpl(selfishMachine, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Agreement {
		t.Fatal("selfish machines reported as agreeing")
	}
	if report.Violation == nil || report.Violation.Kind != KindLeafReject {
		t.Fatalf("violation = %+v", report.Violation)
	}
	if len(report.ViolationProposals) != 2 {
		t.Errorf("violating proposals = %v", report.ViolationProposals)
	}
}

func TestValidityViolationDetected(t *testing.T) {
	report, err := Consensus(noObjectImpl(stubbornMachine, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Validity {
		t.Fatal("stubborn machines reported as valid")
	}
	if report.Agreement == false {
		t.Error("agreement should hold for stubborn machines")
	}
}

func TestNonWaitFreeDetectedByCycle(t *testing.T) {
	im := noObjectImpl(spinMachine, 1)
	im.Objects = []program.ObjectDecl{
		{Name: "r", Spec: types.Register(1, 2), Init: 0, PortOf: program.AllPorts(1)},
	}
	report, err := Consensus(im, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.WaitFree {
		t.Fatal("spinner reported wait-free")
	}
	if report.Violation.Kind != KindCycle {
		t.Fatalf("violation kind = %v, want cycle", report.Violation.Kind)
	}
}

// counted is the object state of a countingImpl: the wrapped state plus
// the number of accesses so far.
type counted struct {
	Q types.State
	N int
}

// countingImpl returns im with every object's state extended by an access
// counter. Transitions and responses are unchanged, but no configuration
// ever repeats, so cycle detection cannot catch a spinner: only the step
// budget stops it. The budget violations are tested on such spinners.
func countingImpl(im *program.Implementation) *program.Implementation {
	out := *im
	out.Objects = make([]program.ObjectDecl, len(im.Objects))
	for i, d := range im.Objects {
		spec := *d.Spec
		step := d.Spec.Step
		spec.Step = func(q types.State, port int, inv types.Invocation) []types.Transition {
			c := q.(counted)
			var ts []types.Transition
			for _, t := range step(c.Q, port, inv) {
				ts = append(ts, types.Transition{Next: counted{Q: t.Next, N: c.N + 1}, Resp: t.Resp})
			}
			return ts
		}
		d.Spec, d.Init = &spec, counted{Q: d.Init}
		out.Objects[i] = d
	}
	return &out
}

func TestNonWaitFreeDetectedByDepth(t *testing.T) {
	im := noObjectImpl(spinMachine, 1)
	im.Objects = []program.ObjectDecl{
		{Name: "r", Spec: types.Register(1, 2), Init: 0, PortOf: program.AllPorts(1)},
	}
	report, err := Consensus(countingImpl(im), Options{MaxDepth: 50})
	if err != nil {
		t.Fatal(err)
	}
	if report.WaitFree {
		t.Fatal("spinner reported wait-free")
	}
	if report.Violation.Kind != KindDepthExceeded {
		t.Fatalf("violation kind = %v, want depth exceeded", report.Violation.Kind)
	}
	if len(report.Violation.Schedule) != 50 {
		t.Errorf("violating schedule length = %d, want 50", len(report.Violation.Schedule))
	}
}

// TestRecordHistoryLinearizable implements a register from a backing
// register (the identity implementation) and checks every leaf history is
// linearizable against the target register spec.
func TestRecordHistoryLinearizable(t *testing.T) {
	forward := program.FuncMachine{
		StartFn: func(inv types.Invocation, _ any) any {
			return casConsensusState{PC: 0, V: invCode(inv)}
		},
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s := state.(casConsensusState)
			if s.PC == 0 {
				return program.InvokeAction(0, decodeInv(s.V)), casConsensusState{PC: 1, V: s.V}
			}
			return program.ReturnAction(resp, nil), s
		},
	}
	target := types.Register(2, 2)
	im := &program.Implementation{
		Name:   "identity-register",
		Target: target,
		Procs:  2,
		Objects: []program.ObjectDecl{
			{Name: "backing", Spec: types.Register(2, 2), Init: 0, PortOf: program.AllPorts(2)},
		},
		Machines: []program.Machine{forward, forward},
	}
	scripts := [][]types.Invocation{
		{types.Write(1), types.Read},
		{types.Read, types.Read},
	}
	leaves := 0
	opts := Options{
		RecordHistory: true,
		OnLeaf: func(l *Leaf) error {
			leaves++
			h := l.History
			for i := range h {
				h[i].Port = h[i].Proc + 1
			}
			if _, err := linearize.Check(target, 0, h); err != nil {
				return fmt.Errorf("leaf history not linearizable: %w\n%v", err, h)
			}
			return nil
		},
	}
	res, err := Run(im, scripts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("violation: %v", res.Violation)
	}
	if leaves == 0 || int64(leaves) != res.Leaves {
		t.Errorf("leaves seen = %d, result says %d", leaves, res.Leaves)
	}
	if res.Depth != 4 {
		t.Errorf("depth = %d, want 4 (one access per target op)", res.Depth)
	}
}

// invCode/decodeInv squeeze a register invocation into an int so the test
// machine state stays a small comparable struct.
func invCode(inv types.Invocation) int {
	if inv.Op == types.OpRead {
		return -1
	}
	return inv.A
}

func decodeInv(code int) types.Invocation {
	if code == -1 {
		return types.Read
	}
	return types.Write(code)
}

func TestRunRejectsBadShapes(t *testing.T) {
	im := casConsensusImpl(2)
	if _, err := Run(im, nil, Options{}); err == nil {
		t.Error("script count mismatch accepted")
	}
}

func TestEmptyScriptsProduceSingleLeaf(t *testing.T) {
	im := casConsensusImpl(2)
	res, err := Run(im, [][]types.Invocation{{}, {}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaves != 1 || res.Depth != 0 || res.Nodes != 1 {
		t.Errorf("empty scripts: %+v", res)
	}
}

func TestProposalVector(t *testing.T) {
	got := ProposalVector(5, 4)
	want := []int{1, 0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ProposalVector(5,4) = %v, want %v", got, want)
		}
	}
}

func TestStepRecordFormatting(t *testing.T) {
	s := StepRecord{Proc: 1, Obj: 2, Inv: types.Read, Resp: types.ValOf(0)}
	if got := s.String(); got != "p1:obj2.read->val(0)" {
		t.Errorf("StepRecord.String() = %q", got)
	}
	if out := FormatSchedule([]StepRecord{s, s}); !strings.Contains(out, "\n") {
		t.Errorf("FormatSchedule missing newline: %q", out)
	}
}

func TestLeafSchedulePlausible(t *testing.T) {
	im := casConsensusImpl(2)
	scripts := [][]types.Invocation{{types.Propose(0)}, {types.Propose(1)}}
	sawSchedules := make(map[string]bool)
	opts := Options{OnLeaf: func(l *Leaf) error {
		if len(l.Schedule) != l.Depth {
			return fmt.Errorf("schedule length %d != depth %d", len(l.Schedule), l.Depth)
		}
		sawSchedules[FormatSchedule(l.Schedule)] = true
		return nil
	}}
	res, err := Run(im, scripts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatal(res.Violation)
	}
	// Two interleavings: p0 first or p1 first.
	if len(sawSchedules) != 2 {
		t.Errorf("distinct schedules = %d, want 2", len(sawSchedules))
	}
}

func TestDotRendersTree(t *testing.T) {
	im := casConsensusImpl(2)
	scripts := [][]types.Invocation{{types.Propose(0)}, {types.Propose(1)}}
	dot, err := Dot(im, scripts, Options{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph executiontree", "doublecircle", "cas.cas(2)", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q\n%s", want, dot)
		}
	}
	// The CAS tree from mixed proposals: root + 2 internal-ish + leaves.
	if n := strings.Count(dot, "[shape=doublecircle"); n != 2 {
		t.Errorf("leaves rendered = %d, want 2", n)
	}
}

func TestDotBudget(t *testing.T) {
	im := casConsensusImpl(3)
	scripts := [][]types.Invocation{{types.Propose(0)}, {types.Propose(1)}, {types.Propose(0)}}
	if _, err := Dot(im, scripts, Options{}, 3); !errors.Is(err, ErrDotBudget) {
		t.Fatalf("err = %v, want ErrDotBudget", err)
	}
}

func TestProposalVectorK(t *testing.T) {
	got := ProposalVectorK(11, 3, 3) // 11 = 2 + 1*3 + 1*9
	want := []int{2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ProposalVectorK(11,3,3) = %v, want %v", got, want)
		}
	}
}

func TestConsensusKRejectsBadK(t *testing.T) {
	if _, err := ConsensusK(casConsensusImpl(2), 1, Options{}); err == nil {
		t.Error("k=1 accepted")
	}
}

func TestFormatLanes(t *testing.T) {
	im := tasConsensusImpl()
	steps := []StepRecord{
		{Proc: 0, Obj: 1, Inv: types.Write(1), Resp: types.OK},
		{Proc: 1, Obj: 0, Inv: types.TAS, Resp: types.ValOf(0)},
		{Proc: 0, Obj: 0, Inv: types.TAS, Resp: types.ValOf(1)},
	}
	out := FormatLanes(steps, im)
	lines := strings.Split(out, "\n")
	if len(lines) != 4 {
		t.Fatalf("lane output has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "p0") || !strings.Contains(lines[0], "p1") {
		t.Errorf("header missing lanes: %q", lines[0])
	}
	if !strings.Contains(lines[1], "prefer0.write(1)->ok") {
		t.Errorf("step 1 cell missing: %q", lines[1])
	}
	// Process 1's step appears indented into the second lane.
	if strings.Index(lines[2], "tas.tas") <= strings.Index(lines[1], "prefer0") {
		t.Errorf("lanes not columnized:\n%s", out)
	}
	if FormatLanes(nil, nil) != "(empty schedule)" {
		t.Error("empty schedule rendering")
	}
	// Without an implementation, objects print by index.
	if !strings.Contains(FormatLanes(steps, nil), "obj1.write(1)") {
		t.Error("nil-implementation rendering")
	}
}

func TestProcStepsBounds(t *testing.T) {
	report, err := Consensus(tasConsensusImpl(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Each process: announce + tas + (loser) read = at most 3 own steps.
	for p, steps := range report.ProcSteps {
		if steps != 3 {
			t.Errorf("process %d step bound = %d, want 3", p, steps)
		}
	}
	// The per-process bounds are consistent with the global depth.
	sum := 0
	for _, s := range report.ProcSteps {
		sum += s
	}
	if report.Depth > sum {
		t.Errorf("depth %d exceeds the sum of per-process bounds %d", report.Depth, sum)
	}
}
