// Command genparity regenerates the flat-layout parity fixtures under
// testdata/flatparity: canonicalized ConsensusReport JSON for a grid of
// protocols and fault modes, plus a mid-run checkpoint file. The fixtures
// pin the engine's observable output across hot-path rewrites —
// TestFlatLayoutParity asserts that today's engine reproduces them
// byte-for-byte at every parallelism and symmetry level.
//
// It also writes testdata/budgetparity: the same canonical reports for
// runs under Options.MemoBudget, with and without a spill tier. A
// budgeted run's memo_hits and degraded flag depend on which entries the
// memo table evicts and in what order, so these fixtures pin the
// eviction policy itself (TestBudgetParity). They were first written by
// the sharded string-keyed memo table, before the single-owner table
// replaced it.
//
// It also writes testdata/valencyparity: for every registry protocol (at
// its default process count, and at three processes for the scalable
// ones) the ValencyReport JSON and the Graphviz DOT text of the tree from
// the mixed proposal vector p%2 that cmd/explore analyzes, or the error
// text where the analysis fails (a DOT tree over its node budget). These
// pin Valency and Dot byte for byte (TestValencyDotParity).
//
// It also writes testdata/examples/<name>.golden, the stdout of every
// examples/* program (TestExamplesGolden), and
// internal/experiments/testdata/{e2,e9}.golden, the columns, rows and
// verdict of experiments E2 and E9 (TestE2E9Golden). These pin the public
// facade's end-to-end output and the concurrent-history checks of the
// register chain and the universal construction.
//
// Two fixtures, sticky3_nomemo and cas3_crashstop_nomemo, are frozen:
// they were produced by the unmemoized engine, which has since been
// deleted, so they can no longer be regenerated. genparity skips them, and
// the parity test compares against them with memo_hits masked (the
// unmemoized engine scored none).
//
// Regenerate (only when the report format itself changes, never to paper
// over an engine difference):
//
//	go run ./scripts/genparity
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"

	"waitfree"
	"waitfree/internal/consensus"
	"waitfree/internal/durable"
	"waitfree/internal/experiments"
	"waitfree/internal/explore"
	"waitfree/internal/faults"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// Case is one fixture of the parity grid. The JSON golden is the report of
// a sequential, symmetry-off run; the parity test replays the case at
// every parallelism and symmetry setting and demands identical bytes.
// Frozen marks a golden of the deleted unmemoized engine: never rewritten,
// compared with memo_hits masked.
type Case struct {
	Name   string
	Impl   func() *program.Implementation
	K      int
	Faults faults.Model
	Frozen bool
}

// Cases returns the fixture grid. Shared with the parity test via
// identical construction (the test rebuilds the same grid).
func Cases() []Case {
	crashStop := faults.Model{Mode: faults.CrashStop, MaxCrashes: 1}
	crashRecovery := faults.Model{Mode: faults.CrashRecovery, MaxCrashes: 1, MaxRecoveries: 1}
	return []Case{
		{Name: "sticky3", Impl: func() *program.Implementation { return consensus.Sticky(3) }, K: 2},
		{Name: "sticky3_nomemo", Impl: func() *program.Implementation { return consensus.Sticky(3) }, K: 2, Frozen: true},
		{Name: "sticky3_crashstop", Impl: func() *program.Implementation { return consensus.Sticky(3) }, K: 2, Faults: crashStop},
		{Name: "sticky3_crashrecovery", Impl: func() *program.Implementation { return consensus.Sticky(3) }, K: 2, Faults: crashRecovery},
		{Name: "cas3", Impl: func() *program.Implementation { return consensus.CAS(3) }, K: 2},
		{Name: "cas3_k3", Impl: func() *program.Implementation { return consensus.CAS(3) }, K: 3},
		{Name: "cas3_crashstop_nomemo", Impl: func() *program.Implementation { return consensus.CAS(3) }, K: 2, Frozen: true, Faults: crashStop},
		{Name: "tas2_crashrecovery", Impl: consensus.TAS2, K: 2, Faults: crashRecovery},
		{Name: "queue2_crashstop", Impl: consensus.Queue2, K: 2, Faults: crashStop},
		{Name: "naiveregister2", Impl: consensus.NaiveRegister2, K: 2},
		{Name: "fetchcons3", Impl: func() *program.Implementation { return consensus.FetchCons(3) }, K: 2},
	}
}

// BudgetCase is one fixture of the memo-budget grid: a case of the
// exploration grid run with Options.MemoBudget = Budget, with a fresh
// spill directory when Spill is set.
type BudgetCase struct {
	Name   string
	Impl   func() *program.Implementation
	Faults faults.Model
	Budget int
	Spill  bool
}

// BudgetCases returns the memo-budget fixture grid: sticky3, queue2 under
// one crash, and cas3 at budgets 4, 32 and 100 without a spill tier
// (evicted entries are forgotten, so small budgets degrade); larger
// protocols whose trees overflow the larger budgets; a crash-recovery
// row; and spill-backed runs. Shared with the parity test via identical
// construction.
func BudgetCases() []BudgetCase {
	crashStop := faults.Model{Mode: faults.CrashStop, MaxCrashes: 1}
	crashRecovery := faults.Model{Mode: faults.CrashRecovery, MaxCrashes: 1, MaxRecoveries: 1}
	var out []BudgetCase
	for _, budget := range []int{4, 32, 100} {
		out = append(out,
			BudgetCase{Name: fmt.Sprintf("sticky3_b%d", budget), Impl: func() *program.Implementation { return consensus.Sticky(3) }, Budget: budget},
			BudgetCase{Name: fmt.Sprintf("queue2_crashstop_b%d", budget), Impl: consensus.Queue2, Faults: crashStop, Budget: budget},
			BudgetCase{Name: fmt.Sprintf("cas3_b%d", budget), Impl: func() *program.Implementation { return consensus.CAS(3) }, Budget: budget},
		)
	}
	return append(out,
		BudgetCase{Name: "sticky4_b100", Impl: func() *program.Implementation { return consensus.Sticky(4) }, Budget: 100},
		BudgetCase{Name: "cas5_b32", Impl: func() *program.Implementation { return consensus.CAS(5) }, Budget: 32},
		BudgetCase{Name: "sticky5_b100", Impl: func() *program.Implementation { return consensus.Sticky(5) }, Budget: 100},
		BudgetCase{Name: "sticky3_crashrecovery_b32", Impl: func() *program.Implementation { return consensus.Sticky(3) }, Faults: crashRecovery, Budget: 32},
		BudgetCase{Name: "queue2_crashstop_b4_spill", Impl: consensus.Queue2, Faults: crashStop, Budget: 4, Spill: true},
		BudgetCase{Name: "sticky5_b100_spill", Impl: func() *program.Implementation { return consensus.Sticky(5) }, Budget: 100, Spill: true},
	)
}

// BudgetStats is a budget case's eviction telemetry, pinned in
// BudgetStatsFile next to the reports.
type BudgetStats struct {
	Evictions int64 `json:"memo_evictions"`
	Spilled   int64 `json:"memo_spilled"`
}

// BudgetStatsFile holds every budget case's BudgetStats, keyed by name.
const BudgetStatsFile = "evictions.golden"

// Options builds the exploration options of a budget case at the given
// parallelism and symmetry mode; spillDir is used only when c.Spill is
// set.
func (c BudgetCase) Options(parallelism int, symmetry explore.SymmetryMode, spillDir string) explore.Options {
	opts := explore.Options{
		Faults:      c.Faults,
		Parallelism: parallelism,
		Symmetry:    symmetry,
		MemoBudget:  c.Budget,
	}
	if c.Spill {
		opts.MemoSpillDir = spillDir
	}
	return opts
}

// Options builds the exploration options of a case at the given
// parallelism and symmetry mode.
func (c Case) Options(parallelism int, symmetry explore.SymmetryMode) explore.Options {
	return explore.Options{
		Faults:      c.Faults,
		Parallelism: parallelism,
		Symmetry:    symmetry,
	}
}

// CanonicalJSON renders a report with its run-varying observational fields
// (Stats, Checkpoint) stripped, indented — the byte form the goldens pin.
func CanonicalJSON(rep *explore.ConsensusReport) ([]byte, error) {
	clone := *rep
	clone.Stats = nil
	clone.Checkpoint = nil
	data, err := json.MarshalIndent(&clone, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ResumeFixture describes the mid-run checkpoint fixture: a sequential
// sticky3 run stopped by a node budget, its checkpoint saved verbatim. The
// parity test resumes from the file and must land on the sticky3 golden.
const (
	ResumeCase     = "sticky3"
	ResumeFile     = "resume_sticky3.wfcp"
	resumeMaxNodes = 300
)

func main() {
	dir := filepath.Join("testdata", "flatparity")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, c := range Cases() {
		if c.Frozen {
			continue
		}
		rep, err := explore.ConsensusKContext(context.Background(), c.Impl(), c.K, c.Options(1, explore.SymmetryOff))
		if err != nil {
			log.Fatalf("%s: %v", c.Name, err)
		}
		data, err := CanonicalJSON(rep)
		if err != nil {
			log.Fatalf("%s: %v", c.Name, err)
		}
		path := filepath.Join(dir, c.Name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	}

	bdir := filepath.Join("testdata", "budgetparity")
	if err := os.MkdirAll(bdir, 0o755); err != nil {
		log.Fatal(err)
	}
	spillDir, err := os.MkdirTemp("", "genparity-spill-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(spillDir)
	// Eviction counts are engine Stats, which canonical reports strip; a
	// side file pins them too, since they follow the victim order.
	evictions := make(map[string]BudgetStats)
	for _, c := range BudgetCases() {
		rep, err := explore.ConsensusKContext(context.Background(), c.Impl(), 2, c.Options(1, explore.SymmetryOff, spillDir))
		if err != nil {
			log.Fatalf("%s: %v", c.Name, err)
		}
		data, err := CanonicalJSON(rep)
		if err != nil {
			log.Fatalf("%s: %v", c.Name, err)
		}
		path := filepath.Join(bdir, c.Name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			log.Fatal(err)
		}
		evictions[c.Name] = BudgetStats{Evictions: rep.Stats.MemoEvictions, Spilled: rep.Stats.MemoSpilled}
		fmt.Printf("wrote %s (%d bytes, degraded=%v, evictions=%d)\n", path, len(data), rep.Degraded, rep.Stats.MemoEvictions)
	}
	data, err := json.MarshalIndent(evictions, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bdir, BudgetStatsFile), append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}

	// The resume fixture: stop the ResumeCase run early and save its
	// checkpoint. Sequential and node-budgeted, so the captured frontier is
	// deterministic.
	var rc Case
	for _, c := range Cases() {
		if c.Name == ResumeCase {
			rc = c
		}
	}
	opts := rc.Options(1, explore.SymmetryOff)
	opts.MaxNodes = resumeMaxNodes
	rep, err := explore.ConsensusKContext(context.Background(), rc.Impl(), rc.K, opts)
	if err != nil {
		log.Fatalf("resume fixture: %v", err)
	}
	if !rep.Partial || rep.Checkpoint == nil {
		log.Fatalf("resume fixture run was not partial (nodes=%d); lower resumeMaxNodes", rep.Nodes)
	}
	path := filepath.Join(dir, ResumeFile)
	if err := durable.Save(path, rep.Checkpoint); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d/%d trees)\n", path, len(rep.Checkpoint.Trees), rep.Checkpoint.Roots)

	vdir := filepath.Join("testdata", "valencyparity")
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, c := range ValencyCases() {
		im, err := c.Info.Build(c.Procs)
		if err != nil {
			log.Fatalf("%s: %v", c.Name, err)
		}
		valency, dot := ValencyFixtures(im)
		for ext, data := range map[string][]byte{".valency.json": valency, ".dot": dot} {
			path := filepath.Join(vdir, c.Name+ext)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
		}
	}

	writeExampleGoldens()
	writeExperimentGoldens()
}

// writeExampleGoldens builds every examples/* program and writes its
// stdout to testdata/examples/<name>.golden.
func writeExampleGoldens() {
	bin, err := os.MkdirTemp("", "genparity-examples-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(bin)
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		log.Fatalf("build examples: %v", err)
	}
	edir := filepath.Join("testdata", "examples")
	if err := os.MkdirAll(edir, 0o755); err != nil {
		log.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil {
		log.Fatal(err)
	}
	for _, main := range names {
		name := filepath.Base(filepath.Dir(main))
		out, err := exec.Command(filepath.Join(bin, name)).Output()
		if err != nil {
			log.Fatalf("example %s: %v", name, err)
		}
		path := filepath.Join(edir, name+".golden")
		if err := os.WriteFile(path, out, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(out))
	}
}

// experimentGolden is the pinned part of an experiment table: everything
// it computes, none of its prose. TestE2E9Golden marshals the same shape.
type experimentGolden struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Verdict string     `json:"verdict"`
}

// writeExperimentGoldens writes the experimentGolden JSON of E2 and E9 to
// internal/experiments/testdata.
func writeExperimentGoldens() {
	xdir := filepath.Join("internal", "experiments", "testdata")
	if err := os.MkdirAll(xdir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, run := range map[string]func() (*experiments.Table, error){"e2": experiments.E2, "e9": experiments.E9} {
		t, err := run()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		data, err := json.MarshalIndent(experimentGolden{Columns: t.Columns, Rows: t.Rows, Verdict: t.Verdict}, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(xdir, name+".golden")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(data)+1)
	}
}

// ValencyCase is one fixture of the valency grid: a registry protocol
// built at Procs (0 = its default count).
type ValencyCase struct {
	Name  string
	Info  waitfree.ProtocolInfo
	Procs int
}

// ValencyCases returns the valency grid: every registry protocol at its
// default process count, plus a three-process case (suffix _p3) for each
// scalable one. Shared with the parity test via identical construction.
func ValencyCases() []ValencyCase {
	var out []ValencyCase
	for _, info := range waitfree.Protocols() {
		out = append(out, ValencyCase{Name: info.Name, Info: info})
		if info.Scalable() {
			out = append(out, ValencyCase{Name: info.Name + "_p3", Info: info, Procs: 3})
		}
	}
	return out
}

// DotBudget is the node budget of the DOT fixtures, the one cmd/explore
// renders with.
const DotBudget = 4000

// ValencyFixtures renders the two fixtures of one implementation for the
// proposal vector p%2: the indented ValencyReport JSON and the DOT text,
// each replaced by "error: " and the error text when its call fails.
func ValencyFixtures(im *program.Implementation) (valency, dot []byte) {
	proposals := make([]int, im.Procs)
	scripts := make([][]types.Invocation, im.Procs)
	for p := range proposals {
		proposals[p] = p % 2
		scripts[p] = []types.Invocation{types.Propose(p % 2)}
	}
	if rep, err := explore.Valency(im, proposals, explore.Options{}); err != nil {
		valency = []byte("error: " + err.Error() + "\n")
	} else if valency, err = json.MarshalIndent(rep, "", "  "); err != nil {
		log.Fatal(err)
	} else {
		valency = append(valency, '\n')
	}
	if text, err := explore.Dot(im, scripts, explore.Options{}, DotBudget); err != nil {
		dot = []byte("error: " + err.Error() + "\n")
	} else {
		dot = []byte(text)
	}
	return valency, dot
}
