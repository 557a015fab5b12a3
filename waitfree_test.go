package waitfree_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"waitfree"
)

// The tests in this file exercise the public facade exactly as a
// downstream user would; deep behavior is tested in the internal packages.

// protocol builds a registry protocol for a test; the names are constants,
// so a failure is a broken registry.
func protocol(name string, procs int) *waitfree.Implementation {
	im, err := waitfree.BuildProtocol(name, procs)
	if err != nil {
		panic(err)
	}
	return im
}

// TestExamplesGolden builds every examples/* program once and compares
// its stdout byte for byte with testdata/examples/<name>.golden, which
// scripts/genparity writes.
func TestExamplesGolden(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build examples: %v\n%s", err, out)
	}
	for _, main := range mains {
		name := filepath.Base(filepath.Dir(main))
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Command(filepath.Join(bin, name)).Output()
			if err != nil {
				t.Fatalf("run %s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from its golden:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

func TestFacadeCheckConsensusK(t *testing.T) {
	rep, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.MultiValuedConsensus(2, 3),
		Values:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatal(rep.Consensus.Summary())
	}
	if rep.Consensus.Roots != 9 {
		t.Errorf("roots = %d, want 9", rep.Consensus.Roots)
	}
}
func TestFacadeCustomType(t *testing.T) {
	flag := &waitfree.Spec{
		Name:          "flag",
		Ports:         2,
		Oblivious:     true,
		Deterministic: true,
		Alphabet:      []waitfree.Invocation{waitfree.Inv("raise"), waitfree.Inv("check")},
		Step: func(q waitfree.State, _ int, inv waitfree.Invocation) []waitfree.Transition {
			b, ok := q.(int)
			if !ok {
				return nil
			}
			switch inv.Op {
			case "raise":
				return []waitfree.Transition{{Next: 1, Resp: waitfree.OK}}
			case "check":
				return []waitfree.Transition{{Next: b, Resp: waitfree.ValOf(b)}}
			}
			return nil
		},
	}
	trivial, err := waitfree.IsTrivial(flag, []waitfree.State{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if trivial {
		t.Fatal("flag type misclassified as trivial")
	}
	im, pair, err := waitfree.OneUseBitFromType(flag, []waitfree.State{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pair.K() != 1 {
		t.Errorf("witness k = %d, want 1", pair.K())
	}
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeValency(t *testing.T) {
	report, err := waitfree.ComputeValency(
		protocol("tas", 0), []int{0, 1}, waitfree.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.InitialBivalent || len(report.Critical) == 0 {
		t.Fatalf("unexpected valency report: %+v", report)
	}
}

func TestFacadeBoundedBit(t *testing.T) {
	b := waitfree.NewBoundedBit(4, 3, 1)
	v, err := b.Read()
	if err != nil || v != 1 {
		t.Fatalf("read = %d, %v", v, err)
	}
	if err := b.Write(0); err != nil {
		t.Fatal(err)
	}
	v, err = b.Read()
	if err != nil || v != 0 {
		t.Fatalf("read after write = %d, %v", v, err)
	}
}

func TestFacadeUniversal(t *testing.T) {
	u, err := waitfree.NewUniversal(waitfree.NewFetchAdd(2), 0, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	r, err := u.Apply(0, waitfree.Inv("faa", 1))
	if err != nil || r != waitfree.ValOf(0) {
		t.Fatalf("faa = %v, %v", r, err)
	}
	r, err = u.Apply(1, waitfree.Inv("faa", 0))
	if err != nil || r != waitfree.ValOf(1) {
		t.Fatalf("faa(0) = %v, %v", r, err)
	}
}

func TestFacadeExportDot(t *testing.T) {
	scripts := [][]waitfree.Invocation{
		{waitfree.Propose(0)}, {waitfree.Propose(1)},
	}
	dot, err := waitfree.ExportDot(protocol("cas", 2), scripts, waitfree.ExploreOptions{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "digraph") {
		t.Errorf("dot output: %q", dot)
	}
}

func TestFacadeAuditSpec(t *testing.T) {
	if err := waitfree.AuditSpec(waitfree.NewTestAndSet(2), 0, 32); err != nil {
		t.Fatal(err)
	}
	lying := waitfree.NewOneUseBit()
	lying.Deterministic = true
	if err := waitfree.AuditSpec(lying, "unset", 32); err == nil {
		t.Fatal("lying spec passed the audit")
	}
}

func TestFacadeFetchCons(t *testing.T) {
	rep, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: protocol("fetchcons", 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Consensus.Depth != 3 {
		t.Fatal(rep.Consensus.Summary())
	}
}
