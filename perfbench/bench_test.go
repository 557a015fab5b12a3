package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The generators are pure functions of the seed.
func TestGeneratorDeterministic(t *testing.T) {
	bodies := func(seed int64) []string {
		g := newDurableGen(seed)
		w := newWarmGen(seed, warmSet())
		o := newHeavyOrder(seed, len(heavyList()))
		var out []string
		for i := 0; i < 500; i++ {
			out = append(out, string(g.next().body), string(w.next().body), string(rune('a'+o.next())))
		}
		return out
	}
	if !reflect.DeepEqual(bodies(7), bodies(7)) {
		t.Fatal("same seed, different streams")
	}
	if reflect.DeepEqual(bodies(7), bodies(8)) {
		t.Fatal("different seeds, same streams")
	}
}

// Every generated request compiles and passes the oracle's registry
// verdict, so a workload has no op that fails by construction.
func TestStreamsCompile(t *testing.T) {
	g := newDurableGen(1)
	reqs := warmSet()
	for i := 0; i < 300; i++ {
		reqs = append(reqs, g.next())
	}
	for _, c := range heavyList() {
		reqs = append(reqs, c.req)
	}
	for _, r := range reqs {
		if _, err := compile(r, ""); err != nil {
			t.Fatalf("%s: %v", r.body, err)
		}
	}
}

// The oracle fails a run when one served report byte is flipped in the
// harness, and passes the same run without the flip.
func TestOracleCatchesFlippedByte(t *testing.T) {
	set := warmSet()[:6]
	for _, flipAt := range []int{-1, 3} {
		d, _, err := startDaemon("", newCountFS())
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		next := func() (request, bool) {
			if i == 2*len(set) {
				return request{}, false
			}
			i++
			return set[i%len(set)], true
		}
		p := phase{loop: closedLoop(d.base, next, time.Time{}, flipAt, newReportPool())}
		if err := d.stop(); err != nil {
			t.Fatal(err)
		}
		p.judge(newOracle())
		want := 0
		if flipAt >= 0 {
			want = 1
		}
		if p.failed != want {
			t.Fatalf("flipAt %d: %d failed ops, want %d (%v)", flipAt, p.failed, want, p.errs)
		}
	}
}

// The job store's fsyncs per job and the explorer's exact counts repeat
// exactly for the same seed.
func TestExactCountsRepeat(t *testing.T) {
	fsyncs := func() int64 {
		d, _, err := startDaemon(t.TempDir(), newCountFS())
		if err != nil {
			t.Fatal(err)
		}
		before := d.fs.snap()
		l := closedLoop(d.base, limited(30, newDurableGen(3).next), time.Time{}, -1, newReportPool())
		after := d.fs.snap().sub(before)
		if err := d.stop(); err != nil {
			t.Fatal(err)
		}
		for _, op := range l.ops {
			if op.failed() {
				t.Fatalf("job failed: %v", op.err)
			}
		}
		return after.fsyncs()
	}
	if a, b := fsyncs(), fsyncs(); a != b || a == 0 {
		t.Fatalf("fsyncs differ across runs: %d vs %d", a, b)
	}

	var list []heavyCheck
	for _, c := range heavyList() {
		if !strings.HasPrefix(c.name, "sticky6") { // keep the test short
			list = append(list, c)
		}
	}
	dir := t.TempDir()
	_, a, _, err := heavySetup(list, dir)
	if err != nil {
		t.Fatal(err)
	}
	_, b, _, err := heavySetup(list, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("check-heavy warm-up passes differ")
	}
}

// BENCHMARK.json declares workloads this program runs and exactly the
// metrics it prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("unknown workload %q", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, program has %d", what, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, program has %+v", what, i, g, d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
