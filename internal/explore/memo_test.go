package explore

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/faults"
	"waitfree/internal/program"
)

// TestMemoPutNoEvictStorm is the regression test for the evict-storm bug:
// the old put triggered a full-table eviction scan on every insert once
// gray marks alone reached the budget, turning budgeted runs quadratic.
// The fixed table counts only cached (non-gray) entries toward the budget
// and pays at most one clock scan per eviction (plus one per second
// chance), so total scan work is O(evictions), never O(inserts) per
// insert.
func TestMemoPutNoEvictStorm(t *testing.T) {
	const budget = 8
	tbl := newMemoTable(budget, "", nil)

	// A deep DFS stack: gray marks alone exceed the whole budget. They
	// hold no budget slot, so nothing is scanned and nothing is evicted.
	for i := 0; i < 4*budget; i++ {
		tbl.put(fmt.Sprintf("gray%d", i), grayMark)
	}
	if n := tbl.count.Load(); n != 0 {
		t.Fatalf("gray marks counted toward the budget: count=%d", n)
	}
	if s := tbl.evictScans.Load(); s != 0 {
		t.Fatalf("gray marks triggered eviction scans: %d", s)
	}

	// Cached inserts with no interleaved hits: every over-budget insert
	// reclaims exactly one entry with exactly one clock scan.
	const inserts = 1000
	for i := 0; i < inserts; i++ {
		tbl.put(fmt.Sprintf("key%d", i), &summary{nodes: 1})
	}
	if n := tbl.count.Load(); n != budget {
		t.Fatalf("resident count = %d, want budget %d", n, budget)
	}
	ev, scans := tbl.evictions.Load(), tbl.evictScans.Load()
	if ev != inserts-budget {
		t.Fatalf("evictions = %d, want %d", ev, inserts-budget)
	}
	if scans != ev {
		t.Fatalf("evict storm: %d clock scans for %d evictions", scans, ev)
	}

	// Replacing a resident key reuses its budget slot: no eviction.
	tbl.put(fmt.Sprintf("key%d", inserts-1), &summary{nodes: 2})
	if got := tbl.evictions.Load(); got != ev {
		t.Fatalf("replacement evicted: %d -> %d", ev, got)
	}
	if n := tbl.count.Load(); n != budget {
		t.Fatalf("replacement changed the count: %d", n)
	}

	// Second chance: a hit since last consideration spares the entry for
	// one extra scan, then the next-oldest entry goes.
	head := fmt.Sprintf("key%d", inserts-budget) // oldest resident
	if _, ok := tbl.get([]byte(head)); !ok {
		t.Fatalf("resident entry %q missing", head)
	}
	tbl.put("fresh", &summary{nodes: 1})
	if got := tbl.evictScans.Load() - scans; got != 2 {
		t.Fatalf("second chance cost %d scans, want 2 (requeue + evict)", got)
	}
	if got := tbl.evictions.Load() - ev; got != 1 {
		t.Fatalf("second chance evicted %d entries, want 1", got)
	}
	if _, ok := tbl.get([]byte(head)); !ok {
		t.Fatalf("referenced entry %q was evicted despite its second chance", head)
	}
}

// TestMemoCountExactUnderRace hammers put/get/drop (and the evictions they
// trigger) from many goroutines and then checks the budget counter against
// the ground truth. The old evict() published count with a blind Store
// that raced concurrent Adds; the fixed table only ever adjusts the count
// by deltas observed under a shard lock, so at quiescence the counter must
// equal the resident non-gray population exactly. Run under -race this
// also pins the documented "safe for concurrent explorers" claim.
func TestMemoCountExactUnderRace(t *testing.T) {
	tbl := newMemoTable(32, "", nil)
	const goroutines = 8
	const ops = 4000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%97)
				switch i % 5 {
				case 0:
					tbl.put(key, grayMark)
				case 1, 2:
					tbl.put(key, &summary{nodes: int64(i)})
				case 3:
					tbl.get([]byte(key))
				default:
					tbl.drop(key)
				}
			}
		}(g)
	}
	wg.Wait()

	var resident int64
	for i := range tbl.shards {
		s := &tbl.shards[i]
		s.mu.Lock()
		for _, v := range s.m {
			if v != grayMark {
				resident++
			}
		}
		s.mu.Unlock()
	}
	if got := tbl.count.Load(); got != resident {
		t.Fatalf("budget counter drifted: counter %d, resident %d", got, resident)
	}
}

// TestMemoSpillPreservesHits pins the spill tier's contract: a budgeted
// run with MemoSpillDir scores exactly the memo hits of an unbounded run,
// produces the identical report, never degrades, and cleans its spill file
// up at completion. The same budget without a spill tier must still
// degrade (the flag keeps meaning "the memo lost entries for good").
func TestMemoSpillPreservesHits(t *testing.T) {
	im := consensus.Queue2()
	full, err := Consensus(im, Options{Faults: oneCrash})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spill, err := Consensus(im, Options{
		MemoBudget: 4, MemoSpillDir: dir, Faults: oneCrash,
	})
	if err != nil {
		t.Fatal(err)
	}
	if spill.Degraded || (spill.Stats != nil && spill.Stats.Degraded) {
		t.Fatalf("spill-backed budget degraded: %s", spill.Summary())
	}
	if spill.Stats.MemoSpilled == 0 {
		t.Errorf("budget 4 spilled nothing: %+v", spill.Stats)
	}
	if spill.Stats.MemoEvictions == 0 {
		t.Errorf("budget 4 evicted nothing: %+v", spill.Stats)
	}
	if spill.MemoHits != full.MemoHits {
		t.Errorf("spill lost memo hits: %d, unbounded %d", spill.MemoHits, full.MemoHits)
	}
	if !reflect.DeepEqual(stripStats(full), stripStats(spill)) {
		t.Errorf("spill-backed report differs from unbounded:\nfull:  %+v\nspill: %+v",
			stripStats(full), stripStats(spill))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("spill file survived tree completion: %v", entries)
	}

	noSpill, err := Consensus(im, Options{MemoBudget: 4, Faults: oneCrash})
	if err != nil {
		t.Fatal(err)
	}
	if !noSpill.Degraded {
		t.Errorf("budget without spill did not degrade")
	}
}

// TestSpillRecordRoundTrip exercises the spill codec directly: arbitrary
// (newline-containing) keys and summaries survive the base64+envelope
// round trip, absent keys miss, and a corrupted record is dropped —
// confined to its own entry, never served, never breaking the tier.
func TestSpillRecordRoundTrip(t *testing.T) {
	sp := newMemoSpill(t.TempDir(), nil)
	defer sp.close()

	key := "raw\nbytes\x00with separators"
	sum := &summary{height: 3, nodes: 42, leaves: 7, acc: []int32{0, 2, 5}}
	if !sp.store(key, sum) {
		t.Fatal("store failed")
	}
	got, ok := sp.load([]byte(key))
	if !ok {
		t.Fatal("load missed a stored key")
	}
	if got.height != sum.height || got.nodes != sum.nodes || got.leaves != sum.leaves ||
		!reflect.DeepEqual(got.acc, sum.acc) {
		t.Fatalf("round trip mangled the summary: %+v want %+v", got, sum)
	}
	if _, ok := sp.load([]byte("absent")); ok {
		t.Fatal("phantom hit for a key never stored")
	}

	// Flip one byte of the stored envelope: the checksum must catch it, the
	// load must miss, the run must be flagged (the entry's hit is lost for
	// good) — and only that record dies; the tier keeps working.
	if _, err := sp.f.WriteAt([]byte{'#'}, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := sp.load([]byte(key)); ok {
		t.Fatal("corrupted record served")
	}
	if !sp.lost {
		t.Fatal("integrity failure not reported as a lost entry")
	}
	if sp.broken {
		t.Fatal("single corrupt record broke the whole tier")
	}
	if _, ok := sp.load([]byte(key)); ok {
		t.Fatal("dropped record served on a second lookup")
	}
	if !sp.store("another", sum) {
		t.Fatal("tier stopped accepting stores after a confined corruption")
	}
	if got, ok := sp.load([]byte("another")); !ok || got.nodes != sum.nodes {
		t.Fatal("entry stored after a confined corruption did not round-trip")
	}
}

// TestMaxDepthThroughMemoHits is the regression test for the memo-hit
// budget hole: a memo hit used to return a cached subtree without checking
// that it fits under MaxDepth from the depth of the new visit, so a budget
// below the tree's depth D could still report wait-free. Both rows have
// MaxDepth = D-1 and must trip the budget on the path a full tree walk
// trips it on.
func TestMaxDepthThroughMemoHits(t *testing.T) {
	rows := []struct {
		name     string
		im       func() *program.Implementation
		faults   faults.Model
		maxDepth int
		kind     ViolationKind
	}{
		{"weakleader2", consensus.WeakLeader2, faults.Model{}, 6, KindDepthExceeded},
		{"casregister3 crash-recovery", consensus.CASRegister3, oneRecovery, 13, KindBlockedByRecoveryDivergence},
	}
	for _, r := range rows {
		full, err := Consensus(r.im(), Options{Faults: r.faults, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !full.OK() || full.Depth != r.maxDepth+1 {
			t.Fatalf("%s: unbounded run %s, want OK with D=%d", r.name, full.Summary(), r.maxDepth+1)
		}
		rep, err := Consensus(r.im(), Options{Faults: r.faults, Parallelism: 1, MaxDepth: r.maxDepth})
		if err != nil {
			t.Fatal(err)
		}
		v := rep.Violation
		if rep.WaitFree || v == nil || v.Kind != r.kind {
			t.Fatalf("%s: MaxDepth %d gave %s (violation %+v), want %v", r.name, r.maxDepth, rep.Summary(), v, r.kind)
		}
		if rep.Depth != r.maxDepth {
			t.Errorf("%s: depth %d, want %d", r.name, rep.Depth, r.maxDepth)
		}
		accesses := 0
		for _, s := range v.Schedule {
			if !s.Crash && !s.Recover {
				accesses++
			}
		}
		if accesses != r.maxDepth {
			t.Errorf("%s: counterexample has %d accesses, want %d", r.name, accesses, r.maxDepth)
		}
	}
}
