package explore

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/faults"
	"waitfree/internal/program"
)

// memoInsert enters key into tbl as a new gray entry and returns its id.
func memoInsert(t *testing.T, tbl *memoTable, key string) int32 {
	t.Helper()
	_, id, found := tbl.lookup([]byte(key))
	if found {
		t.Fatalf("key %q already present", key)
	}
	return id
}

// TestMemoPutNoEvictStorm is the regression test for the evict-storm bug:
// the old put triggered a full-table eviction scan on every insert once
// gray marks alone reached the budget, turning budgeted runs quadratic.
// The table counts only cached (non-gray) entries toward the budget and
// pays at most one clock scan per eviction (plus one per second chance),
// so total scan work is O(evictions), never O(inserts) per insert.
func TestMemoPutNoEvictStorm(t *testing.T) {
	const budget = 8
	tbl := newMemoTable(budget, "", nil)

	// A deep DFS stack: gray entries alone exceed the whole budget. They
	// hold no budget slot, so nothing is scanned and nothing is evicted.
	for i := 0; i < 4*budget; i++ {
		memoInsert(t, tbl, fmt.Sprintf("gray%d", i))
	}
	if tbl.count != 0 {
		t.Fatalf("gray entries counted toward the budget: count=%d", tbl.count)
	}
	if tbl.evictScans != 0 {
		t.Fatalf("gray entries triggered eviction scans: %d", tbl.evictScans)
	}

	// Cached inserts with no interleaved hits: every over-budget insert
	// reclaims exactly one entry with exactly one clock scan.
	const inserts = 1000
	for i := 0; i < inserts; i++ {
		tbl.store(memoInsert(t, tbl, fmt.Sprintf("key%d", i)), &summary{nodes: 1})
	}
	if tbl.count != budget {
		t.Fatalf("resident count = %d, want budget %d", tbl.count, budget)
	}
	ev, scans := tbl.evictions, tbl.evictScans
	if ev != inserts-budget {
		t.Fatalf("evictions = %d, want %d", ev, inserts-budget)
	}
	if scans != ev {
		t.Fatalf("evict storm: %d clock scans for %d evictions", scans, ev)
	}

	// A hit on a resident entry takes no budget slot: no eviction.
	if sum, _, found := tbl.lookup([]byte(fmt.Sprintf("key%d", inserts-1))); !found || sum == nil {
		t.Fatal("newest resident entry missing")
	}
	if tbl.evictions != ev || tbl.count != budget {
		t.Fatalf("a hit changed the table: evictions %d -> %d, count %d", ev, tbl.evictions, tbl.count)
	}

	// Second chance: a hit since last consideration spares the entry for
	// one extra scan, then the next-oldest entry goes.
	head := fmt.Sprintf("key%d", inserts-budget) // oldest resident
	if _, _, found := tbl.lookup([]byte(head)); !found {
		t.Fatalf("resident entry %q missing", head)
	}
	tbl.store(memoInsert(t, tbl, "fresh"), &summary{nodes: 1})
	if got := tbl.evictScans - scans; got != 2 {
		t.Fatalf("second chance cost %d scans, want 2 (requeue + evict)", got)
	}
	if got := tbl.evictions - ev; got != 1 {
		t.Fatalf("second chance evicted %d entries, want 1", got)
	}
	if sum, _, found := tbl.lookup([]byte(head)); !found || sum == nil {
		t.Fatalf("referenced entry %q was evicted despite its second chance", head)
	}
}

// refMemo is the reference model of the memo table's contract: a plain
// map plus a clock of keys in insertion order, with the second-chance
// eviction policy the sharded table implemented. TestMemoTableModel
// drives it and the real table with the same operations.
type refMemo struct {
	budget     int
	m          map[string]*refEntry
	clock      []string
	count      int
	evictions  int64
	evictScans int64
	victims    []string
}

type refEntry struct {
	sum *summary // nil while gray
	ref bool
}

// lookup is get-or-gray: a resident key is returned (a cached hit sets
// its second-chance bit); a missing key is inserted gray.
func (r *refMemo) lookup(key string) (*summary, bool) {
	if en, ok := r.m[key]; ok {
		if en.sum != nil {
			en.ref = true
		}
		return en.sum, true
	}
	r.m[key] = &refEntry{}
	return nil, false
}

func (r *refMemo) store(key string, sum *summary) {
	r.m[key].sum = sum
	r.clock = append(r.clock, key)
	r.count++
	for r.budget > 0 && r.count > r.budget && len(r.clock) > 0 {
		k := r.clock[0]
		r.clock = r.clock[1:]
		r.evictScans++
		en, ok := r.m[k]
		if !ok || en.sum == nil {
			continue
		}
		if en.ref {
			en.ref = false
			r.clock = append(r.clock, k)
			continue
		}
		delete(r.m, k)
		r.count--
		r.evictions++
		r.victims = append(r.victims, k)
	}
}

func (r *refMemo) drop(key string) { delete(r.m, key) }

// resident returns the keys of the real table's cached entries.
func (t *memoTable) resident() map[string]bool {
	out := make(map[string]bool)
	for id, en := range t.ents {
		if en.sum != nil {
			out[string(t.idx.key(int32(id)))] = true
		}
	}
	return out
}

// TestMemoTableModel drives the memo table and refMemo with the same
// random interleaving of lookups, stores and drops (stores and drops hit
// any pending gray entry, not only the newest), at budgets 0, 1, 8 and
// 100, and demands identical hits, identical victims in identical order,
// and identical evictions and evictScans after every operation. Half the
// keys are long, so evicted keys' arena bytes pile up and compaction
// runs; the arena must stay within twice its live bytes plus the
// compaction floor.
func TestMemoTableModel(t *testing.T) {
	for _, budget := range []int{0, 1, 8, 100} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("budget=%d/seed=%d", budget, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				keys := make([]string, 120)
				for i := range keys {
					keys[i] = fmt.Sprintf("k%d", i)
					if i%2 == 1 {
						keys[i] += strings.Repeat("x", 300+i)
					}
				}
				tbl := newMemoTable(budget, "", nil)
				ref := &refMemo{budget: budget, m: make(map[string]*refEntry)}
				type pending struct {
					key string
					id  int32
				}
				var gray []pending
				var victims []string
				compactions := 0
				for op := 0; op < 4000; op++ {
					before := tbl.resident()
					arenaUsed := tbl.idx.keys.used
					switch x := rng.Intn(10); {
					case x < 6 || len(gray) == 0:
						k := keys[rng.Intn(len(keys))]
						sum, id, found := tbl.lookup([]byte(k))
						rsum, rfound := ref.lookup(k)
						if found != rfound || sum != rsum {
							t.Fatalf("op %d: lookup(%q) = %p,%v; model %p,%v", op, k, sum, found, rsum, rfound)
						}
						if !found {
							gray = append(gray, pending{k, id})
						}
					case x < 9:
						i := rng.Intn(len(gray))
						p := gray[i]
						gray = append(gray[:i], gray[i+1:]...)
						sum := &summary{nodes: int64(op)}
						before[p.key] = true // a store may evict its own entry
						tbl.store(p.id, sum)
						ref.store(p.key, sum)
					default:
						i := rng.Intn(len(gray))
						p := gray[i]
						gray = append(gray[:i], gray[i+1:]...)
						tbl.drop(p.id)
						ref.drop(p.key)
					}
					after := tbl.resident()
					var gone []string
					for k := range before {
						if !after[k] {
							gone = append(gone, k)
						}
					}
					if len(gone) > 1 {
						t.Fatalf("op %d: one operation evicted %d entries", op, len(gone))
					}
					victims = append(victims, gone...)
					if tbl.count != ref.count || len(after) != ref.count {
						t.Fatalf("op %d: count %d (resident %d), model %d", op, tbl.count, len(after), ref.count)
					}
					if tbl.evictions != ref.evictions || tbl.evictScans != ref.evictScans {
						t.Fatalf("op %d: evictions/scans %d/%d, model %d/%d",
							op, tbl.evictions, tbl.evictScans, ref.evictions, ref.evictScans)
					}
					if len(victims) != len(ref.victims) || (len(gone) == 1 && gone[0] != ref.victims[len(ref.victims)-1]) {
						t.Fatalf("op %d: victims %v, model %v", op, gone, ref.victims[len(victims)-len(gone):])
					}
					if a := &tbl.idx.keys; a.used > 2*a.live+compactMin {
						t.Fatalf("op %d: key arena holds %d bytes for %d live", op, a.used, a.live)
					}
					if tbl.idx.keys.used < arenaUsed { // only compaction shrinks it
						compactions++
					}
				}
				if got, want := len(tbl.grayKeys()), len(gray); got != want {
					t.Fatalf("%d gray entries, want %d", got, want)
				}
				if budget > 0 && budget < 100 && (ref.evictions == 0 || compactions == 0) {
					t.Fatalf("budget %d: %d evictions, %d compactions; the run exercised neither", budget, ref.evictions, compactions)
				}
			})
		}
	}
}

// TestKeyIndexWrapAndCompaction drives keyIndex with chosen hashes so
// every probe chain runs off the end of the slot array and wraps: keys
// are inserted, deleted out of order (each deletion shifting later chain
// members back across the wrap) and re-found against a map, and repeated
// delete/insert rounds of long keys force arena compaction.
func TestKeyIndexWrapAndCompaction(t *testing.T) {
	var x keyIndex
	want := make(map[string]int32)
	// 6 keys keep a 16-slot table (load <= 1/2); their hashes all land on
	// the last three slots.
	hashOf := func(k string) uint32 { return uint32(13 + len(k)%3) }
	check := func(stage string) {
		t.Helper()
		if x.n != len(want) {
			t.Fatalf("%s: %d live keys, want %d", stage, x.n, len(want))
		}
		for k, id := range want {
			if got, _ := x.find([]byte(k), hashOf(k)); got != id {
				t.Fatalf("%s: find(%q) = %d, want %d", stage, k, got, id)
			}
		}
	}
	add := func(k string) {
		id, slot := x.find([]byte(k), hashOf(k))
		if id >= 0 {
			t.Fatalf("%q present before insert", k)
		}
		want[k] = x.insert([]byte(k), hashOf(k), slot)
	}
	for _, k := range []string{"a", "bb", "ccc", "dddd", "eeeee", "ffffff"} {
		add(k)
	}
	if len(x.slots) != 16 {
		t.Fatalf("%d slots, want 16", len(x.slots))
	}
	if x.slots[0] == 0 || x.slots[1] == 0 {
		t.Fatalf("no probe chain wrapped: slots %v", x.slots)
	}
	check("inserted")
	for _, k := range []string{"bb", "a", "eeeee"} {
		x.delete(want[k])
		delete(want, k)
		check("deleted " + k)
	}
	add("a")
	add("gg")
	check("reinserted")

	// Compaction: churn long keys through delete/insert until the dead
	// bytes pass the floor; every live key must survive the move.
	compacted := false
	for round := 0; round < 200; round++ {
		k := fmt.Sprintf("%d%s", round, strings.Repeat("z", 500))
		used := x.keys.used
		add(k)
		if round%2 == 0 {
			x.delete(want[k])
			delete(want, k)
		}
		if x.keys.used < used+len(k) { // only compaction shrinks it
			compacted = true
		}
		if a := &x.keys; a.used > 2*a.live+compactMin {
			t.Fatalf("round %d: arena holds %d bytes for %d live", round, a.used, a.live)
		}
	}
	if !compacted {
		t.Fatal("churn never compacted the arena")
	}
	check("after churn")
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
