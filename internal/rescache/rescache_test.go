package rescache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/explore"
	"waitfree/internal/faults"
	"waitfree/internal/program"
	"waitfree/internal/synth"
	"waitfree/internal/types"
)

func consensusSpec(im *program.Implementation, k int) KeySpec {
	return KeySpec{Kind: "consensus", Values: k, Implementation: im}
}

func mustKey(t *testing.T, spec KeySpec) Key {
	t.Helper()
	k, err := RequestKey(spec)
	if err != nil {
		t.Fatalf("RequestKey: %v", err)
	}
	return k
}

func TestRequestKeyDeterministic(t *testing.T) {
	a := mustKey(t, consensusSpec(consensus.CAS(3), 2))
	b := mustKey(t, consensusSpec(consensus.CAS(3), 2))
	if a != b {
		t.Fatal("same request produced different keys")
	}
}

func TestRequestKeySeparates(t *testing.T) {
	base := mustKey(t, consensusSpec(consensus.CAS(3), 2))
	distinct := map[string]Key{
		"other impl":   mustKey(t, consensusSpec(consensus.Sticky(3), 2)),
		"other values": mustKey(t, consensusSpec(consensus.CAS(3), 3)),
		"other kind":   mustKey(t, KeySpec{Kind: "bound", Implementation: consensus.CAS(3)}),
		"other depth budget": mustKey(t, KeySpec{
			Kind: "consensus", Values: 2, Implementation: consensus.CAS(3),
			Explore: explore.Options{MaxDepth: 64},
		}),
		"crash-stop faults": mustKey(t, KeySpec{
			Kind: "consensus", Values: 2, Implementation: consensus.CAS(3),
			Explore: explore.Options{Faults: faults.Model{MaxCrashes: 1}},
		}),
		// Same crash budget, different recovery semantics: a crash-recovery
		// run explores strictly more behavior and must never be served a
		// crash-stop run's cached report (or vice versa).
		"crash-recovery faults": mustKey(t, KeySpec{
			Kind: "consensus", Values: 2, Implementation: consensus.CAS(3),
			Explore: explore.Options{Faults: faults.Model{
				MaxCrashes: 1, Mode: faults.CrashRecovery, MaxRecoveries: 1}},
		}),
		"crash-recovery zero budget": mustKey(t, KeySpec{
			Kind: "consensus", Values: 2, Implementation: consensus.CAS(3),
			Explore: explore.Options{Faults: faults.Model{
				MaxCrashes: 1, Mode: faults.CrashRecovery}},
		}),
	}
	for name, k := range distinct {
		if k == base {
			t.Errorf("%s collided with the base request", name)
		}
	}
	if distinct["crash-recovery faults"] == distinct["crash-stop faults"] ||
		distinct["crash-recovery zero budget"] == distinct["crash-stop faults"] ||
		distinct["crash-recovery faults"] == distinct["crash-recovery zero budget"] {
		t.Error("fault-model variants collided with each other")
	}
}

// Values 0 normalizes to binary; MaxDepth 0 normalizes to the engine
// default — the explicit and defaulted forms are the same request.
func TestRequestKeyNormalizes(t *testing.T) {
	if mustKey(t, consensusSpec(consensus.CAS(3), 0)) != mustKey(t, consensusSpec(consensus.CAS(3), 2)) {
		t.Error("Values 0 and 2 keyed differently")
	}
	deep := consensusSpec(consensus.CAS(3), 2)
	deep.Explore.MaxDepth = explore.DefaultMaxDepth
	if mustKey(t, consensusSpec(consensus.CAS(3), 2)) != mustKey(t, deep) {
		t.Error("MaxDepth 0 and DefaultMaxDepth keyed differently")
	}
}

// Observability and scheduling knobs must not shift the key.
func TestRequestKeyIgnoresObservationalOptions(t *testing.T) {
	base := mustKey(t, consensusSpec(consensus.CAS(3), 2))
	tuned := consensusSpec(consensus.CAS(3), 2)
	tuned.Explore.Parallelism = 8
	tuned.Explore.Symmetry = explore.SymmetryAuto
	tuned.Explore.OnProgress = func(explore.Stats) {}
	tuned.Explore.MaxNodes = 1 << 40
	if mustKey(t, tuned) != base {
		t.Fatal("observational options changed the key")
	}
}

func TestRequestKeyPermutationInvariant(t *testing.T) {
	im := consensus.CAS(3)
	perm := *im
	perm.Machines = []program.Machine{im.Machines[2], im.Machines[0], im.Machines[1]}
	if mustKey(t, consensusSpec(im, 2)) != mustKey(t, consensusSpec(&perm, 2)) {
		t.Fatal("process permutation of a symmetric implementation changed the key")
	}
}

func TestRequestKeyUncacheable(t *testing.T) {
	cases := map[string]explore.Options{
		"resume":     {ResumeFrom: &explore.Checkpoint{}},
		"memobudget": {MemoBudget: 10},
		"onleaf":     {OnLeaf: func(*explore.Leaf) error { return nil }},
		"history":    {RecordHistory: true},
	}
	for name, opts := range cases {
		spec := consensusSpec(consensus.CAS(3), 2)
		spec.Explore = opts
		if _, err := RequestKey(spec); !errors.Is(err, ErrUncacheable) {
			t.Errorf("%s: got %v, want ErrUncacheable", name, err)
		}
	}
}

func TestRequestKeySynthesisAndClassification(t *testing.T) {
	objs := []synth.Object{{
		Name: "sticky", Spec: types.StickyCell(2, 2), Init: types.StickyUnset,
	}}
	s1 := mustKey(t, KeySpec{Kind: "synthesis", Objects: objs, Synthesis: synth.Options{Depth: 2}})
	s2 := mustKey(t, KeySpec{Kind: "synthesis", Objects: objs, Synthesis: synth.Options{Depth: 3}})
	if s1 == s2 {
		t.Error("synthesis depth did not separate keys")
	}
	c1 := mustKey(t, KeySpec{Kind: "classification"})
	c2 := mustKey(t, KeySpec{Kind: "classification"})
	if c1 != c2 {
		t.Error("classification key is not deterministic")
	}
}

func TestCacheMemoryRoundTrip(t *testing.T) {
	c, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, consensusSpec(consensus.CAS(3), 2))
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	report := []byte(`{"kind":"consensus"}`)
	if err := c.Put(key, report); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, report) {
		t.Fatalf("get = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.MemoryHits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheDiskRoundTripAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	key := mustKey(t, consensusSpec(consensus.CAS(3), 2))
	report := []byte(`{"kind":"consensus","ok":true}`)

	c1, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(key, report); err != nil {
		t.Fatalf("put: %v", err)
	}

	c2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok || !bytes.Equal(got, report) {
		t.Fatalf("disk get = %q, %v", got, ok)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The disk hit was promoted: a second Get is a memory hit.
	if _, ok := c2.Get(key); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.MemoryHits != 1 {
		t.Fatalf("stats after promotion = %+v", st)
	}
}

// A corrupted disk entry is a miss, never an error, and is deleted so the
// next store heals it.
func TestCacheCorruptDiskEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	key := mustKey(t, consensusSpec(consensus.CAS(3), 2))
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.Hex()+fileExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the report record itself so not even salvage can save it.
	if err := os.WriteFile(path, bytes.Replace(raw, []byte(`{"ok":true}`), []byte(`{"ok":t!!e}`), 1), 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt entry not deleted: %v", err)
	}
	st := fresh.Stats()
	if st.Misses != 1 || st.Errors == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// A torn trailer leaves the checksummed report record intact; salvage
// serves it as a hit.
func TestCacheSalvagesTornTrailer(t *testing.T) {
	dir := t.TempDir()
	key := mustKey(t, consensusSpec(consensus.CAS(3), 2))
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	report := []byte(`{"ok":true}`)
	if err := c.Put(key, report); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.Hex()+fileExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndex(raw, []byte("\nend "))
	if err := os.WriteFile(path, raw[:cut+5], 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := fresh.Get(key)
	if !ok || !bytes.Equal(got, report) {
		t.Fatalf("salvage get = %q, %v", got, ok)
	}
	if st := fresh.Stats(); st.Errors == 0 {
		t.Fatal("salvage did not count the incident")
	}
}

// A salvaged entry is rewritten in place: the first reader pays for the
// torn trailer once, and every later open decodes a clean envelope.
func TestCacheHealsTornTrailerOnFirstRead(t *testing.T) {
	dir := t.TempDir()
	key := mustKey(t, consensusSpec(consensus.CAS(3), 2))
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	report := []byte(`{"ok":true}`)
	if err := c.Put(key, report); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.Hex()+fileExt)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndex(intact, []byte("\nend "))
	if err := os.WriteFile(path, intact[:cut+5], 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(key); !ok {
		t.Fatal("salvage miss")
	}
	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("healed envelope missing: %v", err)
	}
	if !bytes.Equal(healed, intact) {
		t.Fatalf("healed envelope differs from the original:\n%q\nwant:\n%q", healed, intact)
	}
	// A later process decodes cleanly: a disk hit with no new error.
	later, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := later.Get(key)
	if !ok || !bytes.Equal(got, report) {
		t.Fatalf("post-heal get = %q, %v", got, ok)
	}
	if st := later.Stats(); st.Errors != 0 || st.DiskHits != 1 {
		t.Fatalf("post-heal stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := Open(Options{MemoryBudget: 64})
	if err != nil {
		t.Fatal(err)
	}
	var keys []Key
	for i := 0; i < 4; i++ {
		k := Key{byte(i)}
		keys = append(keys, k)
		if err := c.Put(k, bytes.Repeat([]byte{byte('a' + i)}, 24)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Fatal("oldest entry survived past the budget")
	}
	if _, ok := c.Get(keys[3]); !ok {
		t.Fatal("newest entry evicted")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("no evictions counted")
	}
	// An entry bigger than the whole budget skips memory without evicting
	// what is there.
	if err := c.Put(Key{0xff}, bytes.Repeat([]byte{'x'}, 100)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(keys[3]); !ok {
		t.Fatal("oversized put evicted resident entries")
	}
}

// TestZooKeyMemo pins the once-per-process zoo encoding to a fresh
// tabulation, so the classification key cannot go stale inside a process.
func TestZooKeyMemo(t *testing.T) {
	fresh, err := encodeZoo(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := appendZoo([]byte("p"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "p"+string(fresh) {
			t.Fatalf("call %d: memoized zoo encoding differs from a fresh one", i)
		}
	}
}
