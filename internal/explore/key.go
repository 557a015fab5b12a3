package explore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"waitfree/internal/fsx"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// This file implements the explorer's configuration keys and memo table.
//
// A configuration (object states + per-process control states) must be
// rendered into a map key once per DFS node. The
// rendering used to be fmt.Sprintf("%#v|%#v", ...), which spends most of
// its time in fmt's reflection-based formatter; profiles of memoized runs
// showed the key rendering dominating the exploration itself. The encoder
// below writes the same information into a reused byte buffer with
// hand-rolled fast paths for the framework's own value types (ints,
// strings, Response, Invocation, Action) and a single reflection walk for
// user-defined machine/object states, interning their reflect.Types into
// small ids.
//
// Keys only need to be injective and stable within one encoder: type-id
// interning is per-encoder, so encounter order cannot differ between two
// encodings of equal configs. The memo table still lives for a single
// execution tree — memo hits skip the per-leaf checks, and validity
// depends on the tree's proposal vector — but the per-tree restriction no
// longer caps deduplication across symmetric trees: the symmetry layer
// (symmetry.go) goes further than sharing a table across the orbit of a
// proposal vector's permutations, skipping the member trees outright and
// replaying the representative's outcome, with canonKey certifying at the
// roots that the orbit really is one tree up to process renaming.

// Key tags. Every encoded value starts with a tag byte so that values of
// different shapes can never collide byte-wise (e.g. int 1 vs true vs "1").
const (
	tagNil byte = iota
	tagFalse
	tagTrue
	tagInt
	tagString
	tagResponse
	tagInvocation
	tagAction
	tagProc
	tagSep
	tagReflect
	tagFloat
	tagFmt
	tagMap
)

// keyEncoder renders configurations into compact deterministic byte keys.
// Not safe for concurrent use; each explorer owns one.
type keyEncoder struct {
	buf     []byte
	typeIDs map[reflect.Type]uint64
}

func newKeyEncoder() *keyEncoder {
	return &keyEncoder{
		buf:     make([]byte, 0, 256),
		typeIDs: make(map[reflect.Type]uint64),
	}
}

// configKey encodes c into the encoder's reused buffer and returns it. The
// returned slice is invalidated by the next configKey call; callers that
// need to retain the key must copy it (string(key)).
func (e *keyEncoder) configKey(c *config) []byte {
	b := e.buf[:0]
	for i := range c.objs {
		b = e.appendAny(b, c.objs[i])
	}
	b = append(b, tagSep)
	for i := range c.procs {
		b = e.appendProc(b, &c.procs[i])
	}
	e.buf = b
	return b
}

// appendProc encodes one process's control state.
func (e *keyEncoder) appendProc(b []byte, ps *procState) []byte {
	b = append(b, tagProc)
	b = binary.AppendVarint(b, int64(ps.OpIdx))
	if ps.Done {
		b = append(b, tagTrue)
	} else {
		b = append(b, tagFalse)
	}
	// Crash/step flags are configuration state under fault exploration:
	// leaf checks depend on which processes survived, so configurations
	// differing only in them must never be conflated.
	if ps.Crashed {
		b = append(b, tagTrue)
	} else {
		b = append(b, tagFalse)
	}
	if ps.Stepped {
		b = append(b, tagTrue)
	} else {
		b = append(b, tagFalse)
	}
	// The recovery count is encoded unconditionally: it is constantly 0
	// outside crash-recovery mode (one varint byte, no fragmentation), and
	// under crash-recovery it keeps the budget predicates config-derivable
	// and makes recovery edges cycle-free by construction.
	b = binary.AppendVarint(b, int64(ps.Recoveries))
	b = e.appendAny(b, ps.Mem)
	b = e.appendAny(b, ps.Mst)
	b = e.appendAction(b, ps.Pending)
	return appendResponse(b, ps.Resp)
}

// canonKey encodes c up to process permutation: the object states
// positionally (a process permutation of a fully ported oblivious
// implementation fixes every object slot), then the per-process encodings
// in sorted byte order. Configurations that differ only by a renaming of
// behaviorally identical processes therefore share a canonical key — the
// certificate verifyOrbitRoots checks before symmetry reduction trusts a
// declared SymmetricProcs. Off the memo hot path, so the key is freshly
// allocated (unlike configKey's reused buffer) and survives later calls.
// perm lists the processes in canonical order (perm[i] occupies slot i);
// equal encodings tie-break by index, keeping the order deterministic.
func (e *keyEncoder) canonKey(c *config) (key []byte, perm []int) {
	encs := make([][]byte, len(c.procs))
	for p := range c.procs {
		encs[p] = e.appendProc(nil, &c.procs[p])
	}
	perm = make([]int, len(c.procs))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool {
		if cmp := bytes.Compare(encs[perm[i]], encs[perm[j]]); cmp != 0 {
			return cmp < 0
		}
		return perm[i] < perm[j]
	})
	for i := range c.objs {
		key = e.appendAny(key, c.objs[i])
	}
	key = append(key, tagSep)
	for _, p := range perm {
		key = append(key, encs[p]...)
	}
	return key, perm
}

func appendResponse(b []byte, r types.Response) []byte {
	b = append(b, tagResponse)
	b = binary.AppendUvarint(b, uint64(len(r.Label)))
	b = append(b, r.Label...)
	return binary.AppendVarint(b, int64(r.Val))
}

func appendInvocation(b []byte, inv types.Invocation) []byte {
	b = append(b, tagInvocation)
	b = binary.AppendUvarint(b, uint64(len(inv.Op)))
	b = append(b, inv.Op...)
	b = binary.AppendVarint(b, int64(inv.A))
	return binary.AppendVarint(b, int64(inv.B))
}

func (e *keyEncoder) appendAction(b []byte, a program.Action) []byte {
	b = append(b, tagAction)
	b = binary.AppendVarint(b, int64(a.Kind))
	b = binary.AppendVarint(b, int64(a.Obj))
	b = appendInvocation(b, a.Inv)
	b = appendResponse(b, a.Resp)
	return e.appendAny(b, a.Mem)
}

// appendAny encodes one object state, machine state, or memory value. The
// type switch covers the values the framework itself produces; everything
// else takes the reflection path. Note that the fast paths match exact
// types only (a named `type foo int` falls through to reflection and gets
// its own type id), so distinct types never share an encoding.
func (e *keyEncoder) appendAny(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil)
	case bool:
		if x {
			return append(b, tagTrue)
		}
		return append(b, tagFalse)
	case int:
		b = append(b, tagInt)
		return binary.AppendVarint(b, int64(x))
	case string:
		b = append(b, tagString)
		b = binary.AppendUvarint(b, uint64(len(x)))
		return append(b, x...)
	case types.Response:
		return appendResponse(b, x)
	case types.Invocation:
		return appendInvocation(b, x)
	default:
		return e.appendReflect(b, reflect.ValueOf(v))
	}
}

// appendReflect encodes a value of a type without a fast path: an interned
// type id followed by the value's fields, recursively.
func (e *keyEncoder) appendReflect(b []byte, rv reflect.Value) []byte {
	b = append(b, tagReflect)
	t := rv.Type()
	id, ok := e.typeIDs[t]
	if !ok {
		id = uint64(len(e.typeIDs) + 1)
		e.typeIDs[t] = id
	}
	b = binary.AppendUvarint(b, id)
	return e.appendValue(b, rv)
}

func (e *keyEncoder) appendValue(b []byte, rv reflect.Value) []byte {
	switch rv.Kind() {
	case reflect.Bool:
		if rv.Bool() {
			return append(b, tagTrue)
		}
		return append(b, tagFalse)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, rv.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.AppendUvarint(b, rv.Uint())
	case reflect.Float32, reflect.Float64:
		b = append(b, tagFloat)
		return binary.AppendUvarint(b, math.Float64bits(rv.Float()))
	case reflect.String:
		s := rv.String()
		b = append(b, tagString)
		b = binary.AppendUvarint(b, uint64(len(s)))
		return append(b, s...)
	case reflect.Struct:
		// Fields are tagged with their index implicitly by position; the
		// struct's type id already pins the field count and types.
		for i := 0; i < rv.NumField(); i++ {
			b = e.appendValue(b, rv.Field(i))
		}
		return b
	case reflect.Array:
		for i := 0; i < rv.Len(); i++ {
			b = e.appendValue(b, rv.Index(i))
		}
		return b
	case reflect.Interface:
		if rv.IsNil() {
			return append(b, tagNil)
		}
		return e.appendReflect(b, rv.Elem())
	case reflect.Map:
		// Map iteration order is randomized, so entries are encoded
		// individually and sorted by their encoded bytes — distinct keys
		// have distinct self-delimiting encodings, so this is equivalent to
		// sorting by key and the rendering is deterministic. The historical
		// tagFmt fallback left determinism to fmt's key sorting, which does
		// not cover every key type and ties the key format to fmt internals.
		if rv.IsNil() {
			return append(b, tagNil)
		}
		b = append(b, tagMap)
		b = binary.AppendUvarint(b, uint64(rv.Len()))
		entries := make([][]byte, 0, rv.Len())
		iter := rv.MapRange()
		for iter.Next() {
			eb := e.appendReflect(nil, iter.Key())
			eb = e.appendReflect(eb, iter.Value())
			entries = append(entries, eb)
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i], entries[j]) < 0 })
		for _, eb := range entries {
			b = append(b, eb...)
		}
		return b
	default:
		// States are documented as pointer-free comparable values, so this
		// branch is unreachable for well-formed types. Keep correctness for
		// strays (pointers, chans) by falling back to the fmt rendering the
		// explorer used historically. fmt replaces a reflect.Value operand
		// by the value it holds, so this works for unexported fields too.
		b = append(b, tagFmt)
		return fmt.Appendf(b, "%#v", rv)
	}
}

// ---- memo table ----

// memoShardCount is a power of two; 16 shards keep lock contention
// negligible even when a future intra-tree parallel explorer shares one
// table.
const memoShardCount = 16

// grayMark is the sentinel stored while a configuration is on the current
// DFS stack; encountering it again along one path is a cycle (the
// implementation is not wait-free). The single table replaces the two maps
// (memo + color) the explorer used to allocate.
var grayMark = &summary{}

// memoTable is the configuration memo: a byte-keyed hash map sharded by a
// maphash of the key. Shards lock independently, so a table is safe for
// concurrent explorers; the current explorer uses one table per execution
// tree single-threadedly, where the uncontended locks are nearly free.
//
// A positive budget caps the number of retained cached entries. Gray marks
// are the DFS stack: they never count toward the budget and are never
// evicted, so cycle detection stays exact at any budget. When an insert
// would exceed the budget, entries are reclaimed one at a time in
// insertion order with a second chance (an entry whose ref bit was set by
// a hit since its last consideration is requeued instead of dropped) —
// amortized O(1) per insert, never a full-table scan. Eviction order
// depends only on the put/get sequence, not on hash placement, so a
// single-threaded exploration evicts deterministically and budgeted
// reports stay identical at every parallelism level.
//
// With a spill tier (Options.MemoSpillDir) evicted entries move to a
// checksummed disk file instead of being forgotten, and a later get serves
// them back — the budget then trades memory for disk, MemoHits match the
// unbounded run, and the table never degrades. Without one, eviction loses
// memo hits and the table is flagged degraded.
//
// The count of cached (non-gray) entries is exact under concurrency: every
// transition mutates its shard under the shard lock and adjusts the count
// by the delta it observed — there is no blind Store to race a concurrent
// Add.
type memoTable struct {
	seed     maphash.Seed
	budget   int
	count    atomic.Int64 // resident cached (non-gray) entries
	degraded atomic.Bool
	shards   [memoShardCount]memoShard

	// clock is the second-chance queue: retained keys in insertion order,
	// consumed from clockHead. Entries dropped or re-grayed out of band
	// leave stale references behind, skipped (and accounted as scans) when
	// popped.
	clockMu   sync.Mutex
	clock     []string
	clockHead int

	spill *memoSpill // nil when spill is off

	// Eviction telemetry, exported via Stats and pinned by the
	// no-evict-storm regression test: evictions counts entries actually
	// reclaimed, evictScans counts clock entries examined (eviction work),
	// spilled counts entries written to the spill tier.
	evictions  atomic.Int64
	evictScans atomic.Int64
	spilled    atomic.Int64
}

type memoShard struct {
	mu sync.Mutex
	m  map[string]*summary
}

func newMemoTable(budget int, spillDir string, fsys fsx.FS) *memoTable {
	t := &memoTable{seed: maphash.MakeSeed(), budget: budget}
	for i := range t.shards {
		t.shards[i].m = make(map[string]*summary)
	}
	if spillDir != "" && budget > 0 {
		t.spill = newMemoSpill(spillDir, fsys)
	}
	return t
}

// isDegraded reports whether this tree's memo lost entries for good:
// either an eviction fell through with no (working) spill tier, or the
// spill tier itself lost spilled entries (a rebuild, a dropped corrupt
// record, or a broken tier).
func (t *memoTable) isDegraded() bool {
	return t.degraded.Load() || (t.spill != nil && t.spill.lost)
}

// release tears the table down at tree completion, deleting the spill file
// if one was created.
func (t *memoTable) release() {
	if t.spill != nil {
		t.spill.close()
	}
}

func (t *memoTable) shardOf(key []byte) *memoShard {
	h := maphash.Bytes(t.seed, key)
	return &t.shards[h&(memoShardCount-1)]
}

// get looks a key up without allocating on the resident path (the string
// conversion in the map index is optimized away by the compiler). A hit
// sets the entry's second-chance bit. On a resident miss the spill tier is
// consulted; a spilled summary is decoded, re-admitted as a resident entry
// (possibly evicting another), and served — still a memo hit.
func (t *memoTable) get(key []byte) (*summary, bool) {
	s := t.shardOf(key)
	s.mu.Lock()
	v, ok := s.m[string(key)]
	if ok && v != grayMark {
		v.ref = true
	}
	s.mu.Unlock()
	if ok {
		return v, ok
	}
	if t.spill != nil {
		if sum, ok := t.spill.load(key); ok {
			sum.spilled = true // already on disk; never rewrite on re-evict
			t.put(string(key), sum)
			return sum, true
		}
	}
	return nil, false
}

// put stores sum under a retained (string) key. Only a put that adds a new
// cached (non-gray) entry counts toward the budget and can trigger
// eviction; replacing an existing cached entry reuses its budget slot and
// its clock position.
func (t *memoTable) put(key string, sum *summary) {
	if sum != grayMark {
		// The memo owns the summary from here on: the explorer's free list
		// must never recycle it (a later hit would observe the reuse).
		sum.retained = true
	}
	s := &t.shards[maphash.String(t.seed, key)&(memoShardCount-1)]
	s.mu.Lock()
	old, existed := s.m[key]
	s.m[key] = sum
	s.mu.Unlock()
	wasCached := existed && old != grayMark
	if sum == grayMark {
		// (Re-)graying a key: gray marks hold no budget slot. The cached
		// entry it replaced, if any, leaves a stale clock reference behind.
		if wasCached {
			t.count.Add(-1)
		}
		return
	}
	if wasCached {
		return // replacement: same slot, same clock position
	}
	t.clockMu.Lock()
	t.clock = append(t.clock, key)
	t.clockMu.Unlock()
	if n := t.count.Add(1); t.budget > 0 && n > int64(t.budget) {
		t.evict()
	}
}

// evict reclaims cached entries until the resident count is back within
// budget: pop the oldest clock reference; skip it if stale (dropped or
// re-grayed since), requeue it if its second-chance bit is set, spill or
// forget it otherwise. Each pop either retires a clock reference or clears
// a ref bit a hit set, so eviction work is amortized O(1) per insert —
// the no-evict-storm guarantee.
func (t *memoTable) evict() {
	for t.count.Load() > int64(t.budget) {
		t.clockMu.Lock()
		if t.clockHead >= len(t.clock) {
			t.clockMu.Unlock()
			return // every resident entry is gray-shadowed or in flight
		}
		key := t.clock[t.clockHead]
		t.clock[t.clockHead] = ""
		t.clockHead++
		if t.clockHead >= len(t.clock) {
			t.clock = t.clock[:0]
			t.clockHead = 0
		}
		t.clockMu.Unlock()
		t.evictScans.Add(1)

		s := &t.shards[maphash.String(t.seed, key)&(memoShardCount-1)]
		s.mu.Lock()
		v, ok := s.m[key]
		if !ok || v == grayMark {
			s.mu.Unlock()
			continue // stale reference
		}
		if v.ref {
			v.ref = false
			s.mu.Unlock()
			t.clockMu.Lock()
			t.clock = append(t.clock, key)
			t.clockMu.Unlock()
			continue // second chance
		}
		delete(s.m, key)
		s.mu.Unlock()
		t.count.Add(-1)
		t.evictions.Add(1)
		if t.spill != nil {
			if v.spilled || t.spill.store(key, v) {
				t.spilled.Add(1)
				continue
			}
			// Spill write failed: the entry is lost after all, so the run
			// degrades exactly as it would without a spill tier.
		}
		t.degraded.Store(true)
	}
}

// drop removes a key (used to clear the gray mark when a subtree errors).
func (t *memoTable) drop(key string) {
	s := &t.shards[maphash.String(t.seed, key)&(memoShardCount-1)]
	s.mu.Lock()
	v, existed := s.m[key]
	delete(s.m, key)
	s.mu.Unlock()
	if existed && v != grayMark {
		t.count.Add(-1)
	}
}

// grayKeys returns the keys currently marked on-stack (test hook: after a
// run no gray marks may survive, or a later exploration reusing the table
// would report a phantom cycle).
func (t *memoTable) grayKeys() []string {
	var out []string
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for k, v := range s.m {
			if v == grayMark {
				out = append(out, k)
			}
		}
		s.mu.Unlock()
	}
	return out
}
