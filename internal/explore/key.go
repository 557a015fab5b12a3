package explore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"reflect"
	"sort"

	"waitfree/internal/fsx"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// This file implements the explorer's configuration keys and memo table.
//
// A configuration (object states + per-process control states) must be
// rendered into a map key once per DFS node. The explorer encodes each
// component once, when it changes, into a segment, interns the segment's
// bytes into a dense id (segIdx), and assembles the key as the fixed-width
// tuple of the components' ids (flatKey, arena.go): 4 bytes per component
// however large its state, so hashing, comparing and storing a key costs
// the same for every protocol of a given size. The segment bytes stay in
// the segment table, which renders a configuration's bytes on demand
// (appendConfigBytes) for the panic breadcrumb and the stall heartbeat.
// The rendering used to be fmt.Sprintf("%#v|%#v", ...), which spends most
// of its time in fmt's reflection-based formatter; profiles of memoized
// runs showed the key rendering dominating the exploration itself. The
// encoder below writes the same information into a reused byte buffer
// with hand-rolled fast paths for the framework's own value types (ints,
// strings, Response, Invocation, Action) and a single reflection walk for
// user-defined machine/object states, interning their reflect.Types into
// small ids.
//
// Keys only need to be injective and stable within one explorer: type-id
// interning is per-encoder and segment-id interning per segment table, so
// encounter order cannot differ between two encodings of equal configs.
// Keys from different explorers are not comparable, which is why every
// key a run renders — memo key, panic breadcrumb, stall heartbeat — comes
// from the segments of the explorer's one encoder and one segment table.
// The memo table still lives for a single execution tree — memo hits skip
// the per-leaf checks, and validity depends on the tree's proposal vector
// — but the per-tree restriction no longer caps deduplication across
// symmetric trees: the symmetry layer (symmetry.go) goes further than
// sharing a table across the orbit of a proposal vector's permutations,
// skipping the member trees outright and replaying the representative's
// outcome, with canonKey certifying at the roots that the orbit really is
// one tree up to process renaming.

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

// keyEncoder renders configuration components into compact deterministic
// byte segments, which the explorer interns into segment ids. buf is the
// reused buffer flatKey assembles memo keys (id tuples) in. Not safe for
// concurrent use; each explorer owns one.
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
// allocated (unlike flatKey's reused buffer) and survives later calls.
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

// ---- byte-keyed index ----

// keySeed seeds every keyIndex hash. Hash values decide slot placement
// only, never iteration or eviction order, so a per-process random seed
// cannot leak into a report.
var keySeed = maphash.MakeSeed()

// keyIndex maps byte keys to dense int32 ids: open addressing with linear
// probing over a slot array of ids, the keys themselves copied into a
// chunked byte arena. Its slots, records and key bytes hold no pointers,
// so the garbage collector never scans them, and a lookup neither
// converts the key to a string nor hashes it twice: callers hash once
// (hash), probe once (find), and on a miss insert at the slot the probe
// ended on. Deletion shifts later probe-chain members back into the hole,
// so there are no tombstones; freed ids are reused, and the arena bytes of
// deleted keys are reclaimed by compaction once they outweigh the live
// ones.
//
// The zero value is an empty index. Not safe for concurrent use: every
// index belongs to one explorer.
type keyIndex struct {
	slots []int32  // id+1 per slot, 0 when empty; len is a power of two
	recs  []keyRec // per id
	free  []int32  // ids of deleted keys, reused last-in first-out
	n     int      // live keys
	keys  keyArena
}

// keyRec locates one id's key: its hash and its bytes in the arena.
// chunk is deadChunk while the id is free. 32 hash bits address any slot
// array that fits in memory and keep the record at 16 bytes.
type keyRec struct {
	hash  uint32
	chunk uint32
	off   uint32
	len   uint32
}

const deadChunk = math.MaxUint32

// hash returns the index hash of key.
func (x *keyIndex) hash(key []byte) uint32 { return uint32(maphash.Bytes(keySeed, key)) }

// find probes for key (with hash h). It returns key's id, or -1 and the
// empty slot where insert can place it.
func (x *keyIndex) find(key []byte, h uint32) (id int32, slot int) {
	if len(x.slots) == 0 {
		return -1, -1
	}
	mask := len(x.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return -1, i
		}
		if r := &x.recs[s-1]; r.hash == h && string(x.keys.bytes(r)) == string(key) {
			return s - 1, i
		}
	}
}

// insert adds key (absent, with hash h) at slot, the empty slot its find
// returned, and returns its new id: a freed id if there is one, else the
// next dense id.
func (x *keyIndex) insert(key []byte, h uint32, slot int) int32 {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
		slot = x.emptySlot(h)
	}
	var id int32
	if n := len(x.free); n > 0 {
		id = x.free[n-1]
		x.free = x.free[:n-1]
	} else {
		id = int32(len(x.recs))
		x.recs = append(x.recs, keyRec{})
	}
	chunk, off := x.keys.add(key)
	x.recs[id] = keyRec{hash: h, chunk: chunk, off: off, len: uint32(len(key))}
	x.slots[slot] = id + 1
	x.n++
	return id
}

// emptySlot returns the first empty slot of h's probe chain.
func (x *keyIndex) emptySlot(h uint32) int {
	mask := len(x.slots) - 1
	i := int(h) & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the slot array (keeping the load at most one half) and
// re-places every live id by its stored hash.
func (x *keyIndex) grow() {
	n := 2 * len(x.slots)
	if n == 0 {
		n = 16
	}
	x.slots = make([]int32, n)
	for id := range x.recs {
		if r := &x.recs[id]; r.chunk != deadChunk {
			x.slots[x.emptySlot(r.hash)] = int32(id) + 1
		}
	}
}

// key returns the bytes of a live id's key; valid until the next delete.
func (x *keyIndex) key(id int32) []byte { return x.keys.bytes(&x.recs[id]) }

// delete removes a live id. Later members of its probe chain shift back
// into the hole, so every remaining key stays reachable from its home
// slot without tombstones.
func (x *keyIndex) delete(id int32) {
	r := &x.recs[id]
	mask := len(x.slots) - 1
	i := int(r.hash) & mask
	for x.slots[i] != id+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		// The id at j may fill the hole at i unless its home lies
		// cyclically within (i, j].
		home := int(x.recs[x.slots[j]-1].hash) & mask
		if (j-home)&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = 0
	x.keys.live -= int(r.len)
	*r = keyRec{chunk: deadChunk}
	x.free = append(x.free, id)
	x.n--
	if dead := x.keys.used - x.keys.live; dead > x.keys.live && dead >= compactMin {
		x.compact()
	}
}

// compactMin is the dead-byte floor below which compaction is not worth
// a pass: small tables just keep their garbage. It is one minimum chunk:
// memo keys are short id tuples (segIDBytes per component), so a higher
// floor would let a budgeted table's dead keys outgrow an unbounded
// table's live ones. Compaction still runs only once the dead bytes
// exceed the live ones, so its cost stays amortized O(1) per deleted
// byte.
const compactMin = keyChunkMin

// compact copies every live key, in id order, into a fresh arena and
// drops the old chunks, so the arena holds at most about twice the live
// key bytes. Each pass costs at most the dead bytes that triggered it,
// so compaction is amortized O(1) per deleted byte.
func (x *keyIndex) compact() {
	old := x.keys
	x.keys = keyArena{next: old.next}
	for id := range x.recs {
		r := &x.recs[id]
		if r.chunk == deadChunk {
			continue
		}
		r.chunk, r.off = x.keys.add(old.bytes(r))
	}
}

// keyArena stores keys in byte chunks addressed by (chunk, offset). Chunk
// sizes double from keyChunkMin to keyChunkMax, so a small tree's index
// stays small, and a full chunk is never copied: growth allocates the
// next chunk and leaves the earlier ones in place. A key never straddles
// chunks; one longer than keyChunkMax gets a chunk of its own size.
type keyArena struct {
	chunks [][]byte
	next   int // size of the next chunk
	live   int // bytes of live keys
	used   int // bytes stored, live or dead
}

const (
	keyChunkMin = 1024
	keyChunkMax = 64 * 1024
)

// add appends key and returns where it went.
func (a *keyArena) add(key []byte) (chunk, off uint32) {
	last := len(a.chunks) - 1
	if last < 0 || cap(a.chunks[last])-len(a.chunks[last]) < len(key) {
		size := a.next
		if size < keyChunkMin {
			size = keyChunkMin
		}
		if size < keyChunkMax {
			a.next = 2 * size
		}
		if size < len(key) {
			size = len(key)
		}
		a.chunks = append(a.chunks, make([]byte, 0, size))
		last++
	}
	c := a.chunks[last]
	a.chunks[last] = append(c, key...)
	a.live += len(key)
	a.used += len(key)
	return uint32(last), uint32(len(c))
}

func (a *keyArena) bytes(r *keyRec) []byte {
	return a.chunks[r.chunk][r.off : r.off+r.len : r.off+r.len]
}

// ---- memo table ----

// memoTable is the configuration memo of one execution tree. It is built
// in explorer.explore and touched only by the explorer that owns it, on
// that explorer's goroutine, so it takes no locks and uses no atomics.
//
// Each configuration the DFS enters costs one hash and one probe: lookup
// either finds the configuration — a cached subtree summary (a memo hit)
// or a gray entry (the configuration is on the current DFS stack: a
// cycle) — or inserts it gray and returns its entry id. When the subtree
// finishes, store turns the gray entry into a cached summary through that
// id, or drop removes it if the subtree erred; neither hashes or probes.
// Gray entries detect cycles exactly at any budget.
//
// A positive budget caps the number of cached entries. Gray entries never
// count toward it and are never evicted. When a store would exceed the
// budget, entries are reclaimed one at a time in insertion order with a
// second chance: the clock ring holds (entry id, generation) pairs in
// insertion order, and an entry whose ref bit was set by a hit since its
// last consideration is requeued instead of dropped. Eviction is
// amortized O(1) per insert, never a full-table scan, and it depends only
// on the sequence of lookups and stores, not on hash placement, so
// budgeted reports are the same at every parallelism level. Evicted keys'
// arena bytes are reclaimed by compaction, so a budgeted table's memory
// stays bounded by the budget and the DFS depth.
//
// With a spill tier (Options.MemoSpillDir) evicted entries move to a
// checksummed disk file instead of being forgotten, and a later lookup
// serves them back — the budget then trades memory for disk, MemoHits
// match the unbounded run, and the table never degrades. Without one,
// eviction loses memo hits and the table is flagged degraded.
type memoTable struct {
	idx    keyIndex
	ents   []memoEntry // per keyIndex id
	budget int
	count  int // resident cached (non-gray) entries

	// clock is the second-chance queue, kept only under a budget.
	clock clockRing

	spill    *memoSpill // nil when spill is off
	degraded bool

	// Eviction telemetry, exported via Stats and pinned by the
	// no-evict-storm regression test: evictions counts entries actually
	// reclaimed, evictScans counts clock entries examined (eviction work),
	// spilled counts entries written to the spill tier.
	evictions  int64
	evictScans int64
	spilled    int64
}

// memoEntry is one configuration's memo state. sum is nil while the
// entry is gray. gen counts the reuses of the entry's id, so a clock
// reference to an earlier occupant is recognized as stale. ref is the
// second-chance bit a hit sets and eviction clears; spilled marks an
// entry reloaded from the spill tier, whose record is already on disk
// and is never rewritten when it is evicted again.
type memoEntry struct {
	sum     *summary
	gen     uint32
	ref     bool
	spilled bool
}

func newMemoTable(budget int, spillDir string, fsys fsx.FS) *memoTable {
	t := &memoTable{budget: budget}
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
	return t.degraded || (t.spill != nil && t.spill.lost)
}

// keyBytes is the size of the table's key arena: the keys of gray and
// cached entries, plus evicted keys not yet reclaimed.
func (t *memoTable) keyBytes() int { return t.idx.keys.used }

// release tears the table down at tree completion, deleting the spill file
// if one was created.
func (t *memoTable) release() {
	if t.spill != nil {
		t.spill.close()
	}
}

// lookup is the fused get-or-gray probe. If key is resident it returns
// the entry's summary (nil for a gray entry) with found set, and a hit on
// a cached entry sets its second-chance bit. On a resident miss the spill
// tier is consulted; a spilled summary is re-admitted as a cached entry
// (possibly evicting another) and served, still a hit. Otherwise key is
// inserted gray and its entry id returned for the matching store or drop.
func (t *memoTable) lookup(key []byte) (sum *summary, id int32, found bool) {
	h := t.idx.hash(key)
	id, slot := t.idx.find(key, h)
	if id >= 0 {
		en := &t.ents[id]
		if en.sum != nil {
			en.ref = true
		}
		return en.sum, id, true
	}
	if t.spill != nil {
		if sum, ok := t.spill.load(key); ok {
			id = t.insert(key, h, slot)
			t.ents[id].spilled = true
			t.store(id, sum)
			return sum, id, true
		}
	}
	return nil, t.insert(key, h, slot), false
}

// insert adds key as a gray entry.
func (t *memoTable) insert(key []byte, h uint32, slot int) int32 {
	id := t.idx.insert(key, h, slot)
	if int(id) == len(t.ents) {
		t.ents = append(t.ents, memoEntry{})
	}
	return id
}

// store caches sum in the gray entry id. The new cached entry joins the
// clock and may push the table over budget, triggering eviction — which
// can evict this very entry if every older one has its second chance.
func (t *memoTable) store(id int32, sum *summary) {
	// The memo owns the summary from here on: the explorer's free list
	// must never recycle it (a later hit would observe the reuse).
	sum.retained = true
	en := &t.ents[id]
	en.sum = sum
	t.count++
	if t.budget > 0 {
		t.clock.push(clockRef{id: id, gen: en.gen})
		if t.count > t.budget {
			t.evict()
		}
	}
}

// drop frees entry id and its key: a gray entry whose subtree erred, or
// an evicted one. The bumped generation marks any clock reference to the
// entry stale.
func (t *memoTable) drop(id int32) {
	t.idx.delete(id)
	t.ents[id] = memoEntry{gen: t.ents[id].gen + 1}
}

// evict reclaims cached entries until the resident count is back within
// budget: pop the oldest clock reference; skip it if stale, requeue it if
// its second-chance bit is set, spill or forget it otherwise. Each pop
// either retires a clock reference or clears a ref bit a hit set, so
// eviction work is amortized O(1) per insert — the no-evict-storm
// guarantee.
func (t *memoTable) evict() {
	for t.count > t.budget {
		ref, ok := t.clock.pop()
		if !ok {
			return
		}
		t.evictScans++
		en := &t.ents[ref.id]
		if en.gen != ref.gen || en.sum == nil {
			continue // stale reference
		}
		if en.ref {
			en.ref = false
			t.clock.push(ref)
			continue // second chance
		}
		sum, onDisk := en.sum, en.spilled
		var key string
		if t.spill != nil && !onDisk {
			key = string(t.idx.key(ref.id))
		}
		t.drop(ref.id)
		t.count--
		t.evictions++
		if t.spill != nil {
			if onDisk || t.spill.store(key, sum) {
				t.spilled++
				continue
			}
			// Spill write failed: the entry is lost after all, so the run
			// degrades exactly as it would without a spill tier.
		}
		t.degraded = true
	}
}

// grayKeys returns the keys currently marked on-stack (test hook: after a
// run no gray marks may survive, or a later exploration reusing the table
// would report a phantom cycle).
func (t *memoTable) grayKeys() []string {
	var out []string
	for id, en := range t.ents {
		if en.sum == nil && t.idx.recs[id].chunk != deadChunk {
			out = append(out, string(t.idx.key(int32(id))))
		}
	}
	return out
}

// clockRef names a cached entry as the clock saw it.
type clockRef struct {
	id  int32
	gen uint32
}

// clockRing is a FIFO of clock references in a power-of-two circular
// buffer that doubles when full.
type clockRing struct {
	buf  []clockRef
	head int
	n    int
}

func (r *clockRing) push(c clockRef) {
	if r.n == len(r.buf) {
		size := 2 * len(r.buf)
		if size == 0 {
			size = 16
		}
		buf := make([]clockRef, size)
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = c
	r.n++
}

func (r *clockRing) pop() (clockRef, bool) {
	if r.n == 0 {
		return clockRef{}, false
	}
	c := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return c, true
}
