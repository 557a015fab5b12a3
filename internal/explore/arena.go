package explore

import (
	"encoding/binary"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// This file implements the hot path's allocation machinery: dense interned
// access-counter ids, dense interned configuration-segment ids, slab
// arenas for summary records and their counter slices, and a free list for
// the summaries that are not retained by the memo. Together with in-place
// stepping (every edge mutates the one configuration and restores it, so
// no edge clones) they take the per-node allocation count from ~8
// (summary + counter map + three clone slices + key string + map growth)
// to amortized fractions of one: slabs are handed out in large chunks,
// non-retained summaries are recycled immediately after their merge, and
// whole arenas die with the tree instead of feeding the GC one node at a
// time.

// accTable interns accKeys (per-object totals, per-(object, op) counters,
// per-process step counters) into dense int32 ids, replacing the per-node
// map[accKey]int the old summaries carried. Ids are assigned in
// first-encounter order; reports never depend on the order because Result
// conversion maps ids back through keys.
type accTable struct {
	ids  map[accKey]int32
	keys []accKey
}

func newAccTable() *accTable {
	return &accTable{ids: make(map[accKey]int32)}
}

// id interns k, growing the table on first encounter.
func (a *accTable) id(k accKey) int32 {
	id, ok := a.ids[k]
	if !ok {
		id = int32(len(a.keys))
		a.ids[k] = id
		a.keys = append(a.keys, k)
	}
	return id
}

// Slab sizes: summaries are handed out in chunks of up to sumSlab, and
// counter slices carved from int32 chunks of up to accSlab. Chunks start
// small and double per refill — explorers are per-tree, and most trees in
// a consensus sweep are small, so fixed maximal slabs would dominate a
// small tree's footprint. Exhausted chunks are abandoned to the GC
// wholesale when the summaries referencing them die — at the latest when
// the tree completes and the explorer itself is dropped.
const (
	sumSlab = 512
	accSlab = 16 * 1024
)

// summaryArena hands out summary records and int32 counter slices from
// slab chunks. The zero value is ready to use.
type summaryArena struct {
	sums     []summary
	acc      []int32
	sumChunk int
	accChunk int
}

func (a *summaryArena) newSummary() *summary {
	if len(a.sums) == 0 {
		n := a.sumChunk * 2
		if n == 0 {
			n = 32
		}
		if n > sumSlab {
			n = sumSlab
		}
		a.sumChunk = n
		a.sums = make([]summary, n)
	}
	s := &a.sums[0]
	a.sums = a.sums[1:]
	return s
}

// allocAcc returns a zeroed int32 slice of length n with no spare
// capacity, so appends by a confused caller can never alias a neighbor.
func (a *summaryArena) allocAcc(n int) []int32 {
	if n == 0 {
		return nil
	}
	if len(a.acc) < n {
		size := a.accChunk * 2
		if size == 0 {
			size = 512
		}
		if size > accSlab {
			size = accSlab
		}
		a.accChunk = size
		if n > size {
			size = n
		}
		a.acc = make([]int32, size)
	}
	out := a.acc[:n:n]
	a.acc = a.acc[n:]
	return out
}

// initAcct builds the dense-id caches on first use: per-process and
// per-object-total ids at fixed positions in lookup slices, per-object
// operation ids interned lazily (opAccID) as expansions encounter them.
func (e *explorer) initAcct() {
	e.acct = newAccTable()
	e.procIDs = make([]int32, e.im.Procs)
	for p := 0; p < e.im.Procs; p++ {
		e.procIDs[p] = e.acct.id(procKey(p))
	}
	e.objIDs = make([]int32, len(e.im.Objects))
	e.opIDs = make([]map[string]int32, len(e.im.Objects))
	for i := range e.im.Objects {
		e.objIDs[i] = e.acct.id(accKey{Obj: i})
		e.opIDs[i] = make(map[string]int32)
	}
}

// opAccID returns the dense id of the (obj, op) counter.
func (e *explorer) opAccID(obj int, op string) int32 {
	m := e.opIDs[obj]
	id, ok := m[op]
	if !ok {
		id = e.acct.id(accKey{Obj: obj, Op: op})
		m[op] = id
	}
	return id
}

// newSummary returns a summary with nodes=1 and a zeroed (possibly nil)
// counter slice, recycled from the free list when one is available.
func (e *explorer) newSummary() *summary {
	if n := len(e.freeSums); n > 0 {
		s := e.freeSums[n-1]
		e.freeSums = e.freeSums[:n-1]
		acc := s.acc
		for i := range acc {
			acc[i] = 0
		}
		*s = summary{nodes: 1, acc: acc}
		return s
	}
	s := e.sums.newSummary()
	s.nodes = 1
	return s
}

// recycleSummary returns a merged child summary to the free list. Callers
// must never recycle a summary the memo retains (put sets retained) — a
// later memo hit would observe the recycled record.
func (e *explorer) recycleSummary(s *summary) {
	if s == nil || s.retained {
		return
	}
	e.freeSums = append(e.freeSums, s)
}

// growAcc widens s.acc to at least need counters (and at least the full
// current table, amortizing regrowth), preserving existing counts.
func (e *explorer) growAcc(s *summary, need int) {
	if n := len(e.acct.keys); need < n {
		need = n
	}
	acc := e.sums.allocAcc(need)
	copy(acc, s.acc)
	s.acc = acc
}

// internSeg returns the segment id of the encoding b, interning it on
// first sight. The id stands for those bytes for the explorer's lifetime:
// segments are never deleted, so ids are never reused.
func (e *explorer) internSeg(b []byte) int32 {
	h := e.segIdx.hash(b)
	id, slot := e.segIdx.find(b, h)
	if id < 0 {
		id = e.segIdx.insert(b, h, slot)
	}
	return id
}

// encodeObjSeg encodes one object state and returns its segment id.
func (e *explorer) encodeObjSeg(state any) int32 {
	e.segScratch = e.enc.appendAny(e.segScratch[:0], state)
	return e.internSeg(e.segScratch)
}

// encodeProcSeg encodes one process control state and returns its
// segment id.
func (e *explorer) encodeProcSeg(ps *procState) int32 {
	e.segScratch = e.enc.appendProc(e.segScratch[:0], ps)
	return e.internSeg(e.segScratch)
}

// encodeSegments (re)builds every segment id of c — used once at the
// root; per-edge updates re-encode only the changed components.
func (e *explorer) encodeSegments(c *config) {
	c.objEnc = make([]int32, len(c.objs))
	for i := range c.objs {
		c.objEnc[i] = e.encodeObjSeg(c.objs[i])
	}
	c.procEnc = make([]int32, len(c.procs))
	for p := range c.procs {
		c.procEnc[p] = e.encodeProcSeg(&c.procs[p])
	}
}

// cachedTrans is one outcome of an object access with the successor
// state's segment interned exactly once, when the transition first enters
// the cache. Cached slices are shared across every edge that replays the
// transition and are never mutated.
type cachedTrans struct {
	next    any
	resp    types.Response
	nextEnc int32
}

// applyCached is Spec.Apply behind the flat-path transition cache: the
// cache key carries the object's state segment id, so a hit —
// the overwhelmingly common case, since reachable (state, port, inv)
// triples are few (bounded by one component's state count, not the
// configuration count) — costs one hash, one probe and zero allocations,
// skipping the user Step function, its per-call []Transition, and the
// successor-segment encodings. Soundness rests on the same contracts the
// memoizer already assumes: Spec.Step is pure and segment encoding is
// injective. Errors are not cached (they abort the run).
func (e *explorer) applyCached(c *config, p int, act program.Action) ([]cachedTrans, error) {
	decl := &e.im.Objects[act.Obj]
	port := decl.Port(p)
	b := e.transScratch[:0]
	b = binary.AppendVarint(b, int64(act.Obj))
	b = appendSegID(b, c.objEnc[act.Obj])
	b = binary.AppendVarint(b, int64(port))
	b = appendInvocation(b, act.Inv)
	e.transScratch = b
	h := e.transIdx.hash(b)
	id, slot := e.transIdx.find(b, h)
	if id >= 0 {
		e.pendTransHits++
		return e.transVals[id], nil
	}
	ts, err := decl.Spec.Apply(c.objs[act.Obj], port, act.Inv)
	if err != nil {
		return nil, err
	}
	cts := make([]cachedTrans, len(ts))
	for i, t := range ts {
		cts[i] = cachedTrans{next: t.Next, resp: t.Resp, nextEnc: e.encodeObjSeg(t.Next)}
	}
	e.transIdx.insert(b, h, slot) // the next dense id: len(e.transVals)
	e.transVals = append(e.transVals, cts)
	return cts, nil
}

// procStep is a cached startNextOp outcome: the stepping process's
// resulting state, its segment id (interned once), and the target
// responses the advance completed (replayed into e.responses on a hit,
// mirroring endOp; the caller's respMark undo then rewinds them as usual).
type procStep struct {
	ps    procState
	enc   int32
	resps []types.Response
}

// stepProcCached advances process p of c over a completed access with
// response resp, through the step cache. The key is p plus p's pre-state
// segment id plus resp — by the machine contract (deterministic,
// comparable states) that determines the entire advance, including any
// chain of zero-access operations it completes. forced marks
// that the caller set Stepped on c (CrashBeforeFirstStep), which
// the stale pre-state segment does not reflect. Errors are not cached.
// RecordHistory bypasses the cache: a hit would skip the beginOp/endOp
// history events.
func (e *explorer) stepProcCached(c *config, p int, resp types.Response, forced bool) error {
	if e.opts.RecordHistory {
		if err := e.startNextOp(c, p, resp); err != nil {
			return err
		}
		c.procEnc[p] = e.encodeProcSeg(&c.procs[p])
		return nil
	}
	b := e.stepScratch[:0]
	b = binary.AppendVarint(b, int64(p))
	if forced {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendSegID(b, c.procEnc[p])
	b = appendResponse(b, resp)
	e.stepScratch = b
	h := e.stepIdx.hash(b)
	id, slot := e.stepIdx.find(b, h)
	if id >= 0 {
		e.pendStepHits++
		st := &e.stepVals[id]
		c.procs[p] = st.ps
		c.procEnc[p] = st.enc
		e.responses[p] = append(e.responses[p], st.resps...)
		return nil
	}
	mark := len(e.responses[p])
	if err := e.startNextOp(c, p, resp); err != nil {
		return err
	}
	enc := e.encodeProcSeg(&c.procs[p])
	c.procEnc[p] = enc
	st := procStep{ps: c.procs[p], enc: enc}
	if n := len(e.responses[p]) - mark; n > 0 {
		st.resps = append([]types.Response(nil), e.responses[p][mark:]...)
	}
	e.stepIdx.insert(b, h, slot) // the next dense id: len(e.stepVals)
	e.stepVals = append(e.stepVals, st)
	return nil
}

// flatKey assembles c's memo key from its segment ids into the encoder's
// reused buffer, without re-walking any component: the object ids, then
// the process ids, segIDBytes each. The explorer's component counts are
// fixed, so the tuple needs no separator, and equal tuples are exactly
// equal segment-byte renderings (appendConfigBytes) because an id stands
// for one encoding. The returned slice is invalidated by the next flatKey
// call.
func (e *explorer) flatKey(c *config) []byte {
	b := e.enc.buf[:0]
	for _, id := range c.objEnc {
		b = appendSegID(b, id)
	}
	for _, id := range c.procEnc {
		b = appendSegID(b, id)
	}
	e.enc.buf = b
	return b
}

// segIDBytes is the width of one segment id in a key.
const segIDBytes = 4

func appendSegID(b []byte, id int32) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(id))
}

// appendConfigBytes appends the segment-byte rendering of c to b: the
// object segments, a separator, and the process segments, each resolved
// from its id. It is the configuration's name outside the explorer — the
// panic breadcrumb's and the stall heartbeat's — and, segment by segment,
// the same information as the memo key.
func (e *explorer) appendConfigBytes(b []byte, c *config) []byte {
	for _, id := range c.objEnc {
		b = append(b, e.segIdx.key(id)...)
	}
	b = append(b, tagSep)
	for _, id := range c.procEnc {
		b = append(b, e.segIdx.key(id)...)
	}
	return b
}
