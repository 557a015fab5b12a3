package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"time"

	"waitfree"
	"waitfree/internal/explore"
	"waitfree/internal/rescache"
	"waitfree/internal/server"
	"waitfree/internal/types"
)

// engineCounts are the explorer's exact counters summed over a report's
// explorations, read before Canonicalize strips them.
type engineCounts struct{ nodes, memoHits, spilled, retries int64 }

func (c *engineCounts) add(o engineCounts) {
	c.nodes += o.nodes
	c.memoHits += o.memoHits
	c.spilled += o.spilled
	c.retries += o.retries
}

func countsOf(rep *waitfree.Report) engineCounts {
	var out engineCounts
	crs := []*waitfree.ConsensusReport{rep.Consensus}
	if e := rep.Elimination; e != nil {
		crs = append(crs, e.InputReport, e.OutputReport)
	}
	for _, cr := range crs {
		if cr == nil || cr.Stats == nil {
			continue
		}
		out.add(engineCounts{cr.Stats.Nodes, cr.Stats.MemoHits, cr.Stats.MemoSpilled, cr.Stats.StorageRetries})
	}
	return out
}

// checkSample is one uncached waitfree.Check call.
type checkSample struct {
	took   time.Duration
	elim   bool
	counts engineCounts
	heap   heapCounters // allocations and GC cycles during the call
}

// checkProfile aggregates check samples into the explore and core layer
// metrics.
type checkProfile []checkSample

func (cp checkProfile) addTo(m metrics) {
	var check, elim []float64
	counts := cp.counts()
	var allocs, gcs uint64
	var busy time.Duration
	for _, s := range cp {
		if s.elim {
			elim = append(elim, ms(s.took))
		} else {
			check = append(check, ms(s.took))
		}
		allocs += s.heap.allocs
		gcs += s.heap.gcs
		busy += s.took
	}
	m.set("explore.check_ms", median(check))
	m.set("core.elimination_ms", median(elim))
	m.set("explore.nodes_per_s", ratio(float64(counts.nodes), busy.Seconds()))
	m.set("explore.allocs_per_node", ratio(float64(allocs), float64(counts.nodes)))
	m.set("explore.gc_cycles_per_check", ratio(float64(gcs), float64(len(cp))))
}

func (cp checkProfile) counts() engineCounts {
	var c engineCounts
	for _, s := range cp {
		c.add(s.counts)
	}
	return c
}

// addTo records the exact engine counts; they repeat exactly for the
// same inputs and the same code.
func (c engineCounts) addTo(m metrics) {
	m.set("explore.nodes_entered", float64(c.nodes))
	m.set("explore.memo_hits_per_node", ratio(float64(c.memoHits), float64(c.nodes)))
	m.set("explore.memo_spilled", float64(c.spilled))
	m.set("explore.storage_retries", float64(c.retries))
}

// timedCheck runs one uncached Check and samples the heap counters around
// it; the run has no other busy goroutines when it is called.
func timedCheck(req waitfree.Request) (*waitfree.Report, checkSample, error) {
	h0 := readHeap()
	t := time.Now()
	rep, err := waitfree.Check(context.Background(), req)
	took := time.Since(t)
	h1 := readHeap()
	s := checkSample{took: took, elim: req.Kind == waitfree.KindElimination,
		heap: heapCounters{allocs: h1.allocs - h0.allocs, gcs: h1.gcs - h0.gcs}}
	if rep != nil {
		s.counts = countsOf(rep)
	}
	return rep, s, err
}

// compile decodes a wire body and applies the harness-side spill option.
func compile(r request, spillDir string) (waitfree.Request, error) {
	_, req, err := server.DecodeWire(r.body)
	if err != nil {
		return req, err
	}
	if r.spill {
		req.Explore.MemoBudget = heavyMemoBudget
		req.Explore.MemoSpillDir = spillDir
	}
	return req, nil
}

// canonicalTime times explore.CanonicalImplementation on the inputs
// rescache.RequestKey canonicalizes: the implementation driven by its
// proposal values, and the Section 5.3 substrate if any.
func canonicalTime(req waitfree.Request) time.Duration {
	k := 2
	if req.Kind == waitfree.KindConsensus && req.Values > 0 {
		k = req.Values
	}
	starts := func(k int) []types.Invocation {
		s := make([]types.Invocation, k)
		for v := range s {
			s[v] = types.Propose(v)
		}
		return s
	}
	t := time.Now()
	if req.Implementation != nil {
		_, _ = explore.CanonicalImplementation(req.Implementation, starts(k))
	}
	if req.Substrate != nil {
		_, _ = explore.CanonicalImplementation(req.Substrate, starts(2))
	}
	return time.Since(t)
}

// replayStats is what a replay measured, per layer.
type replayStats struct {
	decodeWire, key, canonical, get, put, decodeReport, encodeReport []float64 // µs
	reportBytes                                                      []float64
	checks                                                           checkProfile
	spans                                                            []span
}

// replay runs a request stream in-process through the public calls in
// the daemon's order — server.DecodeWire, rescache.RequestKey, Cache.Get,
// then waitfree.Check on a miss or waitfree.DecodeReport on a hit,
// Canonicalize and json.Marshal, and Cache.Put — timing each call as a
// span. want returns the report each request must produce.
func replay(stream []request, spillRoot string, want func(request) ([]byte, error)) (*replayStats, error) {
	cache, err := rescache.Open(rescache.Options{})
	if err != nil {
		return nil, fmt.Errorf("replay: open cache: %w", err)
	}
	st := &replayStats{}
	var tr tracer
	for i, r := range stream {
		rid := "replay-" + strconv.Itoa(i)
		spillDir := ""
		if r.spill {
			if spillDir, err = os.MkdirTemp(spillRoot, "spill-"); err != nil {
				return nil, fmt.Errorf("replay: spill dir: %w", err)
			}
		}
		data, err := replayOne(r, rid, spillDir, cache, st, &tr)
		if spillDir != "" {
			os.RemoveAll(spillDir)
		}
		if err != nil {
			return nil, err
		}
		expect, err := want(r)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(data, expect) {
			return nil, fmt.Errorf("replay: report for %s differs from the expected report", r.body)
		}
	}
	st.spans = tr.spans
	return st, nil
}

func replayOne(r request, rid, spillDir string, cache *rescache.Cache, st *replayStats, tr *tracer) ([]byte, error) {
	start := time.Now()
	root := tr.add("replay.op", rid, -1, start, start) // end fixed below
	step := func(name string, parent int, f func() error) (time.Duration, error) {
		t := time.Now()
		err := f()
		end := time.Now()
		tr.add(name, rid, parent, t, end)
		return end.Sub(t), err
	}

	var req waitfree.Request
	d, err := step("server.decode_wire", root, func() (err error) { req, err = compile(r, spillDir); return })
	if err != nil {
		return nil, fmt.Errorf("replay: decode %s: %w", r.body, err)
	}
	st.decodeWire = append(st.decodeWire, us(d))

	// CanonicalImplementation runs inside RequestKey; it is timed by a
	// separate call on the same inputs and recorded as the key's child
	// span, starting where the key starts.
	canon := canonicalTime(req)
	keyStart := time.Now()
	key, kerr := rescache.RequestKey(rescache.KeySpec{
		Kind: string(req.Kind), Values: req.Values, MaxK: req.MaxK,
		Implementation: req.Implementation, Substrate: req.Substrate,
		Objects: req.Objects, Synthesis: req.Synthesis, Explore: req.Explore,
	})
	keyEnd := time.Now()
	keySpan := tr.add("rescache.request_key", rid, root, keyStart, keyEnd)
	d = keyEnd.Sub(keyStart)
	canon = min(canon, d)
	tr.add("explore.canonical", rid, keySpan, keyStart, keyStart.Add(canon))
	st.key = append(st.key, us(d))
	st.canonical = append(st.canonical, us(canon))
	// Like the daemon, any keying failure (uncacheable options, an
	// implementation with no bounded canonical encoding) bypasses the cache.
	cacheable := kerr == nil

	var cached []byte
	hit := false
	if cacheable {
		d, _ = step("rescache.get", root, func() error { cached, hit = cache.Get(key); return nil })
		st.get = append(st.get, us(d))
	}
	var rep *waitfree.Report
	if hit {
		d, err = step("waitfree.decode_report", root, func() (err error) { rep, err = waitfree.DecodeReport(cached); return })
		st.decodeReport = append(st.decodeReport, us(d))
		// Like the daemon, an entry that does not decode to a report of
		// this kind is a miss.
		hit = err == nil && rep.Kind == req.Kind
	}
	if !hit {
		name := "explore.check"
		if req.Kind == waitfree.KindElimination {
			name = "core.elimination"
		}
		var s checkSample
		_, err = step(name, root, func() (err error) { rep, s, err = timedCheck(req); return })
		st.checks = append(st.checks, s)
	}
	if err != nil {
		return nil, fmt.Errorf("replay: %s: %w", r.body, err)
	}
	var data []byte
	d, err = step("waitfree.encode_report", root, func() (err error) { data, err = canonicalJSON(rep); return })
	if err != nil {
		return nil, fmt.Errorf("replay: encode %s: %w", r.body, err)
	}
	st.encodeReport = append(st.encodeReport, us(d))
	st.reportBytes = append(st.reportBytes, float64(len(data)))
	if cacheable && !hit {
		d, err = step("rescache.put", root, func() error { return cache.Put(key, data) })
		if err != nil {
			return nil, fmt.Errorf("replay: put %s: %w", r.body, err)
		}
		st.put = append(st.put, us(d))
	}
	tr.spans[root].End = time.Now()
	return data, nil
}

// replaySelfLayers are the layers whose self time the replay reports.
var replaySelfLayers = []string{"server", "rescache", "explore", "waitfree", "core"}

func (st *replayStats) addTo(m metrics) {
	m.set("server.decode_wire_us", median(st.decodeWire))
	m.set("rescache.request_key_us", median(st.key))
	m.set("explore.canonical_us", median(st.canonical))
	m.set("rescache.get_us", median(st.get))
	m.set("rescache.put_us", median(st.put))
	m.set("waitfree.decode_report_us", median(st.decodeReport))
	m.set("waitfree.encode_report_us", median(st.encodeReport))
	m.set("waitfree.report_bytes", median(st.reportBytes))
	self := selfTimes(st.spans)
	n := float64(len(st.decodeWire))
	for _, layer := range replaySelfLayers {
		m.set("self.replay_"+layer+"_us", ratio(us(self[layer]), n))
	}
}
