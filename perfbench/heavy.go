package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"waitfree"
)

// check-heavy: waitfree.Check on the library path, with no cache and no
// daemon, over exhaustive memoized checks. One caller runs the checks
// back to back, each on one engine worker: with two workers on two cores
// the run-to-run spread of every timing and of peak memory was about
// twice as wide.
const heavySetups = 3

// heavyRef is what set-up's warm-up pass established for one check: the
// report every later run must reproduce byte for byte, and its exact
// engine counts.
type heavyRef struct {
	report []byte
	counts engineCounts
}

// heavyOp is one timed check.
type heavyOp struct {
	sample     checkSample
	start, end time.Time // including the untimed judging after the check
	err        error
}

// heavyRunner runs checks from compiled requests, giving each spill check
// a fresh spill directory.
type heavyRunner struct {
	list      []heavyCheck
	reqs      []waitfree.Request
	spillRoot string
}

func newHeavyRunner(list []heavyCheck, spillRoot string) (*heavyRunner, error) {
	h := &heavyRunner{list: list, spillRoot: spillRoot}
	for _, c := range list {
		req, err := compile(c.req, "")
		if err != nil {
			return nil, fmt.Errorf("check-heavy: compile %s: %w", c.name, err)
		}
		h.reqs = append(h.reqs, req)
	}
	return h, nil
}

// run times one check; the spill directory is made and removed outside
// the timed call.
func (h *heavyRunner) run(i int) (*waitfree.Report, checkSample, error) {
	req := h.reqs[i]
	if h.list[i].req.spill {
		dir, err := os.MkdirTemp(h.spillRoot, "spill-")
		if err != nil {
			return nil, checkSample{}, fmt.Errorf("spill dir: %w", err)
		}
		defer os.RemoveAll(dir)
		req.Explore.MemoBudget = heavyMemoBudget
		req.Explore.MemoSpillDir = dir
	}
	return timedCheck(req)
}

// judge checks one report against the registry verdict and, when ref is
// set, the warm-up reference: identical canonical bytes and identical
// exact counts. It returns the canonical bytes.
func (h *heavyRunner) judge(i int, rep *waitfree.Report, s checkSample, ref *heavyRef, tr *tracer, rid string, parent int) ([]byte, error) {
	c := h.list[i]
	t := time.Now()
	data, err := canonicalJSON(rep)
	encoded := time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s: encode report: %w", c.name, err)
	}
	_, derr := waitfree.DecodeReport(data)
	decoded := time.Now()
	if tr != nil {
		tr.add("waitfree.encode_report", rid, parent, t, encoded)
		tr.add("waitfree.decode_report", rid, parent, encoded, decoded)
	}
	switch {
	case derr != nil:
		return nil, fmt.Errorf("%s: report does not decode: %w", c.name, derr)
	case rep.OK() != c.req.expectOK():
		return nil, fmt.Errorf("%s: verdict ok=%v, registry expects ok=%v", c.name, rep.OK(), c.req.expectOK())
	case ref != nil && string(data) != string(ref.report):
		return nil, fmt.Errorf("%s: report bytes differ from the warm-up pass", c.name)
	case ref != nil && s.counts != ref.counts:
		return nil, fmt.Errorf("%s: exact counts %+v differ from the warm-up pass's %+v", c.name, s.counts, ref.counts)
	}
	return data, nil
}

// heavySetup builds the implementations and runs one untimed warm-up pass
// in list order, returning the references it established.
func heavySetup(list []heavyCheck, spillRoot string) (*heavyRunner, []heavyRef, time.Duration, error) {
	t := time.Now()
	h, err := newHeavyRunner(list, spillRoot)
	if err != nil {
		return nil, nil, 0, err
	}
	refs := make([]heavyRef, len(list))
	for i := range list {
		rep, s, err := h.run(i)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("check-heavy: warm-up %s: %w", list[i].name, err)
		}
		data, err := h.judge(i, rep, s, nil, nil, "", 0)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("check-heavy: warm-up: %w", err)
		}
		refs[i] = heavyRef{report: data, counts: s.counts}
	}
	return h, refs, time.Since(t), nil
}

// heavyPhase is one closed loop of checks.
type heavyPhase struct {
	ops        []heavyOp
	start, end time.Time
	rssMB      float64
	spans      []span
}

func (h *heavyRunner) loop(seed int64, seconds int, refs []heavyRef, traced bool) heavyPhase {
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	order := newHeavyOrder(seed, len(h.list))
	rss := startRSS()
	p := heavyPhase{start: time.Now()}
	deadline := p.start.Add(time.Duration(seconds) * time.Second)
	for n := 0; time.Now().Before(deadline); n++ {
		i := order.next()
		t := time.Now()
		rep, s, err := h.run(i)
		end := t.Add(s.took)
		op := heavyOp{sample: s, start: t, err: err}
		if err == nil {
			rid, root := "", -1
			if tr != nil {
				rid = fmt.Sprintf("check-%d", n)
				root = tr.add("check.op", rid, -1, t, end)
				name := "explore.check"
				if s.elim {
					name = "core.elimination"
				}
				tr.add(name, rid, root, t, end)
			}
			_, op.err = h.judge(i, rep, s, &refs[i], tr, rid, root)
			if tr != nil {
				tr.spans[root].End = time.Now()
			}
		}
		op.end = time.Now()
		p.ops = append(p.ops, op)
	}
	p.end = time.Now()
	p.rssMB = rss.Stop()
	if tr != nil {
		p.spans = tr.spans
	}
	return p
}

// e2e derives the loop's end-to-end numbers. Its throughput is the median
// over whole rounds of completed checks per second: every round runs the
// same checks, so rounds are like for like.
func (p *heavyPhase) e2e(setup time.Duration, seconds, perRound int) (e2e, []error) {
	e := e2e{attempted: len(p.ops), elapsed: p.end.Sub(p.start), rssMB: p.rssMB, setup: setup}
	var rates []float64
	for r := 0; (r+1)*perRound <= len(p.ops); r++ {
		round := p.ops[r*perRound : (r+1)*perRound]
		completed := 0
		for _, op := range round {
			if op.err == nil {
				completed++
			}
		}
		rates = append(rates, ratio(float64(completed), round[perRound-1].end.Sub(round[0].start).Seconds()))
	}
	var errs []error
	for _, op := range p.ops {
		if op.err != nil {
			e.failed++
			e.latMs = append(e.latMs, float64(seconds)*1000)
			if len(errs) < 5 {
				errs = append(errs, op.err)
			}
			continue
		}
		e.latMs = append(e.latMs, ms(op.sample.took))
	}
	e.rate = median(rates)
	if len(rates) == 0 {
		e.rate = ratio(float64(e.attempted-e.failed), e.elapsed.Seconds())
	}
	return e, errs
}

func (p *heavyPhase) profile() checkProfile {
	var cp checkProfile
	for _, op := range p.ops {
		if op.err == nil {
			cp = append(cp, op.sample)
		}
	}
	return cp
}

func runCheckHeavy(cfg config) (*outcome, error) {
	list := heavyList()
	spillRoot := filepath.Join(cfg.workDir, fmt.Sprintf("check-heavy-%d", os.Getpid()))
	if err := os.MkdirAll(spillRoot, 0o755); err != nil {
		return nil, err
	}
	defer removeSettled(spillRoot)

	var setups []time.Duration
	var h *heavyRunner
	var refs []heavyRef
	for k := 0; k < heavySetups; k++ {
		hk, rk, took, err := heavySetup(list, spillRoot)
		if err != nil {
			return nil, err
		}
		if refs == nil {
			h, refs = hk, rk
		}
		for i := range rk {
			if rk[i].counts != refs[i].counts || string(rk[i].report) != string(refs[i].report) {
				return nil, fmt.Errorf("check-heavy: warm-up passes disagree on %s", list[i].name)
			}
		}
		setups = append(setups, took)
	}
	out := &outcome{metrics: metrics{}}
	a := h.loop(cfg.seed, cfg.seconds, refs, false)
	ea, errs := a.e2e(medianDur(setups), cfg.seconds, len(list))
	out.finish(ea, errs)
	out.note("check-heavy: %d checks, %d per round, one caller, engine parallelism %d", len(a.ops), len(list), heavyParallelism)
	if !cfg.trace {
		ea.addTo(out.metrics)
		return out, nil
	}

	b := h.loop(cfg.seed, cfg.seconds, refs, true)
	eb, errsB := b.e2e(medianDur(setups), cfg.seconds, len(list))
	out.finish(eb, errsB)
	m := out.metrics
	b.profile().addTo(m)
	var pass engineCounts
	for _, r := range refs {
		pass.add(r.counts)
	}
	pass.addTo(m)
	self := selfTimes(b.spans)
	for _, layer := range liveSelfLayers {
		m.set("self."+layer+"_ms", ratio(ms(self[layer]), float64(len(b.ops))))
	}
	tracingOverhead(m, ea, eb)

	// The replay sends the list through the daemon's call order twice:
	// cold (Check and Put; the spill check bypasses the cache), then warm
	// (DecodeReport).
	stream := make([]request, 0, 2*len(list))
	for pass := 0; pass < 2; pass++ {
		for _, c := range list {
			stream = append(stream, c.req)
		}
	}
	want := func(r request) ([]byte, error) {
		for i, c := range list {
			if string(c.req.body) == string(r.body) {
				return refs[i].report, nil
			}
		}
		return nil, fmt.Errorf("no reference for %s", r.body)
	}
	st, err := replay(stream, spillRoot, want)
	if err != nil {
		return nil, err
	}
	st.addTo(m)
	out.spans = append(b.spans, st.spans...)
	return out, nil
}
