package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

const (
	// durablePriorJobs terminal jobs populate the DataDir that every
	// serve-durable restart loads; durableRestarts restarts are timed and
	// their median is setup_s.
	durablePriorJobs = 400
	durableRestarts  = 9
	// priorSeedSalt derives the prior run's seed, so its jobs differ from
	// the timed stream's.
	priorSeedSalt = 0x5eed
	// warmFills cache fills are timed and their median is setup_s.
	warmFills = 9
	// Replay lengths: fixed, so the replay's exact counts repeat for a
	// seed.
	durableReplayLen = 1000
	warmReplayLen    = 2000
	// durableProbeJobs jobs measure the job store in serve-warm's traced
	// run.
	durableProbeJobs = 1000
)

// runServeDurable: many mostly distinct cheap jobs against a daemon with a
// job store on the real disk and a result cache. Each job costs three
// fsync'd envelope rewrites and little engine time. BENCHMARK.json leaves
// it out: its run-to-run spread follows the disk's fsync rate, which swung
// by a factor of four within a minute on the VM it was tuned on.
func runServeDurable(cfg config) (*outcome, error) {
	work := filepath.Join(cfg.workDir, fmt.Sprintf("serve-durable-%d", os.Getpid()))
	defer removeSettled(work)
	prior := filepath.Join(work, "prior")
	if err := priorRun(prior, cfg.seed^priorSeedSalt); err != nil {
		return nil, err
	}

	dirA := filepath.Join(work, "a")
	if err := copyJobs(prior, dirA); err != nil {
		return nil, err
	}
	var setups []time.Duration
	var filesRead int64
	var d *daemon
	for k := 0; k < durableRestarts; k++ {
		fs := newCountFS()
		dk, took, err := startDaemon(dirA, fs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
		filesRead = fs.snap().ops[opReadFile]
		if k == durableRestarts-1 {
			d = dk
		} else if err := dk.stop(); err != nil {
			return nil, err
		}
	}
	out := &outcome{metrics: metrics{}}
	out.note("serve-durable: restart over %d prior jobs read %d job files; set-up is the median of %d restarts: %v", durablePriorJobs, filesRead, durableRestarts, setups)

	o := newOracle()
	a := measure(d, unlimited(newDurableGen(cfg.seed).next), cfg.seconds, false, cfg.flipAt)
	if err := d.stop(); err != nil {
		return nil, err
	}
	a.judge(o)
	ea := a.e2e(cfg.seconds, medianDur(setups))
	out.finish(ea, a.errs)
	out.note("serve-durable stream: %v", a.shares())
	if !cfg.trace {
		ea.addTo(out.metrics)
		return out, nil
	}

	dirB := filepath.Join(work, "b")
	if err := copyJobs(prior, dirB); err != nil {
		return nil, err
	}
	d, _, err := startDaemon(dirB, newCountFS())
	if err != nil {
		return nil, err
	}
	b := measure(d, unlimited(newDurableGen(cfg.seed).next), cfg.seconds, true, -1)
	if err := d.stop(); err != nil {
		return nil, err
	}
	b.judge(o)
	eb := b.e2e(cfg.seconds, 0)
	out.finish(eb, b.errs)
	m := out.metrics
	spans := liveLayers(&b, m)
	b.shares().addTo(m)
	m.set("durable.files_read_at_start", float64(filesRead))
	tracingOverhead(m, ea, eb)

	g := newDurableGen(cfg.seed)
	stream := make([]request, durableReplayLen)
	for i := range stream {
		stream[i] = g.next()
	}
	st, err := replay(stream, work, o.direct)
	if err != nil {
		return nil, err
	}
	st.addTo(m)
	st.checks.addTo(m)
	st.checks.counts().addTo(m)
	out.spans = append(spans, st.spans...)
	return out, nil
}

// removeSettled deletes a work directory and waits until the filesystem
// has committed the deletion, so that on a filesystem mounted with online
// discard the freeing of a run's thousands of job files is not left to
// slow the next run's fsyncs.
func removeSettled(dir string) {
	_ = os.RemoveAll(dir) // leftovers are only scratch space
	syscall.Sync()
}

// priorRun fills dir with the terminal jobs of an untimed seeded run.
func priorRun(dir string, seed int64) error {
	d, _, err := startDaemon(dir, newCountFS())
	if err != nil {
		return err
	}
	l := closedLoop(d.base, limited(durablePriorJobs, newDurableGen(seed).next), time.Time{}, -1, newReportPool())
	if err := d.stop(); err != nil {
		return err
	}
	for _, op := range l.ops {
		if op.failed() {
			return fmt.Errorf("prior run: job for %s did not finish done: %v", op.req.body, op.err)
		}
	}
	return nil
}

// runServeWarm: repeats of about 40 requests against a daemon with no job
// store, every one a result-cache hit after set-up filled the cache.
func runServeWarm(cfg config) (*outcome, error) {
	set := warmSet()
	o := newOracle()
	for _, r := range set {
		if _, err := o.direct(r); err != nil {
			return nil, err
		}
	}
	fillOrder := rand.New(rand.NewSource(cfg.seed)).Perm(len(set))
	fill := func() (*daemon, time.Duration, error) {
		d, took, err := startDaemon("", newCountFS())
		if err != nil {
			return nil, 0, err
		}
		i := 0
		next := func() (request, bool) {
			if i == len(fillOrder) {
				return request{}, false
			}
			i++
			return set[fillOrder[i-1]], true
		}
		t := time.Now()
		l := closedLoop(d.base, next, time.Time{}, -1, newReportPool())
		took += time.Since(t)
		for k := range l.ops {
			if err := judgeOp(&l.ops[k], o); err != nil {
				return nil, 0, errors.Join(fmt.Errorf("cache fill: %w", err), d.stop())
			}
		}
		return d, took, nil
	}

	var setups []time.Duration
	var d *daemon
	for k := 0; k < warmFills; k++ {
		dk, took, err := fill()
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
		if k == warmFills-1 {
			d = dk
		} else if err := dk.stop(); err != nil {
			return nil, err
		}
	}
	out := &outcome{metrics: metrics{}}
	out.note("serve-warm: %d distinct requests; set-up median of %d cache fills", len(set), warmFills)

	a := measure(d, unlimited(newWarmGen(cfg.seed, set).next), cfg.seconds, false, cfg.flipAt)
	if err := d.stop(); err != nil {
		return nil, err
	}
	a.judge(o)
	ea := a.e2e(cfg.seconds, medianDur(setups))
	out.finish(ea, a.errs)
	out.note("serve-warm stream: %v", a.shares())
	if !cfg.trace {
		ea.addTo(out.metrics)
		return out, nil
	}

	d, _, err := fill()
	if err != nil {
		return nil, err
	}
	b := measure(d, unlimited(newWarmGen(cfg.seed, set).next), cfg.seconds, true, -1)
	if err := d.stop(); err != nil {
		return nil, err
	}
	b.judge(o)
	eb := b.e2e(cfg.seconds, 0)
	out.finish(eb, b.errs)
	m := out.metrics
	spans := liveLayers(&b, m)
	b.shares().addTo(m)
	tracingOverhead(m, ea, eb)

	// The replay covers the fill (misses: Check and Put) and then a prefix
	// of the timed stream (hits: DecodeReport).
	stream := make([]request, 0, len(set)+warmReplayLen)
	for _, i := range fillOrder {
		stream = append(stream, set[i])
	}
	g := newWarmGen(cfg.seed, set)
	for i := 0; i < warmReplayLen; i++ {
		stream = append(stream, g.next())
	}
	st, err := replay(stream, cfg.workDir, o.direct)
	if err != nil {
		return nil, err
	}
	st.addTo(m)
	st.checks.addTo(m)
	st.checks.counts().addTo(m)
	probeSpans, err := durableProbe(cfg, o, m)
	if err != nil {
		return nil, err
	}
	out.note("durable probe: %d serve-durable jobs over a DataDir after a restart over %d prior jobs", durableProbeJobs, durablePriorJobs)
	out.spans = append(append(spans, st.spans...), probeSpans...)
	return out, nil
}

// durableProbe measures the job store for serve-warm's traced run, since
// serve-warm itself has no DataDir: after a restart over the jobs of a
// prior run, durableProbeJobs jobs of the serve-durable stream run
// against the DataDir with span recording on. It sets the durable.*
// metrics and self.durable_ms from that loop.
func durableProbe(cfg config, o *oracle, m metrics) ([]span, error) {
	work := filepath.Join(cfg.workDir, fmt.Sprintf("durable-probe-%d", os.Getpid()))
	defer removeSettled(work)
	if err := priorRun(work, cfg.seed^priorSeedSalt); err != nil {
		return nil, err
	}
	fs := newCountFS()
	d, _, err := startDaemon(work, fs)
	if err != nil {
		return nil, err
	}
	filesRead := fs.snap().ops[opReadFile]
	p := measure(d, limited(durableProbeJobs, newDurableGen(cfg.seed).next), 0, true, -1)
	if err := d.stop(); err != nil {
		return nil, err
	}
	p.judge(o)
	if p.failed > 0 {
		return nil, fmt.Errorf("durable probe: %d jobs failed: %v", p.failed, p.errs)
	}
	probe := metrics{}
	spans := liveLayers(&p, probe)
	for name, v := range probe {
		if strings.HasPrefix(name, "durable.") || name == "self.durable_ms" {
			m[name] = v
		}
	}
	m.set("durable.files_read_at_start", float64(filesRead))
	return spans, nil
}
