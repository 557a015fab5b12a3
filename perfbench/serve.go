package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"waitfree/internal/rescache"
	"waitfree/internal/server"
)

// Load shape of both serve-* workloads, sized for two cores: two
// keep-alive clients against the daemon's default worker count.
const serveClients = 2

// daemon is an in-process waitfreed on a loopback listener.
type daemon struct {
	srv       *server.Server
	hs        *http.Server
	base      string
	cache     *rescache.Cache
	fs        *countFS
	serveDone chan struct{}
}

// startDaemon builds a server over dataDir ("" = no job store) with a
// fresh memory-only result cache. The returned duration covers
// server.New and Start only.
func startDaemon(dataDir string, fs *countFS) (*daemon, time.Duration, error) {
	cache, err := rescache.Open(rescache.Options{})
	if err != nil {
		return nil, 0, fmt.Errorf("open cache: %w", err)
	}
	t := time.Now()
	srv, err := server.New(server.Options{DataDir: dataDir, Cache: cache, FS: fs})
	if err != nil {
		return nil, 0, fmt.Errorf("server.New: %w", err)
	}
	srv.Start()
	took := time.Since(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(drainCtx) // the listen error is the one to report
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, cache: cache, fs: fs,
		base: "http://" + ln.Addr().String(), serveDone: make(chan struct{}),
	}
	go func() {
		defer close(d.serveDone)
		_ = d.hs.Serve(ln) // always http.ErrServerClosed after Shutdown
	}()
	return d, took, nil
}

// stop shuts the listener down, waits for the serve loop, then drains.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.serveDone
	return errors.Join(err, d.srv.Drain(ctx))
}

// client is one keep-alive HTTP connection to the daemon.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

// opResult is one job as the client saw it.
type opResult struct {
	req                    request
	start, submitted, done time.Time
	view                   server.JobView
	events                 int
	err                    error
}

func (r *opResult) latency() time.Duration { return r.done.Sub(r.start) }

// failed reports an op that was refused, failed in transport, or did not
// finish done.
func (r *opResult) failed() bool { return r.err != nil || r.view.State != server.JobDone }

// run submits one job and follows its SSE stream to the done event.
func (c *client) run(r request, flip bool, pool *reportPool) (res opResult) {
	res.req = r
	res.start = time.Now()
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(r.body))
	if err != nil {
		res.err = fmt.Errorf("submit: %w", err)
		return res
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.submitted = time.Now()
	if err != nil {
		res.err = fmt.Errorf("submit: read: %w", err)
		return res
	}
	if resp.StatusCode != http.StatusAccepted {
		res.err = fmt.Errorf("submit refused: %s: %s", resp.Status, bytes.TrimSpace(body))
		return res
	}
	var accepted server.JobView
	if err := json.Unmarshal(body, &accepted); err != nil {
		res.err = fmt.Errorf("submit: decode: %w", err)
		return res
	}
	resp, err = c.hc.Get(c.base + "/v1/jobs/" + accepted.ID + "/events")
	if err != nil {
		res.err = fmt.Errorf("events: %w", err)
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("events: %s", resp.Status)
		return res
	}
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			res.err = fmt.Errorf("events: stream ended before done: %w", err)
			return res
		}
		line = bytes.TrimRight(line, "\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			res.events++
			if event != "done" {
				continue
			}
			res.done = time.Now()
			if err := json.Unmarshal(line[len("data: "):], &res.view); err != nil {
				res.err = fmt.Errorf("events: decode done: %w", err)
				return res
			}
			if flip && len(res.view.Report) > 0 {
				res.view.Report[len(res.view.Report)/2] ^= 1
			}
			res.view.Report = pool.intern(res.view.Report)
			res.view.Request = nil // the echoed body; the op keeps its own
			// Drain to EOF so the connection returns to the pool.
			_, _ = io.Copy(io.Discard, br)
			return res
		}
	}
}

// loopResult is one closed-loop run: ops in issue order.
type loopResult struct {
	ops        []opResult
	start, end time.Time
}

// closedLoop runs serveClients clients, each submitting its next request
// only after the previous one's done event, until deadline passes or
// next reports the stream exhausted. flipAt (>= 0) flips one byte of that
// op's served report in the harness, for the oracle self-check.
func closedLoop(base string, next func() (request, bool), deadline time.Time, flipAt int, pool *reportPool) loopResult {
	var mu sync.Mutex
	issued := 0
	var ops []opResult
	take := func() (request, int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return request{}, 0, false
		}
		r, ok := next()
		if !ok {
			return request{}, 0, false
		}
		issued++
		return r, issued - 1, true
	}
	res := loopResult{start: time.Now()}
	var wg sync.WaitGroup
	for i := 0; i < serveClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base)
			defer c.hc.CloseIdleConnections()
			for {
				r, n, ok := take()
				if !ok {
					return
				}
				op := c.run(r, n == flipAt, pool)
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.end = time.Now()
	res.ops = ops
	return res
}

// limited turns a generator into a stream of n requests.
func limited(n int, gen func() request) func() (request, bool) {
	return func() (request, bool) {
		if n == 0 {
			return request{}, false
		}
		n--
		return gen(), true
	}
}

func unlimited(gen func() request) func() (request, bool) {
	return func() (request, bool) { return gen(), true }
}

// phase is one measured closed loop with the daemon-side counters.
type phase struct {
	loop   loopResult
	rssMB  float64
	fs     fsSnap
	spans  []fsSpan
	cache  rescache.Stats
	failed int
	errs   []error
}

// measure runs one closed loop for the given seconds, or until next is
// exhausted when seconds is 0.
func measure(d *daemon, next func() (request, bool), seconds int, traced bool, flipAt int) phase {
	if traced {
		d.fs.startSpans()
	}
	// Flush the dirty pages set-up and earlier runs left behind, so the
	// timed loop's fsyncs do not pay for them.
	syscall.Sync()
	fs0, cs0 := d.fs.snap(), d.cache.Stats()
	rss := startRSS()
	var deadline time.Time
	if seconds > 0 {
		deadline = time.Now().Add(time.Duration(seconds) * time.Second)
	}
	loop := closedLoop(d.base, next, deadline, flipAt, newReportPool())
	p := phase{loop: loop, rssMB: rss.Stop()}
	p.fs = d.fs.snap().sub(fs0)
	if traced {
		p.spans = d.fs.takeSpans()
	}
	cs := d.cache.Stats()
	p.cache = rescache.Stats{Hits: cs.Hits - cs0.Hits, Misses: cs.Misses - cs0.Misses, Errors: cs.Errors - cs0.Errors}
	return p
}

// judge runs the oracle over every op: refused, failed, and wrong-report
// ops all count as failed.
func (p *phase) judge(o *oracle) {
	p.failed, p.errs = 0, nil
	for i := range p.loop.ops {
		if err := judgeOp(&p.loop.ops[i], o); err != nil {
			p.failed++
			if len(p.errs) < 5 {
				p.errs = append(p.errs, err)
			}
		}
	}
}

func judgeOp(op *opResult, o *oracle) error {
	switch {
	case op.err != nil:
		return op.err
	case op.view.State != server.JobDone:
		return fmt.Errorf("job %s for %s ended %s: %v", op.view.ID, op.req.body, op.view.State, op.view.Error)
	case op.view.OK == nil || *op.view.OK != op.req.expectOK():
		return fmt.Errorf("job %s for %s: ok flag disagrees with the registry", op.view.ID, op.req.body)
	}
	return o.verify(op.req, op.view.Report)
}

// e2e derives the workload's end-to-end numbers from a judged phase.
func (p *phase) e2e(seconds int, setup time.Duration) e2e {
	e := e2e{attempted: len(p.loop.ops), failed: p.failed, elapsed: p.loop.end.Sub(p.loop.start), rssMB: p.rssMB, setup: setup}
	var done []time.Time
	for i := range p.loop.ops {
		op := &p.loop.ops[i]
		if op.failed() {
			e.latMs = append(e.latMs, float64(seconds)*1000)
			continue
		}
		e.latMs = append(e.latMs, ms(op.latency()))
		done = append(done, op.done)
	}
	e.rate = windowRate(p.loop.start, p.loop.end, done, time.Second)
	return e
}

// windowRate is the median, over the whole windows of length w in
// [start, end], of completions per second; the overall rate when the loop
// was shorter than one window. A median over windows keeps a stall of a
// second or two in one run from moving the run's throughput.
func windowRate(start, end time.Time, done []time.Time, w time.Duration) float64 {
	n := int(end.Sub(start) / w)
	if n == 0 {
		return ratio(float64(len(done)), end.Sub(start).Seconds())
	}
	counts := make([]float64, n)
	for _, t := range done {
		if k := int(t.Sub(start) / w); k < n {
			counts[k]++
		}
	}
	return median(counts) / w.Seconds()
}

// shares tallies the stream's shaping properties over the ops served.
func (p *phase) shares() shaping {
	var s shaping
	seen := map[string]bool{}
	for _, op := range p.loop.ops {
		r := op.req
		if seen[string(r.body)] {
			s.repeat++
		}
		seen[string(r.body)] = true
		if r.memoizeUnset() {
			s.memoUnset++
		}
		if r.faulted() {
			s.faulted++
		}
		s.n++
	}
	s.hitRatio = ratio(float64(p.cache.Hits), float64(p.cache.Hits+p.cache.Misses))
	return s
}

type shaping struct {
	n, repeat, memoUnset, faulted int
	hitRatio                      float64
}

func (s shaping) String() string {
	f := func(k int) float64 { return ratio(float64(k), float64(s.n)) }
	return fmt.Sprintf("repeat share %.3f, memoize-unset share %.3f, faulted share %.3f, cache hit ratio %.3f (of %d requests)",
		f(s.repeat), f(s.memoUnset), f(s.faulted), s.hitRatio, s.n)
}

func (s shaping) addTo(m metrics) {
	f := func(k int) float64 { return ratio(float64(k), float64(s.n)) }
	m.set("gen.repeat_share", f(s.repeat))
	m.set("gen.memoize_unset_share", f(s.memoUnset))
	m.set("gen.faulted_share", f(s.faulted))
	m.set("rescache.hit_ratio", s.hitRatio)
}

// writtenOps bounds how many of a traced loop's ops have their spans
// written out; self times use every op's spans.
const writtenOps = 2000

// liveLayers derives the daemon-side per-layer metrics of a traced phase
// from the JobView stamps, the client's clock, and the job store's
// counters, and returns the spans of its first writtenOps ops.
func liveLayers(p *phase, m metrics) []span {
	var submit, queue, run, deliver []float64
	events, jobs := 0, 0
	byJob := jobSpans(p.spans)
	var tr tracer
	keep := -1
	for i := range p.loop.ops {
		op := &p.loop.ops[i]
		v := &op.view
		if op.failed() || v.Started == nil || v.Finished == nil {
			continue
		}
		if jobs == writtenOps {
			keep = len(tr.spans)
		}
		jobs++
		events += op.events
		submit = append(submit, ms(op.submitted.Sub(op.start)))
		queue = append(queue, ms(v.Started.Sub(v.Created)))
		run = append(run, ms(v.Finished.Sub(*v.Started)))
		deliver = append(deliver, ms(op.done.Sub(*v.Finished)))

		// Server stamps are clipped to the end of the submit round trip so
		// sibling spans do not overlap; the medians above use raw stamps.
		clip := func(t time.Time) time.Time {
			if t.Before(op.submitted) {
				return op.submitted
			}
			return t
		}
		root := tr.add("client.op", v.ID, -1, op.start, op.done)
		sub := tr.add("client.submit", v.ID, root, op.start, op.submitted)
		tr.add("server.queue_wait", v.ID, root, clip(v.Created), clip(*v.Started))
		runSpan := tr.add("server.run", v.ID, root, clip(*v.Started), clip(*v.Finished))
		del := tr.add("server.deliver", v.ID, root, clip(*v.Finished), op.done)
		for _, fsp := range byJob[v.ID] {
			parent := del
			switch {
			case fsp.start.Before(op.submitted):
				parent = sub
			case fsp.start.Before(*v.Finished):
				parent = runSpan
			}
			tr.add("durable."+opNames[fsp.op], v.ID, parent, fsp.start, fsp.end)
		}
	}
	m.set("server.submit_ms", median(submit))
	m.set("server.queue_wait_ms", median(queue))
	m.set("server.run_ms", median(run))
	m.set("server.deliver_ms", median(deliver))
	m.set("server.events_per_job", ratio(float64(events), float64(jobs)))

	n := float64(jobs)
	m.set("durable.fsyncs_per_job", ratio(float64(p.fs.fsyncs()), n))
	m.set("durable.sync_busy_ms_per_job", ratio(ms(p.fs.busy(fsOp.isSync)), n))
	m.set("durable.write_busy_ms_per_job", ratio(ms(p.fs.busy(fsOp.isWrite)), n))
	m.set("durable.bytes_written_per_job", ratio(float64(p.fs.bytesWritten), n))
	m.set("durable.failed_ops", float64(p.fs.failed))
	m.set("rescache.errors", float64(p.cache.Errors))

	self := selfTimes(tr.spans)
	for _, layer := range liveSelfLayers {
		m.set("self."+layer+"_ms", ratio(ms(self[layer]), n))
	}
	if keep < 0 {
		keep = len(tr.spans)
	}
	return tr.spans[:keep]
}

// liveSelfLayers are the layers whose self time the traced closed loop
// reports, per op.
var liveSelfLayers = []string{"client", "server", "durable", "explore", "core", "waitfree"}

// copyJobs copies the job envelopes of src into a fresh dst.
func copyJobs(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".wfjob") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
