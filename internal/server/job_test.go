package server

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"waitfree"
)

// runInline submits body to a server whose workers are not started and
// runs the job on the calling goroutine, with one SSE subscriber attached
// from submission to the done event, as a streaming client would be. The
// body is copied first, like a request body read off the wire.
func runInline(tb testing.TB, s *Server, body []byte) *Job {
	tb.Helper()
	j, err := s.submit(append([]byte(nil), body...))
	if err != nil {
		tb.Fatal(err)
	}
	if got := <-s.queue; got != j {
		tb.Fatal("queue returned another job")
	}
	events, unsubscribe := j.hub.subscribe()
	defer unsubscribe()
	s.runJob(j)
	for range events { // closed by the done event
	}
	return j
}

// newInlineServer builds a cache-fronted server for runInline. Its
// workers are never started.
func newInlineServer(tb testing.TB) (*Server, *waitfree.Cache) {
	tb.Helper()
	cache, err := waitfree.OpenCache(waitfree.CacheOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(Options{Workers: 1, Cache: cache, Logf: func(string, ...any) {}})
	if err != nil {
		tb.Fatal(err)
	}
	return s, cache
}

// TestTerminalJobFootprint pins what a finished job keeps: no wire
// request (runJob decodes the raw body again), no subscriber map, and
// report and submission bytes shared with every other job that holds the
// same ones.
func TestTerminalJobFootprint(t *testing.T) {
	for i := 0; i < reflect.TypeOf(Job{}).NumField(); i++ {
		if f := reflect.TypeOf(Job{}).Field(i); f.Type == reflect.TypeOf(&WireRequest{}) {
			t.Errorf("Job field %s holds a *WireRequest", f.Name)
		}
	}
	s, cache := newInlineServer(t)
	body := []byte(`{"api":"v1","kind":"consensus","protocol":"cas","procs":3}`)
	cold := runInline(t, s, body)
	a := runInline(t, s, body)
	b := runInline(t, s, body)
	if st := cache.Stats(); st.Hits != 2 {
		t.Fatalf("cache hits %d, want 2 (the second and third jobs)", st.Hits)
	}
	for _, j := range []*Job{cold, a, b} {
		if j.state != JobDone || j.kind != "consensus" || j.ok == nil || !*j.ok {
			t.Fatalf("job %s: state %s, kind %q, ok %v", j.id, j.state, j.kind, j.ok)
		}
		if j.hub.subs != nil {
			t.Errorf("job %s: terminal hub keeps its subscriber map", j.id)
		}
	}
	if unsafe.SliceData(a.report) != unsafe.SliceData(b.report) || unsafe.SliceData(cold.report) != unsafe.SliceData(a.report) {
		t.Error("equal reports are held in separate arrays")
	}
	if unsafe.SliceData(a.raw) != unsafe.SliceData(b.raw) || string(a.raw) != string(body) {
		t.Error("equal submission bodies are held in separate arrays")
	}
}

// BenchmarkTerminalJob serves cache-hit jobs for one body, as serve-warm
// does, and reports the heap each finished job keeps alive in the job
// table (retained-B/job).
func BenchmarkTerminalJob(b *testing.B) {
	s, _ := newInlineServer(b)
	body := []byte(`{"api":"v1","kind":"consensus","protocol":"cas","procs":3,"explore":{"memoize":true}}`)
	runInline(b, s, body) // fills the cache
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runInline(b, s, body)
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(b.N), "retained-B/job")
	runtime.KeepAlive(s)
}
