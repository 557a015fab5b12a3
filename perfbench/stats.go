package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssSampler tracks the process's peak resident set size by polling
// /proc/self/statm; the kernel's high-water mark would include set-up.
type rssSampler struct {
	peak atomic.Int64
	stop chan struct{}
	done chan struct{}
}

const rssPollEvery = 5 * time.Millisecond

// startRSS returns set-up's garbage to the OS, then samples until Stop.
func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPollEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return
	}
	if rss := pages * int64(os.Getpagesize()); rss > s.peak.Load() {
		s.peak.Store(rss)
	}
}

// Stop ends sampling and returns the peak in MiB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	return float64(s.peak.Load()) / (1 << 20)
}

// heapCounters reads the process-wide allocation and GC-cycle counters
// without stopping the world.
type heapCounters struct{ allocs, gcs uint64 }

var heapSamples = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readHeap() heapCounters {
	s := make([]rtmetrics.Sample, len(heapSamples))
	copy(s, heapSamples)
	rtmetrics.Read(s)
	return heapCounters{allocs: s[0].Value.Uint64(), gcs: s[1].Value.Uint64()}
}
