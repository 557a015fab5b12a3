package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one
// request share rid; parent is the index of the enclosing span, or -1.
type span struct {
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Parent int       `json:"parent"`
	RID    string    `json:"rid"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory; they are written out once the run ends.
// Each tracer is filled by one goroutine.
type tracer struct {
	spans []span
}

// add records a span and returns its index for use as a parent.
func (t *tracer) add(name, rid string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, RID: rid})
	return len(t.spans) - 1
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		covered := coverage(s.Start, s.End, spans, children[i])
		out[s.layer()] += s.End.Sub(s.Start) - covered
	}
	return out
}

// coverage is the length of [start, end] covered by the union of the
// given spans' intervals.
func coverage(start, end time.Time, spans []span, idx []int) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, i := range idx {
		a, b := spans[i].Start, spans[i].End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for k, v := range ivs {
		switch {
		case k == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeSpans writes the spans as JSON lines under dir and returns the
// file's path.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, f.Close()
}
