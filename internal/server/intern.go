package server

import (
	"bytes"
	"hash/maphash"
	"sync"

	"waitfree"
)

// internCap bounds the byte intern table. It is cleared whole when full;
// a cleared table only stops sharing, it never changes a byte served.
const internCap = 1024

// byteIntern shares identical immutable byte slices — submission bodies
// and canonical reports — across the jobs that hold them. The daemon
// keeps every terminal job in memory, and repeat submissions of one body
// are the cache-hit traffic the result cache exists for, so without it
// each job would retain its own copy of bytes a thousand others hold too.
type byteIntern struct {
	mu   sync.Mutex
	seed maphash.Seed
	m    map[uint64][]byte
}

func newByteIntern() *byteIntern { return &byteIntern{seed: maphash.MakeSeed()} }

// bytes returns a slice equal to b that may be shared with other callers
// and must never be modified. It never retains b itself, so b may be a
// reused buffer; a nil or empty b is returned as is.
func (t *byteIntern) bytes(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	h := maphash.Bytes(t.seed, b)
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.m[h]; ok && bytes.Equal(cur, b) {
		return cur
	}
	if t.m == nil || len(t.m) >= internCap {
		t.m = make(map[uint64][]byte, internCap)
	}
	cur := bytes.Clone(b)
	t.m[h] = cur // a colliding entry is replaced, not chained
	return cur
}

// jobKinds spell the kinds a compiled request can carry.
var jobKinds = []string{
	string(waitfree.KindConsensus), string(waitfree.KindBound),
	string(waitfree.KindElimination), string(waitfree.KindClassification),
	string(waitfree.KindSynthesis),
}

// internKind returns kind's entry in jobKinds, so a job's kind string is
// static data rather than a separate allocation per job.
func internKind(kind string) string {
	for _, k := range jobKinds {
		if k == kind {
			return k
		}
	}
	return kind
}

// okTrue and okFalse back every job's OK pointer; they are never written.
var okTrue, okFalse = true, false

func okPtr(ok bool) *bool {
	if ok {
		return &okTrue
	}
	return &okFalse
}
