package explore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/faults"
	"waitfree/internal/program"
)

// segmentBytes resolves idKey, a memo key of one of e's configurations, to
// that configuration's segment bytes (appendConfigBytes): each id's
// segment, with the separator after the object segments.
func segmentBytes(e *explorer, idKey []byte) []byte {
	var b []byte
	for i := 0; i*segIDBytes < len(idKey); i++ {
		if i == len(e.im.Objects) {
			b = append(b, tagSep)
		}
		id := int32(binary.LittleEndian.Uint32(idKey[i*segIDBytes:]))
		b = append(b, e.segIdx.key(id)...)
	}
	return b
}

// TestSegmentKeyBijection checks that a memo key of segment ids names
// exactly one segment-byte rendering: over every corpus protocol, with
// faults off, crash-stop and crash-recovery, two of a tree's memo keys are
// equal exactly when their byte renderings are. Every lookup's key is one
// of the keys the table holds after an unbounded run (a hit finds a key
// some earlier lookup inserted), so the table's keys cover every lookup.
// The segment table itself must hold each encoding once.
func TestSegmentKeyBijection(t *testing.T) {
	models := []struct {
		name string
		fm   faults.Model
	}{{"off", faults.Model{}}, {"crash-stop", oneCrash}, {"crash-recovery", oneRecovery}}
	var hits int64
	for _, im := range consensus.Corpus() {
		for mask := 0; mask < 1<<im.Procs; mask++ {
			props := make([]int, im.Procs)
			for p := range props {
				props[p] = mask >> p & 1
			}
			for _, m := range models {
				checkSegmentKeys(t, fmt.Sprintf("%s/%v/%s", im.Name, props, m.name), im, props, m.fm, &hits)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no memo hits: the keys were never compared")
	}
}

// checkSegmentKeys explores one tree and checks its segment table and
// memo keys (TestSegmentKeyBijection).
func checkSegmentKeys(t *testing.T, name string, im *program.Implementation, props []int, fm faults.Model, hits *int64) {
	t.Helper()
	e, root, err := newExplorer(im, proposalScripts(props), Options{Faults: fm})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.explore(root)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	*hits += res.MemoHits
	segs := map[string]int32{}
	for id := range e.segIdx.recs {
		b := string(e.segIdx.key(int32(id)))
		if prev, dup := segs[b]; dup {
			t.Fatalf("%s: segment %x interned as ids %d and %d", name, b, prev, id)
		}
		segs[b] = int32(id)
	}
	byBytes := map[string]string{}
	byID := map[string]string{}
	for id := range e.memo.ents {
		if e.memo.idx.recs[id].chunk == deadChunk {
			continue
		}
		k := string(e.memo.idx.key(int32(id)))
		b := string(segmentBytes(e, []byte(k)))
		if prev, ok := byBytes[b]; ok && prev != k {
			t.Fatalf("%s: keys %x and %x render the same bytes %x", name, prev, k, b)
		}
		if prev, ok := byID[k]; ok && prev != b {
			t.Fatalf("%s: key %x renders %x and %x", name, k, prev, b)
		}
		byBytes[b], byID[k] = k, b
	}
	if len(byID) == 0 || len(byBytes) != len(byID) {
		t.Fatalf("%s: %d keys, %d byte renderings", name, len(byID), len(byBytes))
	}
}

// TestBreadcrumbBytesFrozen pins the panic breadcrumb and the stall
// heartbeat of the typeShift fixture byte for byte, as the byte-keyed
// memo rendered them: resolving the id key through the segment table
// must give back the same configuration name.
func TestBreadcrumbBytesFrozen(t *testing.T) {
	const key = "030209080001010100000a02000702000603746173000005000000050000" +
		"080001010100000a01020702000603746173000005000000050000"
	e, pe := typeShiftPanic(t)
	if want := "depth 1, config key " + key; pe.Context != want {
		t.Errorf("breadcrumb = %q\nwant %q", pe.Context, want)
	}
	e.ctr = newCounters(1, 1)
	e.ctr.captureKeys = true
	e.flushCounters(1)
	var beat string
	if kp := e.ctr.beats[0].key.Load(); kp != nil {
		beat = *kp
	}
	if beat != key {
		t.Errorf("heartbeat key = %q\nwant %q", beat, key)
	}
}

// FuzzSpillRecord drives the spill record codec. decodeSpillRecord must
// not panic on arbitrary bytes under an arbitrary key; a record stored
// under key must load back under key, miss under any other key, and miss
// once any one byte of it is corrupted.
func FuzzSpillRecord(f *testing.F) {
	sum := &summary{height: 3, nodes: 42, leaves: 7, acc: []int32{0, 2, 5}}
	rec := appendSpillRecord(nil, "raw\nbytes\x00", sum)
	f.Add(rec, []byte("raw\nbytes\x00"), []byte("other"), uint16(7), byte(1))
	f.Add(rec[:len(rec)-1], []byte{}, []byte("raw\nbytes\x00"), uint16(0), byte(0x80))
	f.Add([]byte("sum  \n"), []byte("k"), []byte("k"), uint16(3), byte(' '))
	f.Fuzz(func(t *testing.T, data, key, other []byte, at uint16, flip byte) {
		decodeSpillRecord(key, data)
		acc := make([]int32, len(data)%8)
		for i := range acc {
			acc[i] = int32(data[i]) - 64
		}
		sum := &summary{height: int(at), nodes: int64(len(data)), leaves: int64(flip), acc: acc}
		rec := appendSpillRecord(nil, string(key), sum)
		got, ok := decodeSpillRecord(key, rec)
		if !ok || got.height != sum.height || got.nodes != sum.nodes || got.leaves != sum.leaves ||
			len(got.acc) != len(acc) || (len(acc) > 0 && !reflect.DeepEqual(got.acc, acc)) {
			t.Fatalf("record %q under key %q loaded as %+v, %v; stored %+v", rec, key, got, ok, sum)
		}
		if !bytes.Equal(other, key) {
			if _, ok := decodeSpillRecord(other, rec); ok {
				t.Fatalf("record stored under %q served for key %q", key, other)
			}
		}
		i := int(at) % len(rec)
		rec[i] ^= flip | 1
		if _, ok := decodeSpillRecord(key, rec); ok {
			t.Fatalf("record served after byte %d was corrupted: %q", i, rec)
		}
	})
}

// BenchmarkSpillRoundTrip is one spill store and one load of an entry
// with a sticky/6-sized key (seven segment ids): the record codec, its
// checksum and one write and one read of the spill file.
func BenchmarkSpillRoundTrip(b *testing.B) {
	sp := newMemoSpill(b.TempDir(), nil)
	defer sp.close()
	sum := &summary{height: 12, nodes: 5000, leaves: 700, acc: []int32{3, 4, 1, 2, 2, 2, 2, 2, 2, 5}}
	key := make([]byte, 7*segIDBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint32(key, uint32(i))
		if !sp.store(string(key), sum) {
			b.Fatal("store failed")
		}
		if _, ok := sp.load(key); !ok {
			b.Fatal(fmt.Sprintf("load %d missed", i))
		}
	}
}
