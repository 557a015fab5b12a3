package server

import (
	"bytes"
	"sync"
	"testing"

	"waitfree"
)

// wireAcceptBodies are well-formed submissions covering every kind, the
// fault modes, a Section 5.3 substrate and the option subset.
var wireAcceptBodies = []string{
	`{"api":"v1","kind":"consensus","protocol":"cas"}`,
	`{"api":"v1","kind":"consensus","protocol":"cas","procs":3,"values":3,"explore":{"memoize":true}}`,
	`{"api":"v1","kind":"consensus","protocol":"sticky","procs":5,"explore":{"symmetry":"off","max_depth":64,"parallelism":2,"max_nodes":1000,"stall_after_ms":50}}`,
	`{"api":"v1","kind":"consensus","protocol":"naive","explore":{"memoize":true,"faults":{"max_crashes":1,"mode":"crash-recovery","max_recoveries":1}}}`,
	`{"api":"v1","kind":"consensus","protocol":"augqueue","procs":4,"explore":{"faults":{"max_crashes":1,"mode":"crash-start"}}}`,
	`{"api":"v1","kind":"bound","protocol":"queue"}`,
	`{"api":"v1","kind":"bound","protocol":"fetchcons","procs":5}`,
	`{"api":"v1","kind":"elimination","protocol":"tas","timeout_ms":1}`,
	`{"api":"v1","kind":"elimination","protocol":"noisysticky-r","max_k":2}`,
	`{"api":"v1","kind":"elimination","protocol":"swap","substrate":"noisysticky"}`,
	`{"api":"v1","kind":"classification"}`,
	`{"api":"v1","kind":"synthesis","objects":"cas","synthesis":{"depth":1,"symmetric":true,"budget":50000000}}`,
}

// warmBodies are the 40 submissions of the serve-warm benchmark workload:
// cas, sticky, augqueue and fetchcons at 3 to 5 processes as consensus,
// crash-stop consensus and bound jobs, cas/5 and fetchcons/5 consensus
// without memoize, and cas/3 and fetchcons/3 elimination.
func warmBodies() [][]byte {
	var out [][]byte
	add := func(kind, protocol string, procs int, memoize bool, faults *WireFaults) {
		w := WireRequest{API: APIVersion, Kind: kind, Protocol: protocol, Procs: procs}
		w.Explore.Memoize = memoize
		w.Explore.Parallelism = 2
		w.Explore.Faults = faults
		out = append(out, mustJSON(w))
	}
	for _, p := range []string{"cas", "sticky", "augqueue", "fetchcons"} {
		for n := 3; n <= 5; n++ {
			add("consensus", p, n, true, nil)
			add("consensus", p, n, true, &WireFaults{MaxCrashes: 1, Mode: "crash-stop"})
			add("bound", p, n, true, nil)
		}
	}
	add("consensus", "cas", 5, false, nil)
	add("consensus", "fetchcons", 5, false, nil)
	add("elimination", "cas", 3, true, nil)
	add("elimination", "fetchcons", 3, true, nil)
	return out
}

// TestCompileSharesProtocols checks the compiled-protocol table: two
// compiles of one (protocol, procs) pair, substrate included, return the
// same implementation, while another process count gets its own.
func TestCompileSharesProtocols(t *testing.T) {
	compile := func(body string) waitfree.Request {
		t.Helper()
		_, req, err := DecodeWire([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	a := compile(`{"api":"v1","kind":"elimination","protocol":"noisysticky-r"}`)
	b := compile(`{"api":"v1","kind":"elimination","protocol":"noisysticky-r","max_k":2}`)
	if a.Implementation != b.Implementation || a.Substrate != b.Substrate || a.Substrate == nil {
		t.Error("repeat compiles of noisysticky-r built new implementations")
	}
	if sub := compile(`{"api":"v1","kind":"consensus","protocol":"noisysticky"}`); sub.Implementation != a.Substrate {
		t.Error("the substrate and the protocol of the same name are different implementations")
	}
	c3 := compile(`{"api":"v1","kind":"consensus","protocol":"cas","procs":3}`)
	c4 := compile(`{"api":"v1","kind":"bound","protocol":"cas","procs":4}`)
	if c3.Implementation == c4.Implementation || c4.Implementation.Procs != 4 {
		t.Error("cas/3 and cas/4 share an implementation")
	}
	if again := compile(`{"api":"v1","kind":"bound","protocol":"cas","procs":3}`); again.Implementation != c3.Implementation {
		t.Error("cas/3 compiled twice built two implementations")
	}
}

// FuzzDecodeWire feeds arbitrary bodies to DecodeWire: it must never
// panic, every failure must carry the bad_request or unknown_protocol
// code, and a body it accepts must compile to a request of its kind. Any
// procs value reaches the compiled-protocol table, so the fuzzer also
// drives that table past its capacity.
func FuzzDecodeWire(f *testing.F) {
	for _, c := range wireRejectCases {
		f.Add([]byte(c.body))
	}
	for _, body := range wireAcceptBodies {
		f.Add([]byte(body))
	}
	for _, body := range warmBodies() {
		f.Add(body)
	}
	f.Add([]byte(`{"api":"v1","kind":"consensus","protocol":"sticky","procs":8,"explore":{"symmetry":"off"}}`))
	f.Add([]byte(`{"api":"v1","kind":"consensus","protocol":"cas","procs":9223372036854775807}`))
	f.Add([]byte(`{"api":"v1","kind":"consensus","protocol":"cas","procs":-3}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		w, req, err := DecodeWire(body)
		if err != nil {
			if code := waitfree.ErrorCode(err); code != waitfree.CodeBadRequest && code != waitfree.CodeUnknownProtocol {
				t.Fatalf("error %v has code %q", err, code)
			}
			return
		}
		if string(req.Kind) != w.Kind {
			t.Fatalf("kind %q compiled to %q", w.Kind, req.Kind)
		}
		if needsImpl := req.Kind == waitfree.KindConsensus || req.Kind == waitfree.KindBound ||
			req.Kind == waitfree.KindElimination; needsImpl != (req.Implementation != nil) {
			t.Fatalf("kind %q compiled with implementation %v", req.Kind, req.Implementation)
		}
		protocolMemo.Lock()
		n := len(protocolMemo.m)
		protocolMemo.Unlock()
		if n > protocolMemoCap {
			t.Fatalf("compiled-protocol table holds %d entries, cap %d", n, protocolMemoCap)
		}
	})
}

// BenchmarkDecodeWire decodes and compiles serve-warm's submissions
// round-robin, one body per op: the work submit and runJob each repeat
// for every job.
func BenchmarkDecodeWire(b *testing.B) {
	bodies := warmBodies()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeWire(bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSharedTablesConcurrent compiles serve-warm's bodies and interns
// them from several goroutines at once, as concurrent submissions and
// pool workers do. Run it under -race.
func TestSharedTablesConcurrent(t *testing.T) {
	bodies := warmBodies()
	in := newByteIntern()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4*len(bodies); i++ {
				body := bodies[(i+w)%len(bodies)]
				wire, req, err := DecodeWire(body)
				if err != nil {
					t.Error(err)
					return
				}
				if req.Implementation == nil || (wire.Procs != 0 && req.Implementation.Procs != wire.Procs) {
					t.Errorf("%s compiled to %+v", body, req.Implementation)
					return
				}
				if got := in.bytes(body); !bytes.Equal(got, body) {
					t.Errorf("interned %s as %s", body, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
