package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"waitfree"
	"waitfree/internal/server"
)

// oracle judges served reports. A report is correct when it decodes with
// waitfree.DecodeReport, its verdict matches the registry, and its bytes
// equal the canonicalized report of a direct waitfree.Check of the same
// compiled request. Direct reports are computed untimed, once per
// distinct request body.
type oracle struct {
	want    map[string][]byte
	checked map[[2][32]byte]error
}

func newOracle() *oracle {
	return &oracle{want: map[string][]byte{}, checked: map[[2][32]byte]error{}}
}

// canonicalJSON is the daemon's report encoding: Canonicalize, then
// json.Marshal.
func canonicalJSON(rep *waitfree.Report) ([]byte, error) {
	rep.Canonicalize()
	return json.Marshal(rep)
}

// direct returns the canonical report of a direct, uncached Check of r.
func (o *oracle) direct(r request) ([]byte, error) {
	if b, ok := o.want[string(r.body)]; ok {
		return b, nil
	}
	_, req, err := server.DecodeWire(r.body)
	if err != nil {
		return nil, fmt.Errorf("oracle: compile %s: %w", r.body, err)
	}
	rep, err := waitfree.Check(context.Background(), req)
	if err != nil {
		return nil, fmt.Errorf("oracle: direct check %s: %w", r.body, err)
	}
	b, err := canonicalJSON(rep)
	if err != nil {
		return nil, fmt.Errorf("oracle: encode %s: %w", r.body, err)
	}
	o.want[string(r.body)] = b
	return b, nil
}

// verify judges one served report for request r.
func (o *oracle) verify(r request, report []byte) error {
	key := [2][32]byte{sha256.Sum256(r.body), sha256.Sum256(report)}
	if err, ok := o.checked[key]; ok {
		return err
	}
	err := o.judge(r, report)
	o.checked[key] = err
	return err
}

func (o *oracle) judge(r request, report []byte) error {
	rep, err := waitfree.DecodeReport(report)
	if err != nil {
		return fmt.Errorf("served report for %s does not decode: %w", r.body, err)
	}
	if rep.OK() != r.expectOK() {
		return fmt.Errorf("served report for %s has verdict ok=%v, registry expects ok=%v", r.body, rep.OK(), r.expectOK())
	}
	want, err := o.direct(r)
	if err != nil {
		return err
	}
	if !bytes.Equal(report, want) {
		return fmt.Errorf("served report for %s differs from the direct check's (%d vs %d bytes)", r.body, len(report), len(want))
	}
	return nil
}

// reportPool interns served report bytes so a long run keeps one copy of
// each distinct report, not one per op.
type reportPool struct {
	mu sync.Mutex
	m  map[[32]byte][]byte
}

func newReportPool() *reportPool { return &reportPool{m: map[[32]byte][]byte{}} }

func (p *reportPool) intern(b []byte) []byte {
	h := sha256.Sum256(b)
	p.mu.Lock()
	defer p.mu.Unlock()
	if have, ok := p.m[h]; ok {
		return have
	}
	p.m[h] = b
	return b
}
