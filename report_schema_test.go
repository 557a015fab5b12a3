package waitfree

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"waitfree/internal/explore"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// The v1 report schema is pinned by a golden file: a canonical CAS(2)
// consensus report must marshal byte-identically to
// testdata/report_v1.golden.json. A failure here means the JSON shape
// changed — rename, retype, reorder, or removal — which is a wire-contract
// break: either revert the change or bump ReportSchema and regenerate
// with `go test -run TestReportGolden -update .`.
func TestReportGoldenV1(t *testing.T) {
	im, err := BuildProtocol("cas", 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(context.Background(), Request{
		Kind:           KindConsensus,
		Implementation: im,
		Explore:        ExploreOptions{Parallelism: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Engine counters ride in Stats, which Canonicalize strips: the live
	// report carries them, the pinned bytes never do.
	if s := rep.Consensus.Stats; s == nil || s.MemoResident == 0 || s.MemoKeyBytes == 0 {
		t.Fatalf("live report lacks the memo counters: %+v", s)
	}
	rep.Canonicalize()
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "report_v1.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report JSON diverged from the pinned v1 schema.\ngot:\n%s\nwant:\n%s\n(an intentional change must bump ReportSchema and regenerate with -update)", got, want)
	}
}

func TestReportSchemaStamp(t *testing.T) {
	im, err := BuildProtocol("sticky", 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(context.Background(), Request{Kind: KindConsensus, Implementation: im})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema {
		t.Fatalf("fresh report carries schema %d, want %d", rep.Schema, ReportSchema)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(data)
	if err != nil {
		t.Fatalf("DecodeReport round trip: %v", err)
	}
	if back.Kind != rep.Kind || back.Schema != ReportSchema {
		t.Fatalf("round trip lost the discriminators: kind=%q schema=%d", back.Kind, back.Schema)
	}
	re, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, re) {
		t.Error("marshal → DecodeReport → marshal is not byte-identical")
	}
}

func TestDecodeReportRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"garbage", "not json"},
		{"missing schema", `{"kind":"consensus","elapsed_ns":0}`},
		{"future schema", `{"schema":99,"kind":"consensus","elapsed_ns":0}`},
		{"unknown kind", `{"schema":1,"kind":"mystery","elapsed_ns":0}`},
	}
	for _, c := range cases {
		if _, err := DecodeReport([]byte(c.data)); !errors.Is(err, ErrBadReport) {
			t.Errorf("%s: got %v, want ErrBadReport", c.name, err)
		}
	}
}

// TestDecodeReportViolationKinds round-trips a violating report through
// DecodeReport once per violation kind, byte-identically, and checks that
// an unknown kind tag is rejected with ErrBadReport rather than decoded as
// a zero kind.
func TestDecodeReportViolationKinds(t *testing.T) {
	im, err := BuildProtocol("naive", 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(context.Background(), Request{Kind: KindConsensus, Implementation: im})
	if err != nil {
		t.Fatal(err)
	}
	rep.Canonicalize()
	if rep.Consensus == nil || rep.Consensus.Violation == nil {
		t.Fatal("naive protocol produced no violation")
	}
	for kind := explore.KindDepthExceeded; kind <= explore.KindDecisionChangedAfterRecovery; kind++ {
		rep.Consensus.Violation.Kind = kind
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeReport(data)
		if err != nil {
			t.Fatalf("%v: DecodeReport: %v", kind, err)
		}
		if got := back.Consensus.Violation.Kind; got != kind {
			t.Errorf("%v: decoded as %v", kind, got)
		}
		re, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, re) {
			t.Errorf("%v: marshal → DecodeReport → marshal is not byte-identical", kind)
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{`"mystery"`, `"unknown"`, `""`, `3`} {
		bad := bytes.Replace(data, []byte(`"kind":"decision-changed-after-recovery"`), []byte(`"kind":`+tag), 1)
		if bytes.Equal(bad, data) {
			t.Fatal("violation kind tag not found in the encoded report")
		}
		if _, err := DecodeReport(bad); !errors.Is(err, ErrBadReport) {
			t.Errorf("kind %s: got %v, want ErrBadReport", tag, err)
		}
	}
}
