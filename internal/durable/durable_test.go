package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"waitfree/internal/envelope"
	"waitfree/internal/explore"
	"waitfree/internal/faults"
	"waitfree/internal/fsx"
)

// sampleCheckpoint builds a representative checkpoint: several trees with
// non-trivial bounds, op-access maps, and decided sets, under a fault
// model, so the round-trip exercises every serialized field.
func sampleCheckpoint(trees int) *explore.Checkpoint {
	cp := &explore.Checkpoint{
		Version: explore.CheckpointVersion,
		Impl:    "sample",
		Procs:   2,
		Values:  2,
		Roots:   4,
		Faults:  faults.Model{MaxCrashes: 1},
	}
	for m := 0; m < trees; m++ {
		cp.Trees = append(cp.Trees, explore.TreeResult{
			Mask:      m,
			Nodes:     100 + int64(m),
			Leaves:    10 + int64(m),
			MemoHits:  int64(m),
			Depth:     5 + m,
			MaxAccess: []int{3, 4},
			OpAccess:  []map[string]int{{"read": 2, "write": 1}, {"tas": 1}},
			ProcSteps: []int{4, 5},
			Decided:   []int{m % 2},
		})
	}
	return cp
}

func TestDurableRoundTrip(t *testing.T) {
	for _, trees := range []int{0, 1, 3} {
		cp := sampleCheckpoint(trees)
		data, err := Encode(cp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("trees=%d: decode: %v", trees, err)
		}
		if !reflect.DeepEqual(cp, got) {
			t.Errorf("trees=%d: round-trip mismatch\nbefore: %+v\nafter:  %+v", trees, cp, got)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp")
	cp := sampleCheckpoint(3)
	if err := Save(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, got) {
		t.Errorf("file round-trip mismatch\nbefore: %+v\nafter:  %+v", cp, got)
	}
	// Overwrite with a different checkpoint: atomic replace, no temp litter.
	if err := Save(path, sampleCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cp" {
		t.Errorf("directory not clean after save: %v", entries)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trees) != 1 {
		t.Errorf("overwrite not visible: %d trees", len(got.Trees))
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("err = %v, want fs.ErrNotExist", err)
	}
}

func TestLoadEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T does not carry *CorruptError", err)
	}
	if ce.Path != path {
		t.Errorf("CorruptError.Path = %q, want %q", ce.Path, path)
	}
	if ce.Salvaged != nil {
		t.Errorf("empty file salvaged %v", ce.Salvaged)
	}
}

func TestLoadLegacyJSON(t *testing.T) {
	cp := sampleCheckpoint(2)
	blob, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, got) {
		t.Errorf("legacy JSON mismatch\nwant: %+v\ngot:  %+v", cp, got)
	}
	// A truncated legacy file has no checksums to salvage from: rejected.
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("truncated legacy file: err = %v, want ErrCorruptCheckpoint", err)
	}
}

// TestTruncationSweep is the torn-write acceptance test: a durable file
// truncated at EVERY byte offset must either decode to a valid salvage (a
// prefix of the original trees) inside an ErrCorruptCheckpoint, or be
// rejected outright — never panic, and never decode successfully to
// anything but the full original.
func TestTruncationSweep(t *testing.T) {
	cp := sampleCheckpoint(4)
	data, err := Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off <= len(data); off++ {
		got, err := Decode(data[:off])
		if off == len(data) {
			if err != nil {
				t.Fatalf("full file rejected: %v", err)
			}
			continue
		}
		if err == nil {
			// Only a file missing nothing but trailing newlines may decode
			// cleanly, and then it must be the complete original — anything
			// else is a silent wrong resume.
			if !reflect.DeepEqual(got, cp) {
				t.Fatalf("offset %d: truncated file decoded cleanly to %+v", off, got)
			}
			continue
		}
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("offset %d: err = %v, want ErrCorruptCheckpoint", off, err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("offset %d: err %T carries no *CorruptError", off, err)
		}
		if ce.Salvaged == nil {
			continue
		}
		// Any salvage must be the original header plus a strict prefix of
		// the original trees.
		s := ce.Salvaged
		if s.Version != cp.Version || s.Impl != cp.Impl || s.Procs != cp.Procs ||
			s.Values != cp.Values || s.Roots != cp.Roots || s.Faults != cp.Faults {
			t.Fatalf("offset %d: salvaged header differs: %+v", off, s)
		}
		if len(s.Trees) > len(cp.Trees) {
			t.Fatalf("offset %d: salvaged %d trees from a file with %d", off, len(s.Trees), len(cp.Trees))
		}
		if len(s.Trees) > 0 && !reflect.DeepEqual(s.Trees, cp.Trees[:len(s.Trees)]) {
			t.Fatalf("offset %d: salvaged trees are not a prefix of the original", off)
		}
	}
}

// TestBitFlipSweep flips every byte of the encoding (one at a time) and
// requires every flip to be detected: the per-line and stream checksums
// leave no byte uncovered.
func TestBitFlipSweep(t *testing.T) {
	data, err := Encode(sampleCheckpoint(2))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x20
		if _, err := Decode(mut); err == nil {
			t.Fatalf("flip at offset %d (byte %q) decoded cleanly", off, data[off])
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	data, err := Encode(sampleCheckpoint(1))
	if err != nil {
		t.Fatal(err)
	}
	mut := append(append([]byte(nil), data...), []byte("tree deadbeef {}\n")...)
	if _, err := Decode(mut); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("data after end record: err = %v, want ErrCorruptCheckpoint", err)
	}
}

// quickRetry keeps fault-schedule tests fast: same shape as
// fsx.DefaultRetry, millisecond backoff.
var quickRetry = fsx.RetryPolicy{Attempts: 3, Base: time.Millisecond}

// A transient read failure no longer aborts a resume: Load retries the
// read like every other disk tier.
func TestLoadRetriesTransientRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	cp := sampleCheckpoint(2)
	if err := Save(path, cp); err != nil {
		t.Fatal(err)
	}
	ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpReadFile, Nth: 1, Err: syscall.EIO})
	got, err := load(ff, quickRetry, path)
	if err != nil {
		t.Fatalf("load with one transient EIO: %v", err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Errorf("retried load mismatch\nwant: %+v\ngot:  %+v", cp, got)
	}
	if n := ff.CountOf(fsx.OpReadFile); n != 2 {
		t.Errorf("ReadFile attempted %d times, want 2", n)
	}
}

// Corruption is a property of the bytes: a bit flipped in flight is
// reported as *CorruptError after exactly one read.
func TestLoadBitFlipNotRetried(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	if err := Save(path, sampleCheckpoint(2)); err != nil {
		t.Fatal(err)
	}
	ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpReadFile, Nth: 1, Kind: fsx.FaultBitFlip})
	_, err := load(ff, quickRetry, path)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Path != path {
		t.Fatalf("err = %v, want *CorruptError for %s", err, path)
	}
	if n := ff.CountOf(fsx.OpReadFile); n != 1 {
		t.Errorf("ReadFile attempted %d times, want 1", n)
	}
}

// A missing file is a fresh start, not a fault: one attempt, no retry.
func TestLoadMissingFileOneAttempt(t *testing.T) {
	ff := fsx.NewFaultFS(nil, 1)
	_, err := load(ff, quickRetry, filepath.Join(t.TempDir(), "nope"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
	if n := ff.CountOf(fsx.OpReadFile); n != 1 {
		t.Errorf("ReadFile attempted %d times, want 1", n)
	}
}

// TestEncodeIsEnvelope pins the mapping: a checkpoint file is exactly the
// envelope of its header (Trees omitted) and one JSON record per tree.
func TestEncodeIsEnvelope(t *testing.T) {
	for _, trees := range []int{0, 1, 4} {
		cp := sampleCheckpoint(trees)
		got, err := Encode(cp)
		if err != nil {
			t.Fatal(err)
		}
		head := *cp
		head.Trees = nil
		meta, err := json.Marshal(&head)
		if err != nil {
			t.Fatal(err)
		}
		var records [][]byte
		for i := range cp.Trees {
			rec, err := json.Marshal(&cp.Trees[i])
			if err != nil {
				t.Fatal(err)
			}
			records = append(records, rec)
		}
		if want := envelope.Encode(Magic, "tree", meta, records); !bytes.Equal(got, want) {
			t.Errorf("trees=%d: Encode differs from envelope.Encode(Magic, \"tree\", ...)", trees)
		}
	}
}

// goldenPath is a checkpoint written by an earlier engine and committed
// with the flat-parity goldens.
var goldenPath = filepath.Join("..", "..", "testdata", "flatparity", "resume_sticky3.wfcp")

// TestGoldenRoundTrip: the committed checkpoint loads and re-encodes byte
// for byte, through this package and through the bare envelope codec.
func TestGoldenRoundTrip(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Load(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Error("golden checkpoint does not re-encode byte-identically")
	}
	meta, records, err := envelope.Decode(Magic, "tree", data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(envelope.Encode(Magic, "tree", meta, records), data) {
		t.Error("golden checkpoint does not round-trip through envelope.Decode/Encode")
	}
}
