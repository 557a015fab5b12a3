package envelope

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"waitfree/internal/fsx"
)

// quickRetry keeps fault-schedule tests fast: same shape as
// fsx.DefaultRetry, millisecond backoff.
var quickRetry = fsx.RetryPolicy{Attempts: 3, Base: time.Millisecond}

// writeTest writes the testRecords envelope to path through fsys.
func writeTest(ctx context.Context, fsys fsx.FS, policy fsx.RetryPolicy, path string) error {
	header, records := testRecords()
	return WriteFile(ctx, fsys, policy, path, testMagic, testKind, header, records)
}

// readTest reads path back as a testRecords envelope on the real
// filesystem.
func readTest(path string) error {
	_, _, err := ReadFile(context.Background(), nil, quickRetry, path, testMagic, testKind)
	return err
}

func TestWriteFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob.env")
	header, records := testRecords()
	if err := WriteFile(context.Background(), nil, fsx.DefaultRetry, path, testMagic, testKind, header, records); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, Encode(testMagic, testKind, header, records)) {
		t.Fatal("file contents differ from written data")
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("stat: %v, mode %v", err, fi.Mode())
	}
	gotHeader, gotRecords, err := ReadFile(context.Background(), nil, fsx.DefaultRetry, path, testMagic, testKind)
	if err != nil || !bytes.Equal(gotHeader, header) || !reflect.DeepEqual(gotRecords, records) {
		t.Fatalf("ReadFile = %q, %q, %v", gotHeader, gotRecords, err)
	}
}

// TestWriteFileOpTrace pins the op sequence of one save — the on-disk
// cost every tier pays per write (two fsyncs: the file and its
// directory) — and that every op goes through the caller's fsys.
func TestWriteFileOpTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	ff := fsx.NewFaultFS(nil, 1)
	if err := writeTest(context.Background(), ff, quickRetry, path); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ff.Trace() {
		got = append(got, string(e.Op))
		if e.Injected {
			t.Errorf("unexpected injection: %+v", e)
		}
		switch e.Op {
		case fsx.OpCreateTemp, fsx.OpSyncDir:
			if e.Path != dir {
				t.Errorf("%s on %q, want the destination directory %q", e.Op, e.Path, dir)
			}
		case fsx.OpRename:
			if e.Path != path {
				t.Errorf("rename onto %q, want %q", e.Path, path)
			}
		case fsx.OpWrite, fsx.OpSync, fsx.OpClose:
			if base := filepath.Base(e.Path); !strings.HasPrefix(base, ".checkpoint-") || !strings.HasSuffix(base, ".tmp") {
				t.Errorf("%s on %q, want the .checkpoint-*.tmp temp file", e.Op, e.Path)
			}
		}
	}
	want := []string{"createtemp", "write", "sync", "close", "rename", "syncdir"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("op sequence = %v, want %v", got, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != "blob" {
		t.Errorf("directory after save = %v, %v; want just the destination", entries, err)
	}
}

func TestSaveRetriesTransientFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")

	// Two transient rename failures: absorbed by the three-attempt policy.
	ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpRename, Nth: 1, Count: 2, Err: syscall.EIO})
	if err := writeTest(context.Background(), ff, quickRetry, path); err != nil {
		t.Fatalf("save with 2 transient failures: %v", err)
	}
	if err := readTest(path); err != nil {
		t.Fatalf("load after retried save: %v", err)
	}
	if got := ff.CountOf(fsx.OpRename); got != 3 {
		t.Errorf("rename attempted %d times, want 3", got)
	}

	// A rename that fails on every attempt: the policy gives up with an
	// error naming the attempt count.
	ff = fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpRename, Nth: 1, Count: -1, Err: syscall.EIO})
	err := writeTest(context.Background(), ff, quickRetry, path)
	if err == nil {
		t.Fatal("save succeeded with a permanently failing rename")
	}
	if !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), "attempts") {
		t.Errorf("persistent-failure error = %v", err)
	}
	// The prior good file must be untouched by the failed overwrite.
	if err := readTest(path); err != nil {
		t.Errorf("failed save clobbered the existing file: %v", err)
	}
}

// A permanent fault (the out-of-space class) must not burn the backoff
// schedule: one attempt, immediate surfacing.
func TestSavePermanentFaultBailsImmediately(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpCreateTemp, Nth: 1, Count: -1, Err: syscall.ENOSPC})
	err := writeTest(context.Background(), ff, quickRetry, path)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if got := ff.CountOf(fsx.OpCreateTemp); got != 1 {
		t.Errorf("ENOSPC retried: %d CreateTemp attempts, want 1", got)
	}
}

// A torn write is caught before the rename: the half-written temp file is
// discarded and the retry writes a fresh one, so the destination never
// holds a torn byte.
func TestSaveTornWriteNeverPublishesPartialBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpWrite, Nth: 1, Kind: fsx.FaultTorn, Err: syscall.EIO})
	if err := writeTest(context.Background(), ff, quickRetry, path); err != nil {
		t.Fatalf("save with one torn write: %v", err)
	}
	if err := readTest(path); err != nil {
		t.Fatalf("load after torn-write retry: %v", err)
	}
	// The discarded temp file must not linger next to the destination.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after torn-write retry, want just the destination", len(entries))
	}
}

// TestWriteFileContextCancellation pins the cancellable retry: a caller
// shutting down over a failing disk must get out of the backoff schedule
// as soon as its context dies, with an error naming both the cancellation
// and the underlying write failure — and must not wait out the remaining
// backoff (pinned by an hour-long backoff that would hang the test if
// slept).
func TestWriteFileContextCancellation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpRename, Nth: 1, Count: -1, Err: syscall.EIO})
	slow := fsx.RetryPolicy{Attempts: 3, Base: time.Hour}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- writeTest(ctx, ff, slow, path) }()
	// The first attempt fails immediately; the goroutine is now parked in
	// the hour-long backoff. Cancel and require a prompt return.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if !strings.Contains(err.Error(), "last error") {
			t.Errorf("error %q does not carry the underlying write failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WriteFile did not return after cancellation")
	}

	// An already-cancelled context still permits the first attempt (no
	// retry needed on a healthy disk): atomicity and forward progress win
	// over eager cancellation checks.
	if err := writeTest(ctx, nil, fsx.DefaultRetry, path); err != nil {
		t.Fatalf("first-attempt save under a dead context: %v", err)
	}
	header, records := testRecords()
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, Encode(testMagic, testKind, header, records)) {
		t.Fatalf("saved file = %q, %v", data, err)
	}
}

// A filesystem that cannot fsync directories (EINVAL/EOPNOTSUPP) stays
// best-effort: the write succeeds.
func TestWriteAtomicDirSyncUnsupported(t *testing.T) {
	for _, unsupported := range []error{syscall.EINVAL, syscall.EOPNOTSUPP} {
		ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpSyncDir, Nth: 1, Count: -1, Err: unsupported})
		path := filepath.Join(t.TempDir(), "blob")
		if err := writeAtomic(ff, path, []byte("x")); err != nil {
			t.Errorf("dir sync %v should be best-effort, got %v", unsupported, err)
		}
	}
}

// A real I/O failure on the directory sync means the rename may not be
// durable; it must surface instead of being swallowed.
func TestWriteAtomicDirSyncIOError(t *testing.T) {
	ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpSyncDir, Nth: 1, Err: syscall.EIO})
	path := filepath.Join(t.TempDir(), "blob")
	err := writeAtomic(ff, path, []byte("x"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("dir sync EIO swallowed: got %v", err)
	}
}

// A transient read failure is retried under the policy and absorbed.
func TestReadFileRetriesTransientRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	if err := writeTest(context.Background(), nil, quickRetry, path); err != nil {
		t.Fatal(err)
	}
	ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpReadFile, Nth: 1, Err: syscall.EIO})
	header, records, err := ReadFile(context.Background(), ff, quickRetry, path, testMagic, testKind)
	wantHeader, wantRecords := testRecords()
	if err != nil || !bytes.Equal(header, wantHeader) || !reflect.DeepEqual(records, wantRecords) {
		t.Fatalf("ReadFile = %q, %q, %v", header, records, err)
	}
	if got := ff.CountOf(fsx.OpReadFile); got != 2 {
		t.Errorf("ReadFile attempted %d times, want 2", got)
	}
}

// An integrity failure is a property of the bytes: it is never retried,
// and the verified prefix comes back with the error.
func TestReadFileCorruptNotRetried(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	header, records := testRecords()
	data := bytes.Replace(Encode(testMagic, testKind, header, records), []byte(`{"n":2}`), []byte(`{"n":9}`), 1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ff := fsx.NewFaultFS(nil, 1)
	gotHeader, gotRecords, err := ReadFile(context.Background(), ff, quickRetry, path, testMagic, testKind)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if !bytes.Equal(gotHeader, header) || len(gotRecords) != 1 || !bytes.Equal(gotRecords[0], records[0]) {
		t.Errorf("salvaged %q, %q; want the header and record 1", gotHeader, gotRecords)
	}
	if got := ff.CountOf(fsx.OpReadFile); got != 1 {
		t.Errorf("corrupt file read %d times, want 1", got)
	}

	// A bit flipped in flight is caught the same way, also without a retry.
	if err := writeTest(context.Background(), nil, quickRetry, path); err != nil {
		t.Fatal(err)
	}
	ff = fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpReadFile, Nth: 1, Kind: fsx.FaultBitFlip})
	if _, _, err := ReadFile(context.Background(), ff, quickRetry, path, testMagic, testKind); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped read: err = %v, want ErrCorrupt", err)
	}
	if got := ff.CountOf(fsx.OpReadFile); got != 1 {
		t.Errorf("bit-flipped file read %d times, want 1", got)
	}
}

// A missing file is permanent: one attempt, fs.ErrNotExist.
func TestReadFileMissing(t *testing.T) {
	ff := fsx.NewFaultFS(nil, 1)
	_, _, err := ReadFile(context.Background(), ff, quickRetry, filepath.Join(t.TempDir(), "nope"), testMagic, testKind)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
	if got := ff.CountOf(fsx.OpReadFile); got != 1 {
		t.Errorf("missing file read %d times, want 1", got)
	}
}
