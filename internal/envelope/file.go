package envelope

import (
	"context"
	"fmt"
	"path/filepath"

	"waitfree/internal/fsx"
)

// ReadFile loads and decodes the envelope at path through fsys (nil = the
// real filesystem). The read is retried under policy; the decode is not —
// an integrity failure is a property of the bytes, so retrying cannot
// help. The Decode contract is unchanged: on integrity failure the error
// wraps ErrCorrupt and the returned header/records are the longest
// individually-verified prefix, so callers may salvage even when the
// envelope as a whole is rejected. A read error that outlives the policy
// is returned wrapping the underlying error (callers distinguish
// fs.ErrNotExist, which is never retried, from real I/O failures).
func ReadFile(ctx context.Context, fsys fsx.FS, policy fsx.RetryPolicy, path, magic, kind string) (header []byte, records [][]byte, err error) {
	resolved := fsx.Or(fsys)
	var data []byte
	if err := policy.Do(ctx, func() error {
		var rerr error
		data, rerr = resolved.ReadFile(path)
		return rerr
	}); err != nil {
		return nil, nil, err
	}
	return Decode(magic, kind, data)
}

// WriteFile atomically replaces path with the envelope of header and
// records: the encoded bytes go to a temp file in the same directory, are
// fsynced, renamed over path, and the directory is fsynced, so a crash at
// any instant leaves either the old file or the new one — never a torn
// mix. Every op runs on the caller's goroutine through fsys (nil = the
// real filesystem). Transient failures retry with the policy's capped
// jittered backoff; permanent ones (ENOSPC and kin — fsx.IsPermanent)
// surface immediately. Cancellation mid-retry returns an error wrapping
// both ctx.Err() and the last write failure; an in-flight write itself is
// not interrupted.
func WriteFile(ctx context.Context, fsys fsx.FS, policy fsx.RetryPolicy, path, magic, kind string, header []byte, records [][]byte) error {
	data := Encode(magic, kind, header, records)
	resolved := fsx.Or(fsys)
	if err := policy.Do(ctx, func() error {
		return writeAtomic(resolved, path, data)
	}); err != nil {
		return fmt.Errorf("envelope: write %s: %w", path, err)
	}
	return nil
}

// writeAtomic performs one temp-file/fsync/rename/dir-sync write attempt
// through fsys. It is the unit the retry policy wraps: any failure leaves
// path untouched (old contents or absent), never torn.
func writeAtomic(fsys fsx.FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, ".checkpoint-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	// CreateTemp opens 0600; envelopes are shareable run state like any
	// report file, so match the historical os.WriteFile(0644) permissions.
	if err := f.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return syncDir(fsys, dir)
}

// syncDir persists a rename by fsyncing its directory. Some filesystems
// cannot sync directories at all and report EINVAL or EOPNOTSUPP — those
// stay best-effort (the rename is already atomic on the filesystems that
// matter) — but a real I/O failure (EIO, ENOSPC, ...) means the rename may
// not be durable and must surface to the caller instead of being
// swallowed.
func syncDir(fsys fsx.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil && !fsx.IsSyncUnsupported(err) {
		return fmt.Errorf("envelope: sync dir %s: %w", dir, err)
	}
	return nil
}
