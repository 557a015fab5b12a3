// Package durable persists explore.Checkpoint values with integrity
// guarantees the bare JSON file of the early CLIs lacked: writes are
// atomic (temp file + rename + fsync, retried with backoff on transient
// errors), every record carries a SHA-256 checksum, and loads are
// corruption-aware — a torn or bit-rotted file is rejected with a
// structured *CorruptError instead of being resumed silently, and the
// longest valid prefix of tree results is salvaged whenever possible.
//
// A checkpoint file is an internal/envelope file with magic Magic and
// record kind "tree"; this package is only the checkpoint ↔ envelope
// mapping:
//
//	waitfree-checkpoint v1
//	meta <sha256-hex> <checkpoint header as compact JSON, Trees omitted>
//	tree <sha256-hex> <one TreeResult as compact JSON>
//	...
//	end <sha256-hex> <tree count> <sha256-hex of every preceding byte>
//
// Because a consensus checkpoint is a set of independent per-tree
// results, any checksummed prefix of tree records is itself a sound
// resume state — the engine simply re-explores whatever was lost.
//
// Files written by the pre-durable CLIs (bare JSON, first byte '{') are
// still accepted on load, all-or-nothing: legacy files embed no
// checksums, so a torn legacy file is rejected without salvage.
package durable

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"waitfree/internal/envelope"
	"waitfree/internal/explore"
	"waitfree/internal/fsx"
)

// Magic is the first line of every durable checkpoint file; the trailing
// version is the format (not engine) version.
const Magic = "waitfree-checkpoint v1"

// ErrCorruptCheckpoint is the sentinel wrapped by every integrity failure:
// empty files, torn writes, checksum mismatches, and malformed records.
// Use errors.As to retrieve the *CorruptError carrying the salvaged
// prefix.
var ErrCorruptCheckpoint = errors.New("durable: corrupt checkpoint")

// CorruptError describes a checkpoint that failed integrity validation.
type CorruptError struct {
	// Path is the offending file ("" when decoding from memory).
	Path string
	// Reason says what failed, in terms of the envelope's lines and
	// records.
	Reason string
	// Salvaged is the longest valid prefix of the file: the checkpoint
	// header plus every tree record whose checksum verified before the
	// first bad byte. It is nil when not even the header survived.
	// Resuming from it is sound — lost trees are simply re-explored — but
	// callers must opt in explicitly; Load returns it alongside the error,
	// never instead of it.
	Salvaged *explore.Checkpoint
}

func (e *CorruptError) Error() string {
	where := e.Path
	if where == "" {
		where = "checkpoint"
	}
	s := fmt.Sprintf("%v: %s: %s", ErrCorruptCheckpoint, where, e.Reason)
	if e.Salvaged != nil {
		s += fmt.Sprintf(" (%d of %d trees salvageable)", len(e.Salvaged.Trees), e.Salvaged.Roots)
	}
	return s
}

// Unwrap makes errors.Is(err, ErrCorruptCheckpoint) hold.
func (e *CorruptError) Unwrap() error { return ErrCorruptCheckpoint }

// treeKind is the envelope record kind of one finished proposal tree.
const treeKind = "tree"

// Encode renders cp as the envelope with magic Magic: the checkpoint with
// Trees omitted is the header, and each tree is one JSON record.
func Encode(cp *explore.Checkpoint) ([]byte, error) {
	meta, trees, err := marshal(cp)
	if err != nil {
		return nil, err
	}
	return envelope.Encode(Magic, treeKind, meta, trees), nil
}

// marshal splits cp into the envelope's header and records.
func marshal(cp *explore.Checkpoint) (meta []byte, trees [][]byte, err error) {
	head := *cp
	head.Trees = nil
	if meta, err = json.Marshal(&head); err != nil {
		return nil, nil, err
	}
	for i := range cp.Trees {
		tree, err := json.Marshal(&cp.Trees[i])
		if err != nil {
			return nil, nil, err
		}
		trees = append(trees, tree)
	}
	return meta, trees, nil
}

// corrupt builds the decode failure for reason, attaching whatever prefix
// was salvaged so far.
func corrupt(salvaged *explore.Checkpoint, format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...), Salvaged: salvaged}
}

// Decode parses data as a durable checkpoint (or a legacy bare-JSON one)
// and validates every checksum. On any integrity failure it returns a
// *CorruptError wrapping ErrCorruptCheckpoint; if the header and a prefix
// of tree records verified before the failure, the error carries that
// prefix in Salvaged.
func Decode(data []byte) (*explore.Checkpoint, error) {
	if len(data) == 0 {
		return nil, corrupt(nil, "empty file")
	}
	if data[0] == '{' {
		// Legacy bare-JSON checkpoint (written by pre-durable CLIs): no
		// embedded checksums, so acceptance is all-or-nothing.
		cp := &explore.Checkpoint{}
		if err := json.Unmarshal(data, cp); err != nil {
			return nil, corrupt(nil, "legacy JSON checkpoint is malformed or truncated: %v", err)
		}
		return cp, nil
	}
	meta, trees, envErr := envelope.Decode(Magic, treeKind, data)
	if envErr != nil && meta == nil {
		return nil, corrupt(nil, "%s", reason(envErr))
	}
	cp := &explore.Checkpoint{}
	if err := json.Unmarshal(meta, cp); err != nil {
		return nil, corrupt(nil, "meta payload: %v", err)
	}
	for i, tree := range trees {
		var tr explore.TreeResult
		if err := json.Unmarshal(tree, &tr); err != nil {
			return nil, corrupt(cp, "tree record %d: %v", i+1, err)
		}
		cp.Trees = append(cp.Trees, tr)
	}
	if envErr != nil {
		return nil, corrupt(cp, "%s", reason(envErr))
	}
	return cp, nil
}

// reason is an envelope integrity failure without its sentinel prefix,
// which CorruptError.Error already says in checkpoint terms.
func reason(err error) string {
	return strings.TrimPrefix(err.Error(), envelope.ErrCorrupt.Error()+": ")
}

// Save atomically writes cp to path as a checkpoint envelope
// (envelope.WriteFile: temp file, fsync, rename, directory fsync), so a
// crash at any instant leaves either the old file or the new one — never
// a torn mix. Transient IO failures are retried under fsx.DefaultRetry.
func Save(path string, cp *explore.Checkpoint) error {
	meta, trees, err := marshal(cp)
	if err != nil {
		return fmt.Errorf("durable: encode checkpoint: %w", err)
	}
	return envelope.WriteFile(context.Background(), nil, fsx.DefaultRetry, path, Magic, treeKind, meta, trees)
}

// Load reads and decodes the checkpoint at path, retrying transient read
// failures under fsx.DefaultRetry. A missing file surfaces as an error
// satisfying errors.Is(err, fs.ErrNotExist) so callers can treat it as a
// fresh start; an integrity failure surfaces as a *CorruptError (with
// Path set and any salvageable prefix attached) and is never retried.
func Load(path string) (*explore.Checkpoint, error) {
	return load(nil, fsx.DefaultRetry, path)
}

// load is Load over an explicit filesystem (nil = the real one) and retry
// policy.
func load(fsys fsx.FS, policy fsx.RetryPolicy, path string) (*explore.Checkpoint, error) {
	resolved := fsx.Or(fsys)
	var data []byte
	if err := policy.Do(context.Background(), func() error {
		var rerr error
		data, rerr = resolved.ReadFile(path)
		return rerr
	}); err != nil {
		return nil, err
	}
	cp, err := Decode(data)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			ce.Path = path
		}
		return nil, err
	}
	return cp, nil
}
