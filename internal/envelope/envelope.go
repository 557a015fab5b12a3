// Package envelope owns the per-record-checksummed line envelope shared
// by every durable artifact in the repo: checkpoint files
// (internal/durable), result-cache entries (internal/rescache), daemon job
// files (internal/server), and the explorer's memo spill tier
// (internal/explore). It owns the format end to end — Encode/Decode in
// memory, and the retried ReadFile and atomic WriteFile on disk (file.go)
// — and sits below internal/durable so that packages durable itself
// depends on (the explorer) can use the codec without an import cycle.
//
// The line format, with a caller-chosen magic line and record kind:
//
//	<magic>
//	meta <sha256-hex> <header bytes>
//	<kind> <sha256-hex> <record bytes>
//	...
//	end <sha256-hex> <record count> <sha256-hex of every preceding byte>
//
// Header and record payloads must not contain newlines (JSON payloads
// never do; binary payloads are base64-encoded by their callers).
// Truncation at any byte offset leaves a detectable — and, per record,
// salvageable — prefix.
//
// Every line after the magic is one record line, "<kind> <sha256-hex>
// <payload>\n". AppendRecord and DecodeRecord are that line's codec on its
// own, for a caller that checksums single entries without the magic and
// trailer around them (the memo spill tier writes one line per entry).
package envelope

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
)

// ErrCorrupt is the sentinel wrapped by every envelope integrity failure
// (Decode, and ReadFile on a file it could read).
var ErrCorrupt = errors.New("durable: corrupt envelope")

func sum(payload []byte) string {
	h := sha256.Sum256(payload)
	return hex.EncodeToString(h[:])
}

// Encode renders header and records into the checksummed envelope format
// under the given magic line and record kind.
func Encode(magic, kind string, header []byte, records [][]byte) []byte {
	b := append([]byte(magic), '\n')
	b = AppendRecord(b, "meta", header)
	for _, rec := range records {
		b = AppendRecord(b, kind, rec)
	}
	trailer := strconv.AppendInt(nil, int64(len(records)), 10)
	trailer = append(trailer, ' ')
	trailer = append(trailer, sum(b)...)
	return AppendRecord(b, "end", trailer)
}

// hexSumLen is the length of a record's checksum field.
const hexSumLen = 2 * sha256.Size

// AppendRecord appends one record line, "<kind> <sha256-hex> <payload>\n",
// to b and returns the extended slice. It is the line Encode writes for
// the header, each record and the trailer. kind must not contain a space
// or a newline, and payload must not contain a newline.
func AppendRecord(b []byte, kind string, payload []byte) []byte {
	b = append(b, kind...)
	b = append(b, ' ')
	h := sha256.Sum256(payload)
	b = hex.AppendEncode(b, h[:])
	b = append(b, ' ')
	b = append(b, payload...)
	return append(b, '\n')
}

// DecodeRecord parses line as one record line of the given kind, exactly
// as AppendRecord writes it (trailing newline included), verifies its
// checksum, and returns the payload, which aliases line. It accepts only
// lines AppendRecord can produce, so a clean decode re-encodes to line.
// Every failure wraps ErrCorrupt.
func DecodeRecord(kind string, line []byte) ([]byte, error) {
	n := len(line)
	if n == 0 || line[n-1] != '\n' {
		return nil, fmt.Errorf("%w: %s record is not newline-terminated", ErrCorrupt, kind)
	}
	line = line[:n-1]
	if bytes.IndexByte(line, '\n') >= 0 {
		return nil, fmt.Errorf("%w: %s record spans lines", ErrCorrupt, kind)
	}
	got, payload, err := splitLine(line)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if got != kind {
		return nil, fmt.Errorf("%w: record kind %q (want %q)", ErrCorrupt, truncateForErr([]byte(got)), kind)
	}
	return payload, nil
}

// Decode parses data as an envelope written by Encode with the same magic
// and record kind, verifying every checksum. On integrity failure it
// returns an error wrapping ErrCorrupt alongside the longest valid prefix:
// the header (nil if it did not survive) and every record whose checksum
// verified before the first bad byte. Each returned record is individually
// integrity-checked, so callers may trust the prefix even when the
// envelope as a whole is rejected.
func Decode(magic, kind string, data []byte) (header []byte, records [][]byte, err error) {
	fail := func(format string, args ...any) ([]byte, [][]byte, error) {
		return header, records, fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if len(data) == 0 {
		return fail("empty envelope")
	}
	lineNo := 0
	sawMeta, sawEnd := false, false
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// A file ending without a newline was almost certainly torn
			// mid-record; the fragment's checksum decides.
			nl = len(data) - off
		}
		line := data[off : off+nl]
		lineStart := off
		off += nl + 1
		if sawEnd {
			if len(line) == 0 && off >= len(data) {
				continue // single trailing newline after the end record
			}
			return fail("data after end record (line %d)", lineNo+1)
		}
		switch {
		case lineNo == 0:
			if string(line) != magic {
				return fail("bad magic line %q (want %q)", truncateForErr(line), magic)
			}
		default:
			recKind, payload, err := splitLine(line)
			if err != nil {
				return fail("line %d: %v", lineNo+1, err)
			}
			switch recKind {
			case "meta":
				if sawMeta {
					return fail("line %d: duplicate meta record", lineNo+1)
				}
				sawMeta = true
				header = append([]byte(nil), payload...)
			case kind:
				if !sawMeta {
					return fail("line %d: %s record before meta", lineNo+1, kind)
				}
				records = append(records, append([]byte(nil), payload...))
			case "end":
				if !sawMeta {
					return fail("line %d: end record before meta", lineNo+1)
				}
				var n int
				var streamSum string
				if _, err := fmt.Sscanf(string(payload), "%d %64s", &n, &streamSum); err != nil {
					return fail("line %d: malformed end record: %v", lineNo+1, err)
				}
				if n != len(records) {
					return fail("line %d: end record counts %d records, envelope holds %d", lineNo+1, n, len(records))
				}
				if got := sum(data[:lineStart]); got != streamSum {
					return fail("line %d: stream checksum mismatch", lineNo+1)
				}
				// Sscanf tolerates "+1", "01" and trailing bytes; only the
				// trailer Encode writes is accepted, so a clean decode
				// always re-encodes to its input.
				if string(payload) != fmt.Sprintf("%d %s", n, streamSum) {
					return fail("line %d: malformed end record: not canonical", lineNo+1)
				}
				sawEnd = true
			default:
				return fail("line %d: unknown record kind %q", lineNo+1, recKind)
			}
		}
		lineNo++
	}
	if !sawEnd {
		return fail("missing end record (envelope truncated after %d lines)", lineNo)
	}
	return header, records, nil
}

// splitLine cuts "kind <checksum> <payload>" into its three fields and
// verifies the checksum over the payload.
func splitLine(line []byte) (kind string, payload []byte, err error) {
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return "", nil, fmt.Errorf("record %q has no checksum field", truncateForErr(line))
	}
	kind = string(line[:sp])
	rest := line[sp+1:]
	sp = bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return kind, nil, fmt.Errorf("%s record has no payload field", kind)
	}
	want, payload := rest[:sp], rest[sp+1:]
	var got [hexSumLen]byte
	h := sha256.Sum256(payload)
	hex.Encode(got[:], h[:])
	if string(got[:]) != string(want) {
		return kind, nil, fmt.Errorf("%s record checksum mismatch (stored %.12s…, computed %.12s…)", kind, want, got[:])
	}
	return kind, payload, nil
}

func truncateForErr(b []byte) string {
	const max = 24
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}
