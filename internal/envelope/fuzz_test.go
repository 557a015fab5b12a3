package envelope

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// formats are the (magic, kind) pairs of the repo's three envelope files:
// checkpoints, result-cache entries and daemon jobs. The memo spill tier
// writes bare record lines instead (FuzzDecodeRecord).
var formats = [][2]string{
	{"waitfree-checkpoint v1", "tree"},
	{"waitfree result cache v1", "report"},
	{"waitfree job v1", "job"},
}

// recordKinds are the record kinds a record line can carry: the
// envelope's own header and trailer kinds, each format's record kind, and
// the memo spill tier's.
var recordKinds = []string{"meta", "end", "tree", "report", "job", "sum"}

// FuzzDecode drives Decode, under every format, with arbitrary bytes. It
// must not panic, every error must wrap ErrCorrupt, and a clean decode
// must re-encode to its input up to the one trailing newline Decode
// tolerates (missing or doubled). The corpus includes memo spill files,
// bare record lines with no magic, meta or trailer, which no format
// decodes.
func FuzzDecode(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "flatparity", "resume_sticky3.wfcp"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	header, records := testRecords()
	for _, fm := range formats {
		data := Encode(fm[0], fm[1], header, records)
		for _, cut := range []int{len(data), len(data) - 1, len(data) / 2, len(fm[0]) + 1} {
			f.Add(data[:cut])
		}
		f.Add(append(data, '\n'))
	}
	line := AppendRecord(nil, "sum", []byte("QUJD"))
	spill := append(AppendRecord(nil, "sum", []byte("REVG")), line...)
	f.Add(line)
	f.Add(spill)
	f.Add(spill[:len(spill)-1])
	f.Add(spill[:len(spill)/2])
	f.Add(append([]byte(formats[0][0]+"\n"), spill...))
	f.Add([]byte(`{"version":1,"impl":"sample","procs":2,"values":2,"roots":4,"trees":[]}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fm := range formats {
			header, records, err := Decode(fm[0], fm[1], data)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: error %v does not wrap ErrCorrupt", fm[0], err)
				}
				continue
			}
			again := Encode(fm[0], fm[1], header, records)
			if !bytes.Equal(again, data) && !bytes.Equal(again, append(data[:len(data):len(data)], '\n')) &&
				!bytes.Equal(append(again, '\n'), data) {
				t.Fatalf("%s: clean decode re-encodes to\n%q\nnot the input\n%q", fm[0], again, data)
			}
		}
	})
}

// FuzzDecodeRecord drives DecodeRecord, under every record kind, with
// arbitrary bytes. It must not panic, every error must wrap ErrCorrupt,
// and a clean decode must re-encode to its input byte for byte.
func FuzzDecodeRecord(f *testing.F) {
	header, records := testRecords()
	for _, fm := range formats {
		data := Encode(fm[0], fm[1], header, records)
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			f.Add(line)
		}
	}
	line := AppendRecord(nil, "sum", []byte("QUJD"))
	f.Add(line)
	f.Add(line[:len(line)-1])
	f.Add(append(line[:len(line):len(line)], '\n'))
	f.Add([]byte("sum  \n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, line []byte) {
		for _, kind := range recordKinds {
			payload, err := DecodeRecord(kind, line)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: error %v does not wrap ErrCorrupt", kind, err)
				}
				continue
			}
			if again := AppendRecord(nil, kind, payload); !bytes.Equal(again, line) {
				t.Fatalf("%s: clean decode re-encodes to\n%q\nnot the input\n%q", kind, again, line)
			}
		}
	})
}
