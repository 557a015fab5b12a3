package envelope

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// formats are the (magic, kind) pairs of the repo's four envelope files:
// checkpoints, result-cache entries, daemon jobs and memo spill blocks.
var formats = [][2]string{
	{"waitfree-checkpoint v1", "tree"},
	{"waitfree result cache v1", "report"},
	{"waitfree job v1", "job"},
	{"waitfree-memospill-v1", "sum"},
}

// FuzzDecode drives Decode, under every format, with arbitrary bytes. It
// must not panic, every error must wrap ErrCorrupt, and a clean decode
// must re-encode to its input up to the one trailing newline Decode
// tolerates (missing or doubled).
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
