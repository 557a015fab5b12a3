package durable

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
)

// FuzzCheckpointDecode drives Decode — the legacy bare-JSON branch and the
// envelope branch — with arbitrary bytes. It must not panic, every error
// must be a *CorruptError wrapping ErrCorruptCheckpoint, and a clean
// decode must survive an Encode/Decode round trip unchanged.
func FuzzCheckpointDecode(f *testing.F) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	data, err := Encode(sampleCheckpoint(3))
	if err != nil {
		f.Fatal(err)
	}
	for _, cut := range []int{len(data), len(data) - 1, len(data) / 2, len(Magic) + 1} {
		f.Add(data[:cut])
	}
	legacy, err := json.Marshal(sampleCheckpoint(2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add(legacy[:len(legacy)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := Decode(data)
		if err != nil {
			var ce *CorruptError
			if !errors.Is(err, ErrCorruptCheckpoint) || !errors.As(err, &ce) {
				t.Fatalf("error %v (%T) is not a *CorruptError wrapping ErrCorruptCheckpoint", err, err)
			}
			return
		}
		again, err := Encode(cp)
		if err != nil {
			t.Fatalf("decoded checkpoint does not encode: %v", err)
		}
		back, err := Decode(again)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, cp) {
			t.Fatalf("round trip changed the checkpoint\nbefore: %+v\nafter:  %+v", cp, back)
		}
	})
}
