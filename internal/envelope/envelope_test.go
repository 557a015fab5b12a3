package envelope

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
)

const (
	testMagic = "wftest v1"
	testKind  = "rec"
)

func testRecords() ([]byte, [][]byte) {
	header := []byte(`{"key":"abc"}`)
	records := [][]byte{
		[]byte(`{"n":1}`),
		[]byte(`{"n":2}`),
		[]byte(`{"n":3}`),
	}
	return header, records
}

func TestEnvelopeRoundTrip(t *testing.T) {
	header, records := testRecords()
	data := Encode(testMagic, testKind, header, records)
	gotHeader, gotRecords, err := Decode(testMagic, testKind, data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(gotHeader, header) {
		t.Errorf("header = %q, want %q", gotHeader, header)
	}
	if len(gotRecords) != len(records) {
		t.Fatalf("got %d records, want %d", len(gotRecords), len(records))
	}
	for i := range records {
		if !bytes.Equal(gotRecords[i], records[i]) {
			t.Errorf("record %d = %q, want %q", i, gotRecords[i], records[i])
		}
	}
}

func TestEnvelopeRoundTripEmpty(t *testing.T) {
	data := Encode(testMagic, testKind, []byte("h"), nil)
	header, records, err := Decode(testMagic, testKind, data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if string(header) != "h" || len(records) != 0 {
		t.Fatalf("got header %q, %d records", header, len(records))
	}
}

func TestEnvelopeWrongMagicOrKind(t *testing.T) {
	header, records := testRecords()
	data := Encode(testMagic, testKind, header, records)
	if _, _, err := Decode("other v1", testKind, data); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong magic: got %v, want ErrCorrupt", err)
	}
	if _, _, err := Decode(testMagic, "blob", data); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong kind: got %v, want ErrCorrupt", err)
	}
}

// Flipping a byte inside record 2 must fail the decode but salvage the
// header and record 1, each individually checksum-verified.
func TestEnvelopeSalvagesPrefixOnCorruption(t *testing.T) {
	header, records := testRecords()
	data := Encode(testMagic, testKind, header, records)
	corrupt := bytes.Replace(data, []byte(`{"n":2}`), []byte(`{"n":9}`), 1)
	if bytes.Equal(corrupt, data) {
		t.Fatal("corruption did not apply")
	}
	gotHeader, gotRecords, err := Decode(testMagic, testKind, corrupt)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if !bytes.Equal(gotHeader, header) {
		t.Errorf("salvaged header = %q, want %q", gotHeader, header)
	}
	if len(gotRecords) != 1 || !bytes.Equal(gotRecords[0], records[0]) {
		t.Errorf("salvaged records = %q, want just %q", gotRecords, records[0])
	}
}

// Truncation mid-record keeps every complete record before the tear.
func TestEnvelopeSalvagesPrefixOnTruncation(t *testing.T) {
	header, records := testRecords()
	data := Encode(testMagic, testKind, header, records)
	cut := bytes.Index(data, []byte(`{"n":3}`)) + 3 // tear inside record 3
	gotHeader, gotRecords, err := Decode(testMagic, testKind, data[:cut])
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if !bytes.Equal(gotHeader, header) {
		t.Errorf("salvaged header = %q, want %q", gotHeader, header)
	}
	if len(gotRecords) != 2 {
		t.Fatalf("salvaged %d records, want 2", len(gotRecords))
	}
}

func TestEnvelopeTrailingGarbage(t *testing.T) {
	header, records := testRecords()
	data := Encode(testMagic, testKind, header, records)
	data = append(data, []byte("extra\n")...)
	gotHeader, gotRecords, err := Decode(testMagic, testKind, data)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	// Everything before the garbage still verified.
	if !bytes.Equal(gotHeader, header) || len(gotRecords) != len(records) {
		t.Errorf("salvage lost data: header %q, %d records", gotHeader, len(gotRecords))
	}
}

// TestEncodeFrozen pins Encode's output byte for byte: it is written by
// AppendRecord, and every durable file already on disk must still decode
// and re-encode to itself.
func TestEncodeFrozen(t *testing.T) {
	header, records := testRecords()
	want := "wftest v1\n" +
		"meta ce6a544ca44df40624542d114f2b07855aa12f689ab89a4903d614b1d561aa18 {\"key\":\"abc\"}\n" +
		"rec 2bfd14f43d17fc7cea24e0917a8879b4b2f880b8baeec1b9d90fbaad655e71bd {\"n\":1}\n" +
		"rec 363379742f80b51bdb9206579af7754911543079b9399cb3fc315fb199f476e8 {\"n\":2}\n" +
		"rec 215ddd5567ca2590efd4ea109b4e56cbe591e2676fbf54a9262692c539166da6 {\"n\":3}\n" +
		"end cd0e95584185d7ae2608c5f3b023ce5dcac8e6d253e406bf94a4bb5e8a5b159d 3 1d7c87ce7c304b2952f8cf31d5c938271bb27ee177acde07940d74d851b93c55\n"
	if got := string(Encode(testMagic, testKind, header, records)); got != want {
		t.Errorf("Encode =\n%q\nwant\n%q", got, want)
	}
	wantEmpty := "wftest v1\n" +
		"meta e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 \n" +
		"end fab1ee00e93b055350856bdc015bbc28b693caabae45dd4ecdfa5d7411477ca5 0 c090a598ab8944b276576aeb3713508be3cfe20496a4cfa8692b37de4e835710\n"
	if got := string(Encode(testMagic, testKind, nil, nil)); got != wantEmpty {
		t.Errorf("empty Encode =\n%q\nwant\n%q", got, wantEmpty)
	}
	var many [][]byte
	for i := 0; i < 12; i++ {
		many = append(many, []byte(fmt.Sprintf("r%d", i)))
	}
	const wantSum = "a564373779991a1766e3decfd167159cec3a9c6d0b8c2595230c057c3ee07395"
	if got := fmt.Sprintf("%x", sha256.Sum256(Encode("m", "k", []byte("h"), many))); got != wantSum {
		t.Errorf("12-record Encode hashes to %s, want %s", got, wantSum)
	}
}

// upperHex upper-cases a record line's checksum field, which still names
// the same digest.
func upperHex(line []byte) []byte {
	sum := line[len(testKind)+1 : len(testKind)+1+hexSumLen]
	copy(sum, bytes.ToUpper(sum))
	return line
}

// TestRecordLine pins the bare record-line codec: AppendRecord writes the
// line Encode writes for a record, DecodeRecord returns its payload, and
// a wrong kind, a flipped byte or a missing newline is corrupt.
func TestRecordLine(t *testing.T) {
	header, records := testRecords()
	data := Encode(testMagic, testKind, header, records)
	line := AppendRecord(nil, testKind, records[1])
	if !bytes.Contains(data, line) {
		t.Fatalf("record line %q is not the line Encode writes", line)
	}
	got, err := DecodeRecord(testKind, line)
	if err != nil || !bytes.Equal(got, records[1]) {
		t.Fatalf("DecodeRecord = %q, %v; want %q", got, err, records[1])
	}
	bad := map[string][]byte{
		"wrong kind":      AppendRecord(nil, "meta", records[1]),
		"no newline":      line[:len(line)-1],
		"two lines":       append(line[:len(line):len(line)], line...),
		"flipped payload": bytes.Replace(line, []byte(`"n":2`), []byte(`"n":3`), 1),
		"upper-case hex":  upperHex(AppendRecord(nil, testKind, []byte("12"))),
	}
	for name, b := range bad {
		if _, err := DecodeRecord(testKind, b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
