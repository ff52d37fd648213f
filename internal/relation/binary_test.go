package relation

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// binaryFixture builds a small instance exercising every serialization
// feature: all four value kinds, NULLs, tombstones across multiple segments,
// in-place updates (mutations counter, stale dictionary entries) and a past
// compaction (non-zero epoch).
func binaryFixture(t *testing.T) *Relation {
	t.Helper()
	schema, err := NewSchema(
		Column{Name: "name", Kind: KindString},
		Column{Name: "n", Kind: KindInt},
		Column{Name: "score", Kind: KindFloat},
		Column{Name: "ok", Kind: KindBool},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := NewWithSegmentRows("fixture", schema, 4)
	for i := 0; i < 23; i++ {
		name := Value(String("row"))
		if i%5 == 0 {
			name = Null
		}
		if err := r.Append(name, Int(int64(i%7-3)), Float(float64(i)*1.5), Bool(i%2 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Delete(1, 6, 7, 8); err != nil {
		t.Fatal(err)
	}
	if r.Compact() == nil {
		t.Fatal("fixture compaction was a no-op")
	}
	for i := 0; i < 8; i++ {
		if err := r.Append(String("tail"), Int(int64(i)), Float(-2.25), Bool(false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Delete(0, 3, 20); err != nil {
		t.Fatal(err)
	}
	if err := r.Update(5, String("edited"), Int(99), Float(0), Bool(true)); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBinaryRoundTrip(t *testing.T) {
	r := binaryFixture(t)
	blob := r.AppendBinary(nil)
	got, n, err := DecodeBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(blob) {
		t.Fatalf("consumed %d of %d bytes", n, len(blob))
	}
	if got.Name() != r.Name() || got.NumRows() != r.NumRows() || got.LiveRows() != r.LiveRows() {
		t.Fatalf("shape: got %s/%d/%d want %s/%d/%d",
			got.Name(), got.NumRows(), got.LiveRows(), r.Name(), r.NumRows(), r.LiveRows())
	}
	if got.Epoch() != r.Epoch() || got.Mutations() != r.Mutations() || got.SegmentRows() != r.SegmentRows() {
		t.Fatalf("counters: epoch %d/%d mutations %d/%d segRows %d/%d",
			got.Epoch(), r.Epoch(), got.Mutations(), r.Mutations(), got.SegmentRows(), r.SegmentRows())
	}
	for row := 0; row < r.NumRows(); row++ {
		if got.IsDeleted(row) != r.IsDeleted(row) {
			t.Fatalf("row %d tombstone mismatch", row)
		}
		for col := 0; col < r.NumCols(); col++ {
			if got.Value(row, col) != r.Value(row, col) {
				t.Fatalf("cell (%d,%d): got %v want %v", row, col, got.Value(row, col), r.Value(row, col))
			}
		}
	}
	// Derived accounting must be rebuilt, not trusted: compare the full
	// MemStats, then the strongest check — a re-encode is bit-identical,
	// dictionary code assignment included.
	if got.MemStats() != r.MemStats() {
		t.Fatalf("MemStats: got %+v want %+v", got.MemStats(), r.MemStats())
	}
	if !bytes.Equal(got.AppendBinary(nil), blob) {
		t.Fatal("re-encode is not bit-identical")
	}
}

func TestBinaryRoundTripSelfDelimiting(t *testing.T) {
	r := binaryFixture(t)
	blob := r.AppendBinary(nil)
	// A decoder must stop exactly at the blob boundary even with trailing
	// bytes, so blobs can be embedded in larger snapshot files.
	got, n, err := DecodeBinary(append(append([]byte{}, blob...), 0xde, 0xad))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(blob) {
		t.Fatalf("consumed %d, want %d", n, len(blob))
	}
	if got.LiveRows() != r.LiveRows() {
		t.Fatalf("live rows %d, want %d", got.LiveRows(), r.LiveRows())
	}
}

// TestDecodeBinaryTruncations feeds every proper prefix of a valid blob to
// the decoder: each must fail with an error, never panic and never succeed.
func TestDecodeBinaryTruncations(t *testing.T) {
	blob := binaryFixture(t).AppendBinary(nil)
	for n := 0; n < len(blob); n++ {
		if _, _, err := DecodeBinary(blob[:n]); err == nil {
			t.Fatalf("truncation at %d of %d decoded successfully", n, len(blob))
		}
	}
}

// TestDecodeBinaryCorruptions flips one bit at every byte offset: the
// decoder must either fail cleanly or produce an instance that re-encodes
// without panicking — silent structural damage is what the per-field
// validation exists to rule out.
func TestDecodeBinaryCorruptions(t *testing.T) {
	blob := binaryFixture(t).AppendBinary(nil)
	for off := 0; off < len(blob); off++ {
		mut := append([]byte{}, blob...)
		mut[off] ^= 0x41
		r, _, err := DecodeBinary(mut)
		if err != nil {
			continue
		}
		// The corruption landed in a value or name: the instance is still
		// structurally sound, so derived invariants must hold.
		if r.LiveRows() < 0 || r.LiveRows() > r.NumRows() {
			t.Fatalf("offset %d: inconsistent instance survived decode", off)
		}
		r.AppendBinary(nil)
	}
}

func TestDecodeValueRejects(t *testing.T) {
	cases := [][]byte{
		{},                               // empty
		{99},                             // unknown kind
		{byte(KindString), 0x05, 'a'},    // string length beyond buffer
		{byte(KindInt)},                  // missing varint
		{byte(KindFloat), 1, 2, 3},       // short float
		{byte(KindBool)},                 // missing bool byte
		{byte(KindBool), 2},              // invalid bool byte
		AppendValue(nil, Float(0))[:0:0], // exercise the append path too
	}
	for i, c := range cases {
		if _, _, err := DecodeValue(c); err == nil && len(c) > 0 {
			t.Fatalf("case %d (% x) decoded successfully", i, c)
		}
	}
	// NaN bits must be rejected: a NaN Value would break comparability.
	nan := append([]byte{byte(KindFloat)}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8, 0x7f)
	if _, _, err := DecodeValue(nan); err == nil {
		t.Fatal("NaN float decoded successfully")
	}
}

// FuzzRelationSnapshot is the fuzz target over relation deserialization: no
// input may panic or over-allocate, and any input that decodes must
// re-encode into a blob that decodes to the same instance (a fixed point
// after one round).
func FuzzRelationSnapshot(f *testing.F) {
	schema, _ := NewSchema(Column{Name: "a", Kind: KindString}, Column{Name: "b", Kind: KindInt})
	tiny := New("t", schema)
	tiny.MustAppend(String("x"), Int(1))
	tiny.MustAppend(Null, Int(2))
	f.Add(tiny.AppendBinary(nil))
	withDead := NewWithSegmentRows("d", schema, 2)
	for i := 0; i < 6; i++ {
		withDead.MustAppend(String("v"), Int(int64(i)))
	}
	withDead.Delete(1, 4)
	f.Add(withDead.AppendBinary(nil))
	f.Add([]byte(relMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := DecodeBinary(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		blob := r.AppendBinary(nil)
		again, m, err := DecodeBinary(blob)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m != len(blob) {
			t.Fatalf("re-decode consumed %d of %d", m, len(blob))
		}
		if !bytes.Equal(again.AppendBinary(nil), blob) {
			t.Fatal("encoding is not a fixed point")
		}
	})
}

// TestBinReaderBoundsAndStickyError: Count refuses a value above its limit,
// Length one the remaining bytes cannot hold, and after the first failure
// every read returns zero values without advancing — the rule that lets the
// relation, WAL-op and snapshot decoders check Err once per structure.
func TestBinReaderBoundsAndStickyError(t *testing.T) {
	data := binary.AppendUvarint(nil, 7)
	data = appendString(data, "abc")
	data = AppendValue(data, Int(-3))

	b := NewBinReader("test", data)
	if n := b.Count("n", 7); n != 7 || b.Err() != nil {
		t.Fatalf("Count = %d, %v", n, b.Err())
	}
	if s, v := b.Str(), b.Value(); s != "abc" || v != Int(-3) || b.Err() != nil || len(b.Rest()) != 0 {
		t.Fatalf("Str, Value = %q, %v (err %v, %d bytes left)", s, v, b.Err(), len(b.Rest()))
	}

	b = NewBinReader("test", data)
	if n := b.Count("n", 6); n != 0 || b.Err() == nil {
		t.Fatalf("Count above its limit = %d, %v", n, b.Err())
	}
	first, rest := b.Err(), len(b.Rest())
	b.Failf("a later failure")
	if b.Uvarint() != 0 || b.Byte() != 0 || b.Str() != "" || b.Value() != Null || b.Bytes(1) != nil ||
		b.Err() != first || len(b.Rest()) != rest {
		t.Fatalf("reads after a failure must be zero, keep the first error and not advance; err %v", b.Err())
	}

	if b = NewBinReader("test", data); b.Length("n", 4) != 0 || b.Err() == nil {
		t.Fatal("Length accepted 7 four-byte entries in 6 remaining bytes")
	}
}
