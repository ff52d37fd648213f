package relation

import (
	"encoding/binary"
	"fmt"
	"math"
)

// relMagic opens every serialized relation blob; relVersion names the layout
// so future format changes can keep reading old snapshots.
const (
	relMagic   = "EVFDREL1"
	relVersion = 1
)

// AppendValue appends the binary encoding of one value: a kind byte followed
// by the kind's payload (strings length-prefixed, ints zigzag-varint, floats
// as raw IEEE bits, bools as one byte, NULL as the bare kind byte). The
// encoding is self-delimiting, so values concatenate into tuples without
// separators.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindString:
		buf = appendString(buf, v.s)
	case KindInt:
		buf = binary.AppendVarint(buf, v.i)
	case KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.f))
	case KindBool:
		if v.b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// DecodeValue decodes one value from the front of data, returning the value
// and the number of bytes consumed. Unknown kinds, NaN floats (which would
// break Value's comparability) and short buffers are errors, never panics —
// the decoder fronts crash recovery and fuzzed inputs.
func DecodeValue(data []byte) (Value, int, error) {
	if len(data) == 0 {
		return Null, 0, fmt.Errorf("relation: truncated value")
	}
	kind := Kind(data[0])
	rest := data[1:]
	switch kind {
	case KindNull:
		return Null, 1, nil
	case KindString:
		s, n, err := decodeString(rest)
		if err != nil {
			return Null, 0, err
		}
		return String(s), 1 + n, nil
	case KindInt:
		i, n := binary.Varint(rest)
		if n <= 0 {
			return Null, 0, fmt.Errorf("relation: truncated int value")
		}
		return Int(i), 1 + n, nil
	case KindFloat:
		if len(rest) < 8 {
			return Null, 0, fmt.Errorf("relation: truncated float value")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(rest))
		if math.IsNaN(f) {
			return Null, 0, fmt.Errorf("relation: NaN float value")
		}
		return Float(f), 9, nil
	case KindBool:
		if len(rest) < 1 {
			return Null, 0, fmt.Errorf("relation: truncated bool value")
		}
		if rest[0] > 1 {
			return Null, 0, fmt.Errorf("relation: bool value byte %d", rest[0])
		}
		return Bool(rest[0] == 1), 2, nil
	default:
		return Null, 0, fmt.Errorf("relation: unknown value kind %d", kind)
	}
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func decodeString(data []byte) (string, int, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 {
		return "", 0, fmt.Errorf("relation: truncated string length")
	}
	if l > uint64(len(data)-n) {
		return "", 0, fmt.Errorf("relation: string length %d exceeds buffer", l)
	}
	return string(data[n : n+int(l)]), n + int(l), nil
}

// AppendBinary appends the full binary serialization of the instance: schema,
// segment layout, epoch and mutation counters, the tombstone bitmap, and per
// column the dictionary (values in code order, so codes keep their exact
// meaning) followed by the dense code array. The format round-trips the
// physical storage bit-for-bit — row ids, dictionary codes, tombstones and
// the storage epoch all survive, which is what lets WAL replay and remapped
// incremental state resume on a decoded instance as if the process never
// died.
func (r *Relation) AppendBinary(buf []byte) []byte {
	buf = append(buf, relMagic...)
	buf = append(buf, relVersion)
	buf = appendString(buf, r.name)
	buf = binary.AppendUvarint(buf, uint64(r.segRows))
	buf = binary.AppendUvarint(buf, uint64(r.schema.Len()))
	for _, c := range r.schema.Columns() {
		buf = appendString(buf, c.Name)
		buf = append(buf, byte(c.Kind))
	}
	buf = binary.AppendUvarint(buf, uint64(r.rows))
	buf = binary.AppendUvarint(buf, r.epoch)
	buf = binary.AppendUvarint(buf, r.mutations)
	buf = binary.AppendUvarint(buf, uint64(r.deleted))
	if r.deleted > 0 {
		bits := make([]byte, (r.rows+7)/8)
		for row, dead := range r.dead {
			if dead {
				bits[row/8] |= 1 << (row % 8)
			}
		}
		buf = append(buf, bits...)
	}
	for col := range r.cols {
		d := r.dicts[col]
		buf = binary.AppendUvarint(buf, uint64(len(d.values)))
		for _, v := range d.values {
			buf = AppendValue(buf, v)
		}
		for _, code := range r.cols[col] {
			// code+1 keeps the NULL sentinel (-1) inside uvarint range.
			buf = binary.AppendUvarint(buf, uint64(code+1))
		}
	}
	return buf
}

// BinReader decodes the binary primitives of this package's encodings —
// bytes, uvarints, bounded counts, length-prefixed strings, values — with a
// sticky error: after the first failure every read returns a zero value, so
// a decoder checks Err once at its structural boundaries. It reads the
// AppendBinary layout here and the WAL's op and snapshot payloads; every
// length is bounded before anything is allocated, so corrupt or fuzzed
// input cannot trigger outsized allocations.
type BinReader struct {
	pkg  string
	data []byte
	off  int
	err  error
}

// NewBinReader reads data from its front; pkg prefixes the error texts.
func NewBinReader(pkg string, data []byte) *BinReader {
	return &BinReader{pkg: pkg, data: data}
}

// Err returns the first failure, nil while every read succeeded.
func (b *BinReader) Err() error { return b.err }

// Rest returns the bytes not yet consumed.
func (b *BinReader) Rest() []byte { return b.data[b.off:] }

// Failf records a structural failure found by the caller, unless an earlier
// one is already recorded.
func (b *BinReader) Failf(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(b.pkg+": "+format, args...)
	}
}

// Uvarint reads one unsigned varint.
func (b *BinReader) Uvarint() uint64 {
	if b.err != nil {
		return 0
	}
	v, n := binary.Uvarint(b.data[b.off:])
	if n <= 0 {
		b.Failf("truncated varint at offset %d", b.off)
		return 0
	}
	b.off += n
	return v
}

// Count reads a non-negative integer bounded by an explicit limit.
func (b *BinReader) Count(what string, limit uint64) int {
	v := b.Uvarint()
	if b.err == nil && v > limit {
		b.Failf("%s %d exceeds bound %d", what, v, limit)
		return 0
	}
	return int(v)
}

// Length reads a count whose decoded form costs at least min bytes per entry,
// rejecting counts the remaining input cannot possibly hold.
func (b *BinReader) Length(what string, min int) int {
	v := b.Uvarint()
	if b.err == nil && v > uint64(len(b.data)-b.off)/uint64(min)+1 {
		b.Failf("%s count %d exceeds remaining input", what, v)
		return 0
	}
	return int(v)
}

// Str reads one length-prefixed string.
func (b *BinReader) Str() string {
	if b.err != nil {
		return ""
	}
	s, n, err := decodeString(b.data[b.off:])
	if err != nil {
		b.err = err
		return ""
	}
	b.off += n
	return s
}

// Value reads one AppendValue-encoded value.
func (b *BinReader) Value() Value {
	if b.err != nil {
		return Null
	}
	v, n, err := DecodeValue(b.data[b.off:])
	if err != nil {
		b.err = err
		return Null
	}
	b.off += n
	return v
}

// Byte reads one byte.
func (b *BinReader) Byte() byte {
	if p := b.Bytes(1); p != nil {
		return p[0]
	}
	return 0
}

// Bytes reads a fixed-width field of n bytes, aliasing the input.
func (b *BinReader) Bytes(n int) []byte {
	if b.err != nil {
		return nil
	}
	if n > len(b.data)-b.off {
		b.Failf("truncated %d-byte field at offset %d", n, b.off)
		return nil
	}
	out := b.data[b.off : b.off+n]
	b.off += n
	return out
}

// DecodeBinary decodes a relation serialized by AppendBinary from the front
// of data, returning the instance and the number of bytes consumed. Every
// structural invariant is re-validated — schema names, dictionary value
// kinds and uniqueness, code ranges, the tombstone count — so a corrupted or
// adversarial blob yields an error, never a panic or an inconsistent
// instance. Derived state (NULL counts, per-segment tombstone counts, the
// dictionary index) is rebuilt rather than trusted from the wire.
func DecodeBinary(data []byte) (*Relation, int, error) {
	b := NewBinReader("relation", data)
	if string(b.Bytes(len(relMagic))) != relMagic {
		return nil, 0, fmt.Errorf("relation: bad magic (not a serialized relation)")
	}
	if v := b.Byte(); b.err == nil && v != relVersion {
		return nil, 0, fmt.Errorf("relation: unsupported format version %d", v)
	}
	name := b.Str()
	segRows := b.Uvarint()
	if b.err == nil && (segRows < 1 || segRows > 1<<30) {
		b.Failf("segment capacity %d out of range", segRows)
	}
	ncols := b.Length("column", 2)
	cols := make([]Column, 0, ncols)
	for i := 0; i < ncols && b.err == nil; i++ {
		cname := b.Str()
		kind := Kind(b.Byte())
		if b.err == nil && (kind < KindString || kind > KindBool) {
			b.Failf("column %q has invalid kind %d", cname, kind)
		}
		cols = append(cols, Column{Name: cname, Kind: kind})
	}
	if b.err != nil {
		return nil, 0, b.err
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, 0, err
	}
	r := NewWithSegmentRows(name, schema, int(segRows))
	rows := b.Length("row", 1)
	if b.err == nil && ncols == 0 && rows > 0 {
		// Rows in a zero-column relation occupy no bytes, so the row count
		// is unfalsifiable against the input; no real instance looks like
		// this, so refuse it rather than trust it.
		b.Failf("%d rows with no columns", rows)
	}
	r.epoch = b.Uvarint()
	r.mutations = b.Uvarint()
	deleted := b.Uvarint()
	if b.err == nil && deleted > uint64(rows) {
		b.Failf("tombstone count %d exceeds %d rows", deleted, rows)
	}
	r.rows = rows
	r.deleted = int(deleted)
	if deleted > 0 {
		bits := b.Bytes((rows + 7) / 8)
		if b.err != nil {
			return nil, 0, b.err
		}
		r.dead = make([]bool, rows)
		n := 0
		for row := range r.dead {
			if bits[row/8]&(1<<(row%8)) != 0 {
				r.dead[row] = true
				n++
			}
		}
		if n != int(deleted) {
			return nil, 0, fmt.Errorf("relation: tombstone bitmap holds %d rows, header says %d", n, deleted)
		}
	}
	for col := 0; col < ncols && b.err == nil; col++ {
		dictLen := b.Length("dictionary", 1)
		d := r.dicts[col]
		want := schema.Column(col).Kind
		for i := 0; i < dictLen && b.err == nil; i++ {
			v := b.Value()
			if b.err != nil {
				break
			}
			if v.Kind() != want {
				b.Failf("column %q dictionary entry %d has kind %v, want %v",
					schema.Column(col).Name, i, v.Kind(), want)
				break
			}
			if _, dup := d.index[v]; dup {
				b.Failf("column %q dictionary has duplicate value %q", schema.Column(col).Name, v.String())
				break
			}
			d.index[v] = int32(len(d.values))
			d.values = append(d.values, v)
		}
		codes := make([]int32, rows)
		for row := 0; row < rows && b.err == nil; row++ {
			c := b.Uvarint()
			if b.err != nil {
				break
			}
			if c > uint64(dictLen) {
				b.Failf("column %q row %d code %d out of range [0,%d]",
					schema.Column(col).Name, row, int64(c)-1, dictLen)
				break
			}
			codes[row] = int32(c) - 1
		}
		r.cols[col] = codes
	}
	if b.err != nil {
		return nil, 0, b.err
	}
	// Rebuild the derived accounting from the decoded storage.
	for col := range r.cols {
		n := 0
		for row, code := range r.cols[col] {
			if code == nullCode && (r.dead == nil || !r.dead[row]) {
				n++
			}
		}
		r.nulls[col] = n
	}
	if r.deleted > 0 {
		r.segDead = make([]int, r.NumSegments())
		for row, dead := range r.dead {
			if dead {
				r.segDead[row/r.segRows]++
			}
		}
	}
	return r, b.off, nil
}
