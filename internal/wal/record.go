package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/evolvefd/evolvefd/internal/relation"
)

// recordHeader is the fixed framing cost per record: u32 payload length plus
// u32 CRC32-IEEE of the payload, both little-endian.
const recordHeader = 8

// maxRecordLen bounds a single record's payload; anything larger in a length
// field is corruption, not data.
const maxRecordLen = 1 << 30

// AppendRecord frames one payload and appends it to buf.
func AppendRecord(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// NextRecord decodes the record at the front of data. ok is false when the
// bytes do not hold one complete, checksum-valid record — a torn tail and
// bit corruption are indistinguishable by design; both end the log.
func NextRecord(data []byte) (payload []byte, n int, ok bool) {
	if len(data) < recordHeader {
		return nil, 0, false
	}
	l := binary.LittleEndian.Uint32(data)
	if l > maxRecordLen || int(l) > len(data)-recordHeader {
		return nil, 0, false
	}
	crc := binary.LittleEndian.Uint32(data[4:])
	payload = data[recordHeader : recordHeader+int(l)]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, false
	}
	return payload, recordHeader + int(l), true
}

// ScanRecords splits data into its complete, checksum-valid record prefix,
// returning the payloads and the byte length of that prefix. It never fails:
// the first invalid record simply ends the scan, which is exactly the
// recovery rule for a torn log tail.
func ScanRecords(data []byte) (payloads [][]byte, valid int) {
	for {
		p, n, ok := NextRecord(data[valid:])
		if !ok {
			return payloads, valid
		}
		payloads = append(payloads, p)
		valid += n
	}
}

// Op kinds, one per mutating session operation. The typed and string-typed
// DML flavours are distinct ops so replay re-runs exactly the code path the
// live session ran (including cell parsing).
const (
	// OpAppend appends one tuple of typed values.
	OpAppend byte = 1
	// OpAppendStrings appends one tuple of unparsed text cells.
	OpAppendStrings byte = 2
	// OpDelete tombstones a batch of rows.
	OpDelete byte = 3
	// OpUpdate replaces one row with typed values.
	OpUpdate byte = 4
	// OpUpdateStrings replaces one row with unparsed text cells.
	OpUpdateStrings byte = 5
	// OpDefine declares an FD under a label.
	OpDefine byte = 6
	// OpAccept extends a defined FD's antecedent with named attributes.
	OpAccept byte = 7
	// OpDrop removes a defined FD.
	OpDrop byte = 8
	// OpCompact marks a storage compaction. The record is logical — replay
	// re-runs the compaction — which is what keeps replay continuous across
	// snapshot generations.
	OpCompact byte = 9
	// OpCheckpoint seals a log generation without a compaction: the session
	// rotated because the log grew past its size bound, not because storage
	// changed. Replay treats it as a no-op; a tailing follower treats it (like
	// OpCompact) as the seal marker that licenses advancing to the next
	// segment.
	OpCheckpoint byte = 10
)

// SealOp reports whether payload encodes a segment seal marker (OpCompact or
// OpCheckpoint) — the last record of every finished log generation. Callers
// peek this without a full decode while deciding whether a segment is sealed.
func SealOp(payload []byte) bool {
	return len(payload) > 0 && (payload[0] == OpCompact || payload[0] == OpCheckpoint)
}

// CorruptTail classifies the invalid bytes that end a record scan: true
// means a complete-but-invalid record is present (an impossible length or a
// failed checksum over fully-present payload bytes — bit corruption), false
// means the record is merely short (a torn tail, or a write still in
// flight). Recovery treats both the same — the log ends — but a live tailer
// must not: a short tail may still complete, a corrupt one never will.
func CorruptTail(data []byte) bool {
	if len(data) < recordHeader {
		return false
	}
	l := binary.LittleEndian.Uint32(data)
	if l > maxRecordLen {
		return true
	}
	return int(l) <= len(data)-recordHeader
}

// Op is one logged session mutation. Kind selects which of the remaining
// fields carry the operation's arguments.
type Op struct {
	// Kind is one of the Op* constants.
	Kind byte
	// Row is the target row of OpUpdate/OpUpdateStrings.
	Row int
	// Rows is the target batch of OpDelete.
	Rows []int
	// Tuple holds the typed values of OpAppend/OpUpdate.
	Tuple []relation.Value
	// Cells holds the text cells of OpAppendStrings/OpUpdateStrings.
	Cells []string
	// Label names the FD of OpDefine/OpAccept/OpDrop; Spec is OpDefine's
	// dependency text.
	Label, Spec string
	// Names lists the attribute names OpAccept adds to the antecedent.
	Names []string
}

// OpError is a refused batch of ops: the op at Index failed with Err. Its
// text is Err's, so a one-op batch reads like the failure itself.
type OpError struct {
	Index int
	Err   error
}

func (e *OpError) Error() string { return e.Err.Error() }

func (e *OpError) Unwrap() error { return e.Err }

// EncodeOp appends the payload encoding of op to buf. The result is what
// one WAL record carries.
func EncodeOp(buf []byte, op Op) []byte {
	buf = append(buf, op.Kind)
	switch op.Kind {
	case OpAppend, OpUpdate:
		if op.Kind == OpUpdate {
			buf = binary.AppendUvarint(buf, uint64(op.Row))
		}
		buf = binary.AppendUvarint(buf, uint64(len(op.Tuple)))
		for _, v := range op.Tuple {
			buf = relation.AppendValue(buf, v)
		}
	case OpAppendStrings, OpUpdateStrings:
		if op.Kind == OpUpdateStrings {
			buf = binary.AppendUvarint(buf, uint64(op.Row))
		}
		buf = binary.AppendUvarint(buf, uint64(len(op.Cells)))
		for _, c := range op.Cells {
			buf = appendString(buf, c)
		}
	case OpDelete:
		buf = binary.AppendUvarint(buf, uint64(len(op.Rows)))
		for _, row := range op.Rows {
			buf = binary.AppendUvarint(buf, uint64(row))
		}
	case OpDefine:
		buf = appendString(buf, op.Label)
		buf = appendString(buf, op.Spec)
	case OpAccept:
		buf = appendString(buf, op.Label)
		buf = binary.AppendUvarint(buf, uint64(len(op.Names)))
		for _, n := range op.Names {
			buf = appendString(buf, n)
		}
	case OpDrop:
		buf = appendString(buf, op.Label)
	case OpCompact, OpCheckpoint:
	}
	return buf
}

// DecodeOp decodes one record payload. It is strict: unknown kinds,
// truncated fields, outsized counts and trailing garbage are all errors —
// a record that passed its CRC but fails here is corruption the caller must
// surface, not skip.
func DecodeOp(payload []byte) (Op, error) {
	r := relation.NewBinReader("wal", payload)
	op := Op{Kind: r.Byte()}
	switch op.Kind {
	case OpAppend, OpUpdate:
		if op.Kind == OpUpdate {
			op.Row = r.Count("row", 1<<40)
		}
		n := r.Count("tuple length", uint64(len(payload)))
		for i := 0; i < n && r.Err() == nil; i++ {
			op.Tuple = append(op.Tuple, r.Value())
		}
	case OpAppendStrings, OpUpdateStrings:
		if op.Kind == OpUpdateStrings {
			op.Row = r.Count("row", 1<<40)
		}
		n := r.Count("cell count", uint64(len(payload)))
		for i := 0; i < n && r.Err() == nil; i++ {
			op.Cells = append(op.Cells, r.Str())
		}
	case OpDelete:
		n := r.Count("delete batch", uint64(len(payload)))
		for i := 0; i < n && r.Err() == nil; i++ {
			op.Rows = append(op.Rows, r.Count("row", 1<<40))
		}
	case OpDefine:
		op.Label = r.Str()
		op.Spec = r.Str()
	case OpAccept:
		op.Label = r.Str()
		n := r.Count("name count", uint64(len(payload)))
		for i := 0; i < n && r.Err() == nil; i++ {
			op.Names = append(op.Names, r.Str())
		}
	case OpDrop:
		op.Label = r.Str()
	case OpCompact, OpCheckpoint:
	default:
		return Op{}, fmt.Errorf("wal: unknown op kind %d", op.Kind)
	}
	if r.Err() != nil {
		return Op{}, r.Err()
	}
	if rest := len(r.Rest()); rest != 0 {
		return Op{}, fmt.Errorf("wal: %d trailing bytes after op %d", rest, op.Kind)
	}
	return op, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}
