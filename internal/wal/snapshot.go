package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/evolvefd/evolvefd/internal/discovery"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// snapMagic opens every snapshot file; snapVersion names the one layout
// written and read. It stores each tracked index columnar — a size table
// followed by one flat member arena, matching pli.IndexDump's layout so the
// encoder dumps the arenas directly and the decoder fills one allocation with
// a single fixed-width sweep. Any other version is refused.
const (
	snapMagic   = "EVFDSNP1"
	snapVersion = 3
)

// Snapshot is the full durable state of a session at one epoch boundary:
// the compacted relation, the designer's defined FDs, and — when discovery
// has been seeded — the maintained borders with the advisor's diff
// baselines. Everything else a session holds (tracked cluster maps, cached
// measures) is derived state that recovery rebuilds lazily.
type Snapshot struct {
	// Seq is the snapshot's sequence number; log Seq holds the records
	// after it.
	Seq uint64
	// Generation is the counter generation at snapshot time, restored via
	// pli.IncrementalCounter.RestoreGeneration so cached stamps stay
	// truthful across the restart.
	Generation uint64
	// Compactions is the session's lifetime compaction count.
	Compactions uint64
	// Rel is the relation instance.
	Rel *relation.Relation
	// FDs are the defined dependencies in definition order, each as the
	// label plus its Define-syntax text (re-parsed on restore).
	FDs []DefinedFD
	// Disc is the incremental-discovery state, nil when the session never
	// seeded a discoverer.
	Disc *DiscState
	// Indexes are the counter's tracked cluster indexes, exported so
	// recovery decodes its partition state in O(clusters) per set instead
	// of refolding the whole instance per set. They are an optimization,
	// not ground truth: a session restored without them is merely slower.
	Indexes []pli.IndexDump
}

// DefinedFD is one defined dependency in durable form.
type DefinedFD struct {
	// Label is the FD's session-unique name; Spec its attribute-name text.
	Label, Spec string
}

// DiscState is the durable form of a session's discovery layer.
type DiscState struct {
	// MaxLHS is the normalized antecedent bound the discoverer runs under.
	MaxLHS int
	// HasConsequents distinguishes a nil consequent restriction (discover
	// everywhere) from an explicit list; Consequents holds the sorted column
	// indexes when HasConsequents.
	HasConsequents bool
	Consequents    []int
	// Borders is the exported positive/negative border state.
	Borders discovery.BorderSnapshot
	// LastCover holds the advisor baseline: the opaque keys of the cover FDs
	// already reported, sorted for determinism.
	LastCover []string
	// LastExact holds the advisor's per-label exactness baseline, in
	// definition order.
	LastExact []LabelExact
}

// LabelExact is one advisor exactness baseline entry.
type LabelExact struct {
	// Label names the defined FD; Exact is whether it held at the baseline.
	Label string
	Exact bool
}

// EncodeSnapshot serializes snap: a magic+version header, the fields in
// declaration order, and a trailing CRC32 over everything before it. The
// rename-based writer makes torn snapshots impossible; the checksum catches
// the remaining failure mode — bit rot or an overwritten file — so recovery
// can fall back to the previous generation instead of loading garbage.
func EncodeSnapshot(snap *Snapshot) []byte {
	buf := []byte(snapMagic)
	buf = append(buf, snapVersion)
	buf = binary.AppendUvarint(buf, snap.Seq)
	buf = binary.AppendUvarint(buf, snap.Generation)
	buf = binary.AppendUvarint(buf, snap.Compactions)
	buf = snap.Rel.AppendBinary(buf)
	buf = binary.AppendUvarint(buf, uint64(len(snap.FDs)))
	for _, fd := range snap.FDs {
		buf = appendString(buf, fd.Label)
		buf = appendString(buf, fd.Spec)
	}
	if snap.Disc == nil {
		buf = append(buf, 0)
	} else {
		d := snap.Disc
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(d.MaxLHS))
		if d.HasConsequents {
			buf = append(buf, 1)
			buf = appendInts(buf, d.Consequents)
		} else {
			buf = append(buf, 0)
		}
		buf = appendInts(buf, d.Borders.Eligible)
		buf = binary.AppendUvarint(buf, uint64(len(d.Borders.States)))
		for _, st := range d.Borders.States {
			buf = binary.AppendUvarint(buf, uint64(st.Y))
			buf = binary.AppendUvarint(buf, uint64(len(st.Valid)))
			for _, attrs := range st.Valid {
				buf = appendInts(buf, attrs)
			}
			buf = binary.AppendUvarint(buf, uint64(len(st.Invalid)))
			for _, w := range st.Invalid {
				buf = appendInts(buf, w.X)
				buf = binary.AppendUvarint(buf, uint64(w.W1))
				buf = binary.AppendUvarint(buf, uint64(w.W2))
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(d.LastCover)))
		for _, key := range d.LastCover {
			buf = appendString(buf, key)
		}
		buf = binary.AppendUvarint(buf, uint64(len(d.LastExact)))
		for _, le := range d.LastExact {
			buf = appendString(buf, le.Label)
			if le.Exact {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	// Cluster members are fixed-width little-endian int32s, not varints:
	// the dumps hold one entry per live row per index, and decoding them is
	// on recovery's critical path — a fixed-width loop decodes several
	// times faster than per-row varint parsing, for ~2 bytes more per row.
	// v3 layout per index: attrs, cluster count, member total, all cluster
	// sizes as uvarints, then the flat member arena in one block.
	buf = binary.AppendUvarint(buf, uint64(len(snap.Indexes)))
	for _, d := range snap.Indexes {
		buf = appendInts(buf, d.Attrs)
		nclusters := d.NumClusters()
		buf = binary.AppendUvarint(buf, uint64(nclusters))
		buf = binary.AppendUvarint(buf, uint64(len(d.Members)))
		for j := 0; j < nclusters; j++ {
			buf = binary.AppendUvarint(buf, uint64(d.Offsets[j+1]-d.Offsets[j]))
		}
		for _, row := range d.Members {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(row))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func appendInts(buf []byte, vals []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

// DecodeSnapshot decodes an EncodeSnapshot blob, verifying the checksum
// first and every structural bound after it. Like the relation decoder it
// returns errors, never panics: recovery probes snapshots newest-first and a
// bad one must fail cleanly so the previous generation gets its turn.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+1+4 {
		return nil, fmt.Errorf("wal: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("wal: bad snapshot magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("wal: snapshot checksum mismatch")
	}
	r := relation.NewBinReader("wal", body[len(snapMagic):])
	v := r.Byte()
	if r.Err() == nil && v != snapVersion {
		return nil, fmt.Errorf("wal: unsupported snapshot version %d", v)
	}
	snap := &Snapshot{}
	snap.Seq = r.Uvarint()
	snap.Generation = r.Uvarint()
	snap.Compactions = r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	rel, n, err := relation.DecodeBinary(r.Rest())
	if err != nil {
		return nil, err
	}
	snap.Rel = rel
	r.Bytes(n)
	nfds := r.Count("FD count", uint64(len(body)))
	for i := 0; i < nfds && r.Err() == nil; i++ {
		snap.FDs = append(snap.FDs, DefinedFD{Label: r.Str(), Spec: r.Str()})
	}
	switch hasDisc := r.Byte(); {
	case r.Err() != nil:
	case hasDisc == 0:
	case hasDisc != 1:
		r.Failf("discovery flag byte %d", hasDisc)
	default:
		d := &DiscState{}
		d.MaxLHS = r.Count("MaxLHS", 1<<20)
		switch hasCons := r.Byte(); {
		case r.Err() != nil:
		case hasCons == 1:
			d.HasConsequents = true
			d.Consequents = readInts(r, "consequent")
		case hasCons != 0:
			r.Failf("consequent flag byte %d", hasCons)
		}
		d.Borders.MaxLHS = d.MaxLHS
		d.Borders.Eligible = readInts(r, "eligible column")
		nstates := r.Count("state count", uint64(len(body)))
		for i := 0; i < nstates && r.Err() == nil; i++ {
			st := discovery.ConsequentSnapshot{Y: r.Count("consequent", 1<<20)}
			nvalid := r.Count("cover size", uint64(len(body)))
			for j := 0; j < nvalid && r.Err() == nil; j++ {
				st.Valid = append(st.Valid, readInts(r, "cover attribute"))
			}
			ninvalid := r.Count("border size", uint64(len(body)))
			for j := 0; j < ninvalid && r.Err() == nil; j++ {
				w := discovery.WitnessSnapshot{X: readInts(r, "border attribute")}
				w.W1 = r.Count("witness row", 1<<40)
				w.W2 = r.Count("witness row", 1<<40)
				st.Invalid = append(st.Invalid, w)
			}
			d.Borders.States = append(d.Borders.States, st)
		}
		ncover := r.Count("baseline cover size", uint64(len(body)))
		for i := 0; i < ncover && r.Err() == nil; i++ {
			d.LastCover = append(d.LastCover, r.Str())
		}
		nexact := r.Count("baseline label count", uint64(len(body)))
		for i := 0; i < nexact && r.Err() == nil; i++ {
			le := LabelExact{Label: r.Str()}
			switch b := r.Byte(); {
			case r.Err() != nil:
			case b == 1:
				le.Exact = true
			case b != 0:
				r.Failf("exactness byte %d", b)
			}
			d.LastExact = append(d.LastExact, le)
		}
		snap.Disc = d
	}
	nidx := r.Count("index count", uint64(len(body)))
	for i := 0; i < nidx && r.Err() == nil; i++ {
		d := pli.IndexDump{Attrs: readInts(r, "index attribute")}
		nclusters := r.Count("cluster count", uint64(len(body)))
		total := r.Count("cluster member total", uint64(len(body)/4+1))
		if r.Err() != nil {
			break
		}
		d.Offsets = make([]int32, 1, nclusters+1)
		// The size table first, then the member arena in one block — decoded
		// with a single fixed-width sweep into one allocation.
		sum := 0
		for j := 0; j < nclusters && r.Err() == nil; j++ {
			n := r.Count("cluster size", uint64(total-sum))
			sum += n
			d.Offsets = append(d.Offsets, int32(sum))
		}
		if r.Err() == nil && sum != total {
			r.Failf("cluster sizes total %d of %d arena members", sum, total)
		}
		arena := r.Bytes(4 * total)
		if r.Err() != nil {
			break
		}
		d.Members = make([]int32, total)
		for k := range d.Members {
			d.Members[k] = int32(binary.LittleEndian.Uint32(arena[4*k:]))
		}
		snap.Indexes = append(snap.Indexes, d)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if rest := len(r.Rest()); rest != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes in snapshot", rest)
	}
	return snap, nil
}

// readInts reads a count-prefixed int list, bounding the count by the
// remaining input.
func readInts(r *relation.BinReader, what string) []int {
	n := r.Count(what+" count", uint64(len(r.Rest())))
	if n == 0 || r.Err() != nil {
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, r.Count(what, 1<<40))
	}
	return out
}

// WriteSnapshotFS encodes snap and writes it to its sequence-numbered path
// under dir, atomically and (unless noFsync) durably.
func WriteSnapshotFS(fsys FS, dir string, snap *Snapshot, noFsync bool) error {
	return WriteFileAtomicFS(fsys, SnapshotPath(dir, snap.Seq), EncodeSnapshot(snap), !noFsync)
}

// ReadSnapshotFS loads and decodes snapshot seq from dir.
func ReadSnapshotFS(fsys FS, dir string, seq uint64) (*Snapshot, error) {
	data, err := OrOS(fsys).ReadFile(SnapshotPath(dir, seq))
	if err != nil {
		return nil, err
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	if snap.Seq != seq {
		return nil, fmt.Errorf("wal: snapshot file %d holds seq %d", seq, snap.Seq)
	}
	return snap, nil
}

// VerifySnapshot is the cheap integrity check — magic plus trailing CRC,
// no structural decode — that gates retention: a snapshot the leader cannot
// read back clean must not become the newest generation older state is
// pruned against.
func VerifySnapshot(fsys FS, dir string, seq uint64) bool {
	data, err := OrOS(fsys).ReadFile(SnapshotPath(dir, seq))
	if err != nil || len(data) < len(snapMagic)+1+4 {
		return false
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return false
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	return crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(tail)
}
