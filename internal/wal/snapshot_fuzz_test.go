package wal

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// reversioned returns blob with its header's version byte replaced and the
// trailing CRC recomputed, so decoding reaches the version check.
func reversioned(blob []byte, version byte) []byte {
	body := append([]byte{}, blob[:len(blob)-4]...)
	body[len(snapMagic)] = version
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestSnapshotVersionRejected: only the version the encoder writes decodes;
// any other header version — including the retired interleaved-index v2 —
// is refused by name rather than misread.
func TestSnapshotVersionRejected(t *testing.T) {
	blob := EncodeSnapshot(snapshotFixture(t))
	if _, err := DecodeSnapshot(reversioned(blob, snapVersion)); err != nil {
		t.Fatalf("re-checksummed current version: %v", err)
	}
	for _, v := range []byte{0, 2, snapVersion + 1, 255} {
		_, err := DecodeSnapshot(reversioned(blob, v))
		if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
			t.Fatalf("version %d: err = %v, want unsupported snapshot version", v, err)
		}
	}
}

// FuzzSnapshotIndexes drives the snapshot decoder with structurally mutated
// bodies. The harness re-checksums each input so mutations reach the
// structural layer instead of dying at the CRC; the properties are that the
// decoder never panics, that anything it accepts satisfies the IndexDump
// invariants (monotone offsets covering the arena), and that an accepted
// snapshot round-trips through the v3 encoder unchanged.
func FuzzSnapshotIndexes(f *testing.F) {
	schema, _ := relation.SchemaOf("a", "b")
	rel := relation.New("fz", schema)
	for _, cells := range [][]string{{"x", "1"}, {"x", "2"}, {"y", "1"}} {
		if err := rel.AppendStrings(cells...); err != nil {
			f.Fatal(err)
		}
	}
	var d pli.IndexDump
	d.Attrs = []int{0}
	d.AddCluster(0, 1)
	v3 := EncodeSnapshot(&Snapshot{Seq: 1, Rel: rel, Indexes: []pli.IndexDump{d}})
	f.Add(v3[:len(v3)-4])
	old := reversioned(v3, snapVersion-1)
	f.Add(old[:len(old)-4])
	empty := EncodeSnapshot(&Snapshot{Seq: 2, Rel: rel})
	f.Add(empty[:len(empty)-4])

	f.Fuzz(func(t *testing.T, body []byte) {
		blob := binary.LittleEndian.AppendUint32(append([]byte{}, body...), crc32.ChecksumIEEE(body))
		snap, err := DecodeSnapshot(blob)
		if err != nil {
			return
		}
		for i, d := range snap.Indexes {
			if len(d.Offsets) == 0 || d.Offsets[0] != 0 {
				t.Fatalf("index %d: offsets %v lack the leading 0", i, d.Offsets)
			}
			for j := 1; j < len(d.Offsets); j++ {
				if d.Offsets[j] < d.Offsets[j-1] {
					t.Fatalf("index %d: offsets %v not monotone", i, d.Offsets)
				}
			}
			if int(d.Offsets[len(d.Offsets)-1]) != len(d.Members) {
				t.Fatalf("index %d: offsets end at %d, arena holds %d", i, d.Offsets[len(d.Offsets)-1], len(d.Members))
			}
		}
		again, err := DecodeSnapshot(EncodeSnapshot(snap))
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		if !reflect.DeepEqual(again.Indexes, snap.Indexes) {
			t.Fatalf("indexes changed across re-encode: %+v vs %+v", again.Indexes, snap.Indexes)
		}
	})
}
