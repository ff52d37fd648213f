package pli

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// samePartitionBits requires p and q to be byte-for-byte the same layout —
// not merely the same clustering. The sharded builds promise bit-identical
// output, so the arena, offsets, bitmap words and bitmap lengths must all
// match the sequential build exactly.
func samePartitionBits(t *testing.T, label string, p, q *Partition) {
	t.Helper()
	if p.NumRows() != q.NumRows() || p.extent != q.extent || p.wpc != q.wpc {
		t.Fatalf("%s: shape mismatch: rows %d/%d extent %d/%d wpc %d/%d",
			label, p.NumRows(), q.NumRows(), p.extent, q.extent, p.wpc, q.wpc)
	}
	if !reflect.DeepEqual(p.arena, q.arena) || !reflect.DeepEqual(p.offs, q.offs) {
		t.Fatalf("%s: sparse layout diverged", label)
	}
	if !reflect.DeepEqual(p.bits, q.bits) || !reflect.DeepEqual(p.bitLens, q.bitLens) {
		t.Fatalf("%s: dense layout diverged", label)
	}
}

// shardedFixture builds a relation large enough for several shard units,
// with a low-cardinality column (routed row-sharded), a high-cardinality
// column (routed code-sharded), a NULL-bearing column, and a tombstone
// pattern that leaves some segments clean and punches holes in others.
func shardedFixture(t *testing.T, rows int) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	schema := relation.MustSchema(
		relation.Column{Name: "lo", Kind: relation.KindString},
		relation.Column{Name: "hi", Kind: relation.KindInt},
		relation.Column{Name: "nul", Kind: relation.KindString},
	)
	r := relation.New("sharded", schema)
	for i := 0; i < rows; i++ {
		lo := relation.String(string(rune('A' + rng.Intn(7))))
		hi := relation.Int(int64(rng.Intn(rows)))
		nul := relation.Value(relation.Null)
		if rng.Intn(3) > 0 {
			nul = relation.String(string(rune('a' + rng.Intn(5))))
		}
		r.MustAppend(lo, hi, nul)
	}
	var doomed []int
	for row := 0; row < rows; row++ {
		// Skip the second segment entirely so a clean segment survives, and
		// delete roughly one row in nine elsewhere.
		if row/r.SegmentRows() != 1 && rng.Intn(9) == 0 {
			doomed = append(doomed, row)
		}
	}
	if err := r.Delete(doomed...); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestShardedBuildsBitIdentical drives both sharded FromColumn passes
// directly — the dispatch gate never picks them on a single-core host —
// and requires their output to be byte-identical to the sequential
// counting build at several worker counts, across tombstones, NULL codes
// and both cardinality regimes.
func TestShardedBuildsBitIdentical(t *testing.T) {
	r := shardedFixture(t, 5*4096)
	for col := 0; col < r.NumCols(); col++ {
		codes := r.ColumnCodes(col)
		groups := r.DictLen(col) + 1
		seq := fromColumnSeq(r, codes, groups)
		if !matchesOracle(r, bitset.New(col), seq) {
			t.Fatalf("col %d: sequential build diverged from the oracle", col)
		}
		for _, workers := range []int{2, 3, 8, 64} {
			rs := fromColumnRowSharded(r, codes, groups, workers)
			samePartitionBits(t, "row-sharded", seq, rs)
			cs := fromColumnCodeSharded(r, codes, groups, workers)
			samePartitionBits(t, "code-sharded", seq, cs)
		}
	}
}

// TestFromColumnParallelDispatch forces a multi-worker GOMAXPROCS and a
// relation past the parallel gate, so FromColumn itself routes through the
// sharded builds: the low-cardinality column takes the row shards, the
// high-cardinality one the code shards, and both must match the sequential
// layout bit for bit.
func TestFromColumnParallelDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 68k-row relation")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r := shardedFixture(t, parallelBuildMinRows+2048)
	for col := 0; col < r.NumCols(); col++ {
		codes := r.ColumnCodes(col)
		groups := r.DictLen(col) + 1
		samePartitionBits(t, "dispatch", fromColumnSeq(r, codes, groups), FromColumn(r, col))
	}
	// The universal partition (empty attribute set) has its own dense
	// fast path over the tombstone array.
	u := universalOf(r)
	if u.NumRows() != r.LiveRows() || u.NumClasses() != 1 {
		t.Fatalf("universal partition: %d rows in %d classes, want %d in 1",
			u.NumRows(), u.NumClasses(), r.LiveRows())
	}
	if len(u.bitLens) != 1 || u.MemBytes() <= 0 {
		t.Fatalf("universal partition of %d live rows should be one dense class", r.LiveRows())
	}
	if !matchesOracle(r, bitset.Set{}, u) {
		t.Fatal("universal partition disagrees with the oracle")
	}
}

// TestExportImportRoundTripInPackage round-trips tracked indexes through
// IndexDump on a mutated counter: the import must reproduce every tracked
// clustering on a fresh counter over the same instance, and the dump
// accessors must describe what was exported.
func TestExportImportRoundTripInPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := randomRelation(rng, 400, 3, 4)
	c := NewIncrementalCounter(r)
	sets := []bitset.Set{bitset.New(0), bitset.New(1, 2), bitset.New(0, 1, 2)}
	c.TrackBatch(sets)
	c.TrackBatch(sets) // re-tracking only refreshes recency
	if err := c.Delete(3, 7, 11); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateStrings(0, "A", "B", "C"); err != nil {
		t.Fatal(err)
	}
	r.MustAppend(relation.String("D"), relation.String("D"), relation.String("D"))
	gen := c.Generation()

	dumps := c.ExportIndexes()
	if len(dumps) != len(sets) {
		t.Fatalf("exported %d dumps, want %d", len(dumps), len(sets))
	}
	for _, d := range dumps {
		total := 0
		for j := 0; j < d.NumClusters(); j++ {
			if len(d.Cluster(j)) == 0 {
				t.Fatal("export contains an empty cluster")
			}
			total += len(d.Cluster(j))
		}
		if total != c.Relation().LiveRows() {
			t.Fatalf("dump %v covers %d rows, want %d", d.Attrs, total, c.Relation().LiveRows())
		}
	}

	c2 := NewIncrementalCounter(r)
	c2.RestoreGeneration(gen)
	c2.RestoreGeneration(1) // backward jumps are ignored
	if got := c2.Generation(); got != gen {
		t.Fatalf("restored generation %d, want %d", got, gen)
	}
	if err := c2.ImportIndexes(dumps); err != nil {
		t.Fatal(err)
	}
	for _, x := range sets {
		if got, want := c2.Count(x), c.Count(x); got != want {
			t.Fatalf("imported Count(%v) = %d, want %d", x, got, want)
		}
		if !matchesOracle(r, x, c2.Partition(x)) {
			t.Fatalf("imported Partition(%v) diverged from the oracle", x)
		}
	}

	// A dump from some other instance must be rejected, not half-applied.
	// (Its set must be untracked — imports skip already-tracked sets.)
	var bogus IndexDump
	bogus.Attrs = []int{1}
	bogus.AddCluster(0, 1)
	if err := c2.ImportIndexes([]IndexDump{bogus}); err == nil {
		t.Fatal("import of a partial-coverage dump succeeded")
	}
}
