package pli

import (
	"math/rand"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// sameStorage compares two partitions field by field — arena, offset table,
// bitmap words, bitmap lengths — the "bit-identical" contract ProductParallel
// makes against the serial product (EqualPartition would accept reordered or
// re-encoded classes; this does not).
func sameStorage(t *testing.T, label string, want, got *Partition) {
	t.Helper()
	if want.numRows != got.numRows || want.extent != got.extent {
		t.Fatalf("%s: shape (%d,%d) vs (%d,%d)", label, got.numRows, got.extent, want.numRows, want.extent)
	}
	if want.wpc != got.wpc {
		t.Fatalf("%s: wpc %d vs %d", label, got.wpc, want.wpc)
	}
	eq32 := func(a, b []int32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !eq32(want.arena, got.arena) {
		t.Fatalf("%s: arena diverged (%d vs %d entries)", label, len(got.arena), len(want.arena))
	}
	if !eq32(want.offs, got.offs) {
		t.Fatalf("%s: offset table diverged", label)
	}
	if !eq32(want.bitLens, got.bitLens) {
		t.Fatalf("%s: bitmap lengths diverged", label)
	}
	if len(want.bits) != len(got.bits) {
		t.Fatalf("%s: bitmap words %d vs %d", label, len(got.bits), len(want.bits))
	}
	for i := range want.bits {
		if want.bits[i] != got.bits[i] {
			t.Fatalf("%s: bitmap word %d diverged", label, i)
		}
	}
}

// mutate applies one random DML step (append / delete / update / compact) so
// the differential runs over tombstoned and re-compacted instances, not just
// pristine appends.
func mutate(t *testing.T, rng *rand.Rand, r *relation.Relation, domain int) {
	t.Helper()
	cols := r.NumCols()
	row := make([]relation.Value, cols)
	var live []int
	for id := 0; id < r.NumRows(); id++ {
		if !r.IsDeleted(id) {
			live = append(live, id)
		}
	}
	switch op := rng.Intn(10); {
	case op < 4:
		for c := range row {
			row[c] = relation.String(string(rune('A' + rng.Intn(domain))))
		}
		r.MustAppend(row...)
	case op < 6 && len(live) > 0:
		if err := r.Delete(live[rng.Intn(len(live))]); err != nil {
			t.Fatalf("delete: %v", err)
		}
	case op < 8 && len(live) > 0:
		for c := range row {
			row[c] = relation.String(string(rune('A' + rng.Intn(domain))))
		}
		if err := r.Update(live[rng.Intn(len(live))], row...); err != nil {
			t.Fatalf("update: %v", err)
		}
	default:
		r.Compact()
	}
}

// TestQuickProductCountDifferential drives random DML + Compact interleavings
// and checks, at every step boundary, that the count-only kernels agree with
// the materialised product: ProductCount equals NumClasses of the built
// partition, and the built partition is exactly the map oracle's clustering
// on X∪Y.
func TestQuickProductCountDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for iter := 0; iter < 30; iter++ {
		cols := 2 + rng.Intn(3)
		domain := 2 + rng.Intn(4)
		r := randomRelation(rng, 10+rng.Intn(60), cols, domain)
		for step := 0; step < 10; step++ {
			mutate(t, rng, r, domain)
			x, y := randomSet(rng, cols), randomSet(rng, cols)
			px, py := FromSet(r, x), FromSet(r, y)
			built := px.Product(py, nil)
			if got, want := px.ProductCount(py, nil), built.NumClasses(); got != want {
				t.Fatalf("iter %d step %d: ProductCount(%v·%v) = %d, product has %d classes",
					iter, step, x, y, got, want)
			}
			if !matchesOracle(r, x.Union(y), built) {
				t.Fatalf("iter %d step %d: Product(%v·%v) diverged from the oracle", iter, step, x, y)
			}
		}
	}
}

// mixedRelation builds a relation whose columns induce dense bitmaps (tiny
// domains), pure arena classes (large domains), and a mix, over enough rows to
// clear the parallel-product gate.
func mixedRelation(t *testing.T, rng *rand.Rand, rows int, withTombstones bool) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "dense1", Kind: relation.KindInt},
		relation.Column{Name: "dense2", Kind: relation.KindInt},
		relation.Column{Name: "sparse1", Kind: relation.KindInt},
		relation.Column{Name: "sparse2", Kind: relation.KindInt},
		relation.Column{Name: "mixed", Kind: relation.KindInt},
	)
	r := relation.New("mixed", schema)
	val := func(domain int) relation.Value {
		return relation.Int(int64(rng.Intn(domain)))
	}
	for i := 0; i < rows; i++ {
		r.MustAppend(val(3), val(5), val(rows/3), val(rows/4), val(97))
	}
	if withTombstones {
		var dead []int
		for id := 0; id < r.NumRows(); id++ {
			if rng.Intn(10) == 0 {
				dead = append(dead, id)
			}
		}
		if err := r.Delete(dead...); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestProductParallelBitIdentical pins ProductParallel's storage contract: at
// every worker count the arena, offset table, bitmap words and bitmap lengths
// are exactly the serial product's, across dense×dense, sparse×sparse and
// mixed operands, with and without tombstones — and that serial product (the
// word kernels run here; the quick differential's relations are too small for
// bitmaps) is exactly the map oracle's clustering.
func TestProductParallelBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("large-relation product matrix")
	}
	rng := rand.New(rand.NewSource(45))
	rows := parallelProductMinRows + 5000
	for _, tombstones := range []bool{false, true} {
		r := mixedRelation(t, rng, rows, tombstones)
		parts := make([]*Partition, r.NumCols())
		for c := range parts {
			parts[c] = FromColumn(r, c)
		}
		if parts[0].numSparse() != 0 || len(parts[0].bitLens) == 0 {
			t.Fatalf("dense1 not bitmap-backed; cut tuning changed")
		}
		if len(parts[2].bitLens) != 0 {
			t.Fatalf("sparse1 produced dense classes; cut tuning changed")
		}
		cases := [][2]int{{0, 1}, {2, 3}, {0, 2}, {2, 0}, {4, 0}, {4, 2}}
		for _, pq := range cases {
			p, q := parts[pq[0]], parts[pq[1]]
			want := p.Product(q, nil)
			if !matchesOracle(r, bitset.New(pq[0], pq[1]), want) {
				t.Fatalf("%v: serial product diverged from the oracle", pq)
			}
			for _, workers := range []int{1, 2, 3, 5, 8} {
				got := p.ProductParallel(q, workers)
				sameStorage(t, r.Name()+" "+caseName(pq, workers, tombstones), want, got)
			}
			if got, wantN := p.ProductCount(q, nil), want.NumClasses(); got != wantN {
				t.Fatalf("%v: ProductCount %d vs %d", pq, got, wantN)
			}
		}
	}
}

func caseName(pq [2]int, workers int, tombstones bool) string {
	names := []string{"dense1", "dense2", "sparse1", "sparse2", "mixed"}
	s := names[pq[0]] + "×" + names[pq[1]]
	if tombstones {
		s += "+tombstones"
	}
	return s + " w=" + string(rune('0'+workers))
}

// TestProductCountDenseZeroAllocs pins the all-dense count path: AND +
// popcount over shared bitmaps, no probe table, no scratch, no output — zero
// allocations.
func TestProductCountDenseZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	r := randomRelation(rng, 100_000, 2, 3)
	p, q := FromColumn(r, 0), FromColumn(r, 1)
	if p.numSparse() != 0 || q.numSparse() != 0 || len(p.bitLens) == 0 {
		t.Fatalf("operands not all-dense (p: %d dense / %d stored)", len(p.bitLens), p.NumStrippedClasses())
	}
	want := p.Product(q, nil).NumClasses()
	allocs := testing.AllocsPerRun(100, func() {
		if got := p.ProductCount(q, nil); got != want {
			t.Fatalf("count %d, want %d", got, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("dense×dense ProductCount allocates %.0f objects/run, want 0", allocs)
	}
}
