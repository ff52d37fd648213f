package pli

import (
	"fmt"
	"math"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// witnessRelation is 2000 rows over a (4 values), b (5), c = f(a, b) and
// d (3): {a, b} → c holds, {a, d} → c does not, and every class of π_a is
// a ~500-row bitmap class.
func witnessRelation(t testing.TB) *relation.Relation {
	rows := make([][]string, 2000)
	for i := range rows {
		a, b := i%4, (i/4)%5
		rows[i] = []string{fmt.Sprint(a), fmt.Sprint(b), fmt.Sprint((a*5 + b) % 7), fmt.Sprint(i % 3)}
	}
	return buildRelation(t, []string{"a", "b", "c", "d"}, rows)
}

// TestWitnessAllocatesNothing: once the pooled stamp table and decode
// buffer have grown, a witness scan — exact or stopping at a conflict, over
// bitmap classes — allocates nothing.
func TestWitnessAllocatesNothing(t *testing.T) {
	r := witnessRelation(t)
	plic := NewPLICounter(r)
	p := plic.Partition(bitset.New(0))
	if len(p.bitLens) == 0 {
		t.Fatal("π_a has no bitmap classes; the test exercises no decode")
	}
	y := r.ColumnCodes(2)
	if w1, _, n := p.Witness(r, 1, y); w1 >= 0 || n != plic.Count(bitset.New(0, 1)) {
		t.Fatalf("{a,b} -> c: w1 %d, classes %d; want exact with %d", w1, n, plic.Count(bitset.New(0, 1)))
	}
	if w1, _, _ := p.Witness(r, 3, y); w1 < 0 {
		t.Fatal("{a,d} -> c reported exact")
	}
	for _, attr := range []int{1, 3} {
		if a := testing.AllocsPerRun(100, func() { p.Witness(r, attr, y) }); a != 0 {
			t.Fatalf("Witness(attr %d) allocates %.1f times per call", attr, a)
		}
	}
}

// TestWitnessStampWrap: when the generation counter wraps, the stamp table
// is cleared, so a slot stamped 2³² classes ago cannot pass for the current
// class and fake a conflict.
func TestWitnessStampWrap(t *testing.T) {
	s := &witnessScratch{}
	s.ensure(2)
	s.slots[1] = witnessSlot{gen: 1, y: 99}
	s.gen = math.MaxUint32
	if w1, w2, distinct := s.class([]int32{0, 1}, []int32{0, 0}, []int32{5, 5}); w1 >= 0 || distinct != 1 {
		t.Fatalf("class after wrap = (%d, %d, %d), want (-1, -1, 1)", w1, w2, distinct)
	}
	if s.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", s.gen)
	}
}

// FuzzChildWitness turns a byte script into a four-column relation with
// NULLs and tombstones (each generated row appended once, or 80 times so
// that classes become bitmaps), then checks the witness against the
// count-only products for every parent X, added attribute (or none) and
// consequent Y: the verdict is ChildCount(X′) == ChildCount(X′Y), an exact
// child's class count is ChildCount(X′), and a violation's row pair is live,
// agrees on X′ and differs on Y.
func FuzzChildWitness(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 1, 2, 4, 7, 0, 1, 1, 1, 1, 2, 3, 0, 4})
	f.Add([]byte{1, 0, 0, 1, 2, 3, 1, 1, 2, 4, 7, 2, 2, 0, 3, 3, 6, 0, 1})
	f.Add([]byte{0, 4, 4, 4, 4, 0, 4, 0, 4, 7, 1, 4, 4, 4, 4})
	f.Add([]byte{1, 3, 2, 1, 0, 7, 5, 0, 1, 2, 3, 6, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		rep := 1
		if next()%2 == 1 {
			rep = 80
		}
		r := buildRelation(t, []string{"a", "b", "c", "d"}, nil)
		for len(script) > 0 {
			switch op := next() % 8; op {
			case 7: // delete a live row
				if live := liveRowIDs(r); len(live) > 0 {
					if err := r.Delete(live[int(next())%len(live)]); err != nil {
						t.Fatal(err)
					}
				}
			case 6:
				r.Compact()
			default:
				tup := make([]relation.Value, 4)
				for i := range tup {
					if b := (next() + op) % 5; b < 4 {
						tup[i] = relation.String(string(rune('p' + b)))
					}
				}
				for k := 0; k < rep; k++ {
					if err := r.Append(tup...); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		plic := NewPLICounter(r)
		for xm := 0; xm < 16; xm++ {
			x := maskSet(xm)
			p := plic.Partition(x)
			for attr := -1; attr < 4; attr++ {
				if attr >= 0 && x.Contains(attr) {
					continue
				}
				child := x
				if attr >= 0 {
					child = x.With(attr)
				}
				for ym := 1; ym < 16; ym++ {
					ys := maskSet(ym)
					if ys.Intersects(child) {
						continue
					}
					y := r.ColumnCodes(ys.Min())
					if ys.Len() > 1 {
						y = plic.Partition(ys).RowLabels()
					}
					xy := x.Union(ys)
					numX, numXY := plic.Count(x), plic.Count(xy)
					if attr >= 0 {
						numX = plic.ChildCount(x, p, attr)
						numXY = plic.ChildCount(xy, plic.Partition(xy), attr)
					}
					w1, w2, classes := p.Witness(r, attr, y)
					if (w1 < 0) != (numX == numXY) {
						t.Fatalf("%v+%d -> %v: witness (%d,%d), counts %d/%d", x, attr, ys, w1, w2, numX, numXY)
					}
					if w1 < 0 {
						if classes != numX {
							t.Fatalf("%v+%d -> %v: %d classes, ChildCount %d", x, attr, ys, classes, numX)
						}
						continue
					}
					if !violates(r, child, ys, w1, w2) {
						t.Fatalf("%v+%d -> %v: (%d,%d) is no violating pair", x, attr, ys, w1, w2)
					}
				}
			}
		}
	})
}

// maskSet is the attribute set whose members are mask's bits.
func maskSet(mask int) bitset.Set {
	var s bitset.Set
	for col := 0; mask>>col != 0; col++ {
		if mask>>col&1 == 1 {
			s.Add(col)
		}
	}
	return s
}

// violates reports whether rows w1 and w2 are live, agree on x and differ
// on y.
func violates(r *relation.Relation, x, y bitset.Set, w1, w2 int) bool {
	if r.IsDeleted(w1) || r.IsDeleted(w2) {
		return false
	}
	for _, c := range x.Members() {
		if r.ColumnCodes(c)[w1] != r.ColumnCodes(c)[w2] {
			return false
		}
	}
	for _, c := range y.Members() {
		if r.ColumnCodes(c)[w1] != r.ColumnCodes(c)[w2] {
			return true
		}
	}
	return false
}
