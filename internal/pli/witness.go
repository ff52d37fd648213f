package pli

import (
	"math/bits"
	"sync"

	"github.com/evolvefd/evolvefd/internal/relation"
)

// witnessSlot is one entry of the witness's stamp table: the π_X class (by
// generation) that last saw this code of the added attribute, and the Y
// label the code carries in that class. 8 bytes, so a table over a
// near-key column of 500k codes stays at 4MB.
type witnessSlot struct {
	gen uint32
	y   int32
}

// witnessScratch is the reusable state of Witness: a stamp table indexed by
// the added attribute's code + 1 (NULL is code −1) and the decode buffer
// for bitmap classes. A slot is live only while its gen equals the current
// class's generation, so moving to the next class is one increment — no
// clearing, no hashing, and no allocation once the table has grown.
type witnessScratch struct {
	slots []witnessSlot
	gen   uint32
	buf   []int32
}

// witnessPool hands each concurrent caller (a repair-search worker, a
// discovery probe) its own scratch, recycled across calls.
var witnessPool = sync.Pool{New: func() any { return &witnessScratch{} }}

// ensure widens the stamp table to width slots. Fresh slots carry gen 0,
// which no class ever uses.
func (s *witnessScratch) ensure(width int) {
	if len(s.slots) < width {
		s.slots = make([]witnessSlot, width)
		s.gen = 0
	}
}

// class scans one stored class of π_X. Rows agreeing on the added attribute
// (code a[row]; every row agrees when a is nil) must agree on the Y label.
// It returns the first violating pair — the class's first row with the
// conflicting code, and the row that contradicts it — or (-1, -1), and the
// number of distinct codes seen, which is the number of π_{X∪{A}} classes
// this class splits into when the FD holds.
func (s *witnessScratch) class(members, a, y []int32) (w1, w2, distinct int) {
	if a == nil { // the class is one group: constant on Y, or violated
		for _, row := range members[1:] {
			if y[row] != y[members[0]] {
				return int(members[0]), int(row), 1
			}
		}
		return -1, -1, 1
	}
	s.gen++
	if s.gen == 0 { // wrapped: stale stamps could alias the new generation
		clear(s.slots)
		s.gen = 1
	}
	gen, slots := s.gen, s.slots
	for _, row := range members {
		sl := &slots[a[row]+1]
		if sl.gen != gen {
			sl.gen, sl.y = gen, y[row]
			distinct++
			continue
		}
		if sl.y != y[row] {
			// The conflict is rare and ends the scan, so the first row is
			// found again here instead of being stored in every slot.
			for _, first := range members {
				if a[first] == a[row] {
					return int(first), int(row), distinct
				}
			}
		}
	}
	return -1, -1, distinct
}

// Witness is the one exactness test shared by the repair search and
// discovery. From p = π_X alone, with no product, it decides whether
// X ∪ {attr} → Y holds on the live rows of r; attr < 0 tests X → Y itself.
// y holds each row's Y label: r.ColumnCodes(col) when Y is one column,
// RowLabels of π_Y otherwise.
//
// The FD holds iff, within every stored class of π_X, rows that agree on
// attr agree on Y; singleton classes cannot violate, so the stripped
// partition suffices (EAIFD's index-based validation). The scan stops at
// the first class that breaks this and returns a violating row pair (w1,
// w2) from it, in ForEachClass order; it returns (-1, -1) when the FD
// holds. classes is |π_{X∪{attr}}| — the rows outside stored classes plus
// the distinct attr codes per class — and is meaningful only when the FD
// holds, since a violated scan stops early.
func (p *Partition) Witness(r *relation.Relation, attr int, y []int32) (w1, w2, classes int) {
	s := witnessPool.Get().(*witnessScratch)
	defer witnessPool.Put(s)
	var a []int32
	if attr >= 0 {
		a = r.ColumnCodes(attr)
		s.ensure(r.DictLen(attr) + 1)
	}
	classes = p.numRows
	visit := func(members []int32) bool {
		var distinct int
		w1, w2, distinct = s.class(members, a, y)
		classes -= len(members) - distinct
		return w1 < 0
	}
	for i, ns := 0, p.numSparse(); i < ns; i++ {
		if !visit(p.arena[p.offs[i]:p.offs[i+1]]) {
			return w1, w2, classes
		}
	}
	for d, n := range p.bitLens {
		if cap(s.buf) < int(n) {
			s.buf = make([]int32, 0, n)
		}
		s.buf = s.buf[:0]
		for wi, w := range p.denseWords(d) {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				s.buf = append(s.buf, int32(wi<<6+b))
				w &^= 1 << b
			}
		}
		if !visit(s.buf) {
			return w1, w2, classes
		}
	}
	return -1, -1, classes
}

// RowLabels returns a row-indexed label table in which two live rows share
// a label iff they fall in the same class of p: a stored class's rows carry
// its index (ForEachClass order), every other row the negative ^row. It is
// Witness's y when Y spans several columns.
func (p *Partition) RowLabels() []int32 {
	labels := make([]int32, p.probeExtent())
	for row := range labels {
		labels[row] = ^int32(row)
	}
	p.fillProbe(labels)
	return labels
}
