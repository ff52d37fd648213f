package pli

import (
	"math/bits"
	"sync"
)

// This file implements the stripped-product kernels. Every product walks q's
// stored classes in one canonical order — arena classes first, then bitmap
// classes — and dispatches each against p's side by storage form:
//
//	q class | p side         | kernel
//	sparse  | any            | probe scatter (row → p-class table)
//	dense   | dense classes  | 64-bit word AND + OnesCount64
//	dense   | sparse classes | bitmap membership test over the member arena
//
// The probe table is only filled when q has sparse classes, so a product of
// two all-dense partitions touches no O(extent) scratch at all. Each kernel
// exists in a materialising and a count-only form; the count-only form never
// writes members, and for dense×dense it is pure popcount.
//
// Precondition of Product, ProductCount and ProductParallel: both operands
// partition the same relation state, so their extents are equal and their
// bitmaps word-aligned. One partition cache at one state (PLICounter) only
// ever multiplies such operands.

// Product computes the partition of X∪Q from the partitions of X and Q using
// the stripped-product algorithm (TANE) over the flat layout, dispatching
// each q class to the kernel table above. scratch may be nil, in which case
// pooled tables are borrowed for the call; passing a scratch from NewScratch
// reuses the caller's across calls.
func (p *Partition) Product(q *Partition, scratch *productScratch) *Partition {
	out := &Partition{numRows: p.numRows, extent: p.extent}
	nq := q.NumStrippedClasses()
	if nq == 0 || p.NumStrippedClasses() == 0 {
		return out
	}
	pooled := scratch == nil
	if pooled {
		scratch = scratchPool.Get().(*productScratch)
	}
	probe := q.numSparse() > 0
	if probe {
		scratch.ensure(p.probeExtent())
		p.fillProbe(scratch.probe)
		scratch.ensureAccum(p.NumStrippedClasses())
	}
	p.productRange(q, scratch, out, 0, nq)
	if probe {
		p.clearProbe(scratch.probe)
	}
	if pooled {
		putScratch(scratch)
	}
	return out
}

// productRange materialises the product classes arising from q's canonical
// classes [lo, hi) into out. Emission order is deterministic: q classes in
// canonical order; within a dense q class, dense p intersections first (p
// class order), then sparse p intersections (arena order); members ascending.
func (p *Partition) productRange(q *Partition, s *productScratch, out *Partition, lo, hi int) {
	ns := q.numSparse()
	for i := lo; i < hi; i++ {
		if i < ns {
			p.emitProbe(q.arena[q.offs[i]:q.offs[i+1]], s, out)
		} else {
			p.emitDense(q, i-ns, s, out)
		}
	}
}

// emitProbe is the probe-scatter kernel: split one q class by the p-class
// probe table, emitting every intersection of size ≥ 2.
func (p *Partition) emitProbe(members []int32, s *productScratch, out *Partition) {
	probe, accum := s.probe, s.accum
	touched := s.touched[:0]
	for _, row := range members {
		if ci := probe[row]; ci >= 0 {
			if len(accum[ci]) == 0 {
				touched = append(touched, ci)
			}
			accum[ci] = append(accum[ci], row)
		}
	}
	for _, ci := range touched {
		if len(accum[ci]) >= 2 {
			out.addClass(accum[ci])
		}
		accum[ci] = accum[ci][:0]
	}
	s.touched = touched[:0]
}

// emitDense intersects dense q class d with every p class using the word
// kernels: AND + popcount against p's bitmaps, membership tests against p's
// member arena. No probe table is read.
func (p *Partition) emitDense(q *Partition, d int, s *productScratch, out *Partition) {
	qw := q.denseWords(d)
	cut := int32(denseCutFor(p.extent))
	if len(p.bitLens) > 0 {
		s.ensureWords(p.wpc)
		words := s.words
		for pd := range p.bitLens {
			pw := p.denseWords(pd)
			n := int32(0)
			for wi, w := range pw {
				w &= qw[wi]
				words[wi] = w
				n += int32(bits.OnesCount64(w))
			}
			if n < 2 {
				continue
			}
			if n >= cut {
				out.addDenseWords(words, n)
				continue
			}
			buf := s.buf[:0]
			for wi, w := range words {
				for w != 0 {
					b := bits.TrailingZeros64(w)
					buf = append(buf, int32(wi<<6+b))
					w &^= 1 << b
				}
			}
			s.buf = buf
			out.addClass(buf)
		}
	}
	for i, nsp := 0, p.numSparse(); i < nsp; i++ {
		buf := s.buf[:0]
		for _, row := range p.arena[p.offs[i]:p.offs[i+1]] {
			if qw[row>>6]>>(uint(row)&63)&1 == 1 {
				buf = append(buf, row)
			}
		}
		s.buf = buf
		if len(buf) >= 2 {
			out.addClass(buf)
		}
	}
}

// ---------------------------------------------------------------------------
// Count-only products

// ProductCount returns |π_{X∪Q}| — NumClasses of p.Product(q) — without
// materialising the product: no arena, no offsets, no bitmaps are written.
// Candidate scoring that reads inexact measures (confidence, goodness, g₃)
// needs only this number: it is the repair search's count path, through
// ChildCount, under the balanced objective, a budget or MaxGoodness. The
// default search asks Witness instead. For all-dense operands the count is
// pure AND + popcount and allocates nothing; scratch (nil for pooled) is
// only touched when q has sparse classes.
func (p *Partition) ProductCount(q *Partition, scratch *productScratch) int {
	nq := q.NumStrippedClasses()
	if nq == 0 || p.NumStrippedClasses() == 0 {
		return p.numRows
	}
	probe := q.numSparse() > 0
	pooled := false
	if probe && scratch == nil {
		scratch = scratchPool.Get().(*productScratch)
		pooled = true
	}
	if probe {
		scratch.ensure(p.probeExtent())
		p.fillProbe(scratch.probe)
		scratch.ensureCounts(p.NumStrippedClasses())
	}
	// merged is Σ(|c|−1) across product classes of size ≥ 2: the stripped
	// "merged rows" total NumClasses subtracts.
	merged := 0
	for i, ns := 0, q.numSparse(); i < nq; i++ {
		if i < ns {
			merged += p.countProbe(q.arena[q.offs[i]:q.offs[i+1]], scratch)
		} else {
			merged += p.countDense(q, i-ns)
		}
	}
	if probe {
		p.clearProbe(scratch.probe)
	}
	if pooled {
		putScratch(scratch)
	}
	return p.numRows - merged
}

// countProbe tallies intersection sizes of one q class through the probe
// table, without recording members.
func (p *Partition) countProbe(members []int32, s *productScratch) int {
	probe, counts := s.probe, s.counts
	touched := s.touched[:0]
	for _, row := range members {
		if ci := probe[row]; ci >= 0 {
			if counts[ci] == 0 {
				touched = append(touched, ci)
			}
			counts[ci]++
		}
	}
	merged := 0
	for _, ci := range touched {
		if n := counts[ci]; n >= 2 {
			merged += int(n) - 1
		}
		counts[ci] = 0
	}
	s.touched = touched[:0]
	return merged
}

// countDense intersects dense q class d with every p class word-parallel:
// popcount of ANDed bitmaps, membership tests over the member arena. Pure
// reads — no scratch, no writes, no allocation.
func (p *Partition) countDense(q *Partition, d int) int {
	qw := q.denseWords(d)
	merged := 0
	for pd := range p.bitLens {
		pw := p.denseWords(pd)
		n := int32(0)
		for wi, w := range pw {
			n += int32(bits.OnesCount64(w & qw[wi]))
		}
		if n >= 2 {
			merged += int(n) - 1
		}
	}
	for i, nsp := 0, p.numSparse(); i < nsp; i++ {
		n := int32(0)
		for _, row := range p.arena[p.offs[i]:p.offs[i+1]] {
			n += int32(qw[row>>6] >> (uint(row) & 63) & 1)
		}
		if n >= 2 {
			merged += int(n) - 1
		}
	}
	return merged
}

// ---------------------------------------------------------------------------
// Sharded parallel product

// parallelProductMinRows gates ProductParallel's fan-out: below it worker
// startup and the merge copy dominate the product itself.
const parallelProductMinRows = 1 << 16

// ProductParallel computes the same partition as Product by fanning q's
// canonical classes across at most `workers` goroutines. Each worker owns a
// contiguous, member-weighted range of q classes, shares the read-only probe
// table, runs the serial kernels into a private partial partition with pooled
// scratch, and the partials are concatenated in shard order — so the arena,
// offset table, bitmap words and bitmap lengths are bit-identical to the
// serial product at every worker count.
func (p *Partition) ProductParallel(q *Partition, workers int) *Partition {
	nq := q.NumStrippedClasses()
	if workers > nq {
		workers = nq
	}
	if workers < 2 || p.numRows < parallelProductMinRows {
		return p.Product(q, nil)
	}
	if p.NumStrippedClasses() == 0 {
		return &Partition{numRows: p.numRows, extent: p.extent}
	}
	var probe []int32
	var probeScratch *productScratch
	if q.numSparse() > 0 {
		probeScratch = scratchPool.Get().(*productScratch)
		probeScratch.ensure(p.probeExtent())
		probe = probeScratch.probe
		p.fillProbePar(probe, workers)
	}
	bounds := q.classShards(workers)
	parts := make([]*Partition, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &Partition{numRows: p.numRows, extent: p.extent}
			s := scratchPool.Get().(*productScratch)
			own := s.probe
			s.probe = probe
			if probe != nil {
				s.ensureAccum(p.NumStrippedClasses())
			}
			p.productRange(q, s, out, bounds[w], bounds[w+1])
			s.probe = own
			putScratch(s)
			parts[w] = out
		}(w)
	}
	wg.Wait()
	if probe != nil {
		p.clearProbePar(probe, workers)
		putScratch(probeScratch)
	}
	return mergeParts(parts, p.numRows, p.extent)
}

// classShards splits q's canonical class sequence into `workers` contiguous
// ranges of roughly equal member weight (arena lengths plus bitmap member
// counts), returning workers+1 monotone bounds.
func (q *Partition) classShards(workers int) []int {
	ns, nq := q.numSparse(), q.NumStrippedClasses()
	total := int64(len(q.arena))
	for _, n := range q.bitLens {
		total += int64(n)
	}
	weightOf := func(i int) int64 {
		if i < ns {
			return int64(q.offs[i+1] - q.offs[i])
		}
		return int64(q.bitLens[i-ns])
	}
	bounds := make([]int, workers+1)
	acc := int64(0)
	next := 1
	for i := 0; i < nq && next < workers; i++ {
		acc += weightOf(i)
		for next < workers && acc >= total*int64(next)/int64(workers) {
			bounds[next] = i + 1
			next++
		}
	}
	for ; next < workers; next++ {
		bounds[next] = nq
	}
	bounds[workers] = nq
	return bounds
}

// fillProbePar fills the probe table across workers, sharding p's classes;
// every row belongs to exactly one class, so writes are disjoint.
func (p *Partition) fillProbePar(probe []int32, workers int) {
	p.forEachClassShard(workers, func(lo, hi int) {
		ns := p.numSparse()
		for i := lo; i < hi; i++ {
			if i < ns {
				for _, row := range p.arena[p.offs[i]:p.offs[i+1]] {
					probe[row] = int32(i)
				}
				continue
			}
			for wi, w := range p.denseWords(i - ns) {
				for w != 0 {
					b := bits.TrailingZeros64(w)
					probe[wi<<6+b] = int32(i)
					w &^= 1 << b
				}
			}
		}
	})
}

// clearProbePar resets exactly the rows fillProbePar set, sharded the same
// way.
func (p *Partition) clearProbePar(probe []int32, workers int) {
	p.forEachClassShard(workers, func(lo, hi int) {
		ns := p.numSparse()
		for i := lo; i < hi; i++ {
			if i < ns {
				for _, row := range p.arena[p.offs[i]:p.offs[i+1]] {
					probe[row] = -1
				}
				continue
			}
			for wi, w := range p.denseWords(i - ns) {
				for w != 0 {
					b := bits.TrailingZeros64(w)
					probe[wi<<6+b] = -1
					w &^= 1 << b
				}
			}
		}
	})
}

// forEachClassShard runs fn over member-weighted contiguous shards of p's
// canonical classes, one goroutine per shard.
func (p *Partition) forEachClassShard(workers int, fn func(lo, hi int)) {
	if workers > p.NumStrippedClasses() {
		workers = p.NumStrippedClasses()
	}
	if workers < 2 {
		fn(0, p.NumStrippedClasses())
		return
	}
	bounds := p.classShards(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(bounds[w], bounds[w+1])
		}(w)
	}
	wg.Wait()
}

// mergeParts concatenates per-shard partial partitions in shard order into
// one flat partition — exactly the storage the serial kernels would have
// appended.
func mergeParts(parts []*Partition, numRows, extent int) *Partition {
	out := &Partition{numRows: numRows, extent: extent}
	arenaLen, offsLen, bitsLen, lensLen := 0, 0, 0, 0
	for _, part := range parts {
		arenaLen += len(part.arena)
		if n := part.numSparse(); n > 0 {
			offsLen += n
		}
		bitsLen += len(part.bits)
		lensLen += len(part.bitLens)
	}
	if offsLen > 0 {
		out.arena = make([]int32, 0, arenaLen)
		out.offs = make([]int32, 1, offsLen+1)
	}
	if lensLen > 0 {
		out.wpc = (extent + 63) / 64
		out.bits = make([]uint64, 0, bitsLen)
		out.bitLens = make([]int32, 0, lensLen)
	}
	for _, part := range parts {
		if len(part.arena) > 0 {
			base := int32(len(out.arena))
			out.arena = append(out.arena, part.arena...)
			for _, off := range part.offs[1:] {
				out.offs = append(out.offs, base+off)
			}
		}
		out.bits = append(out.bits, part.bits...)
		out.bitLens = append(out.bitLens, part.bitLens...)
	}
	return out
}
