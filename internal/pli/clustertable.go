package pli

import (
	"math/rand/v2"
	"slices"
)

// clusterTable maps the code tuple of a tracked attribute set to its
// cluster id. Cluster j's tuple is stored at keys[j*w:(j+1)*w], and slots is
// an open-addressing (linear probing) table of id+1, 0 meaning empty, whose
// length is a power of two kept at most half full. A lookup compares the
// probe tuple against keys in place, so it allocates nothing, and the table
// holds no pointers for the garbage collector to scan: a fold over every row
// of a large relation builds no key and leaves no garbage.
//
// Ids are assigned in insertion order, so the ids a fold hands out depend on
// the row order alone. The hash is seeded per table, as Go's own maps are,
// so values chosen by a client cannot be lined up onto one probe chain.
// A tuple of width 0 (the empty attribute set) is valid: all such tuples are
// equal and the table holds at most one cluster.
type clusterTable struct {
	w     int
	n     int
	keys  []int32
	slots []int32
	seed  uint64
}

// newClusterTable returns an empty table for tuples of width w, sized to
// hold hint clusters without growing.
func newClusterTable(w, hint int) clusterTable {
	t := clusterTable{w: w, seed: rand.Uint64(), keys: make([]int32, 0, w*hint)}
	t.rehash(slotsFor(hint))
	return t
}

// slotsFor is the smallest power-of-two slot count that keeps n clusters at
// most half full.
func slotsFor(n int) int {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return size
}

// hash mixes the seed and each code through a multiply–xorshift round,
// then finalises with one more round so that runs of consecutive codes,
// which dictionaries hand out, spread over the low bits the slots use.
func (t *clusterTable) hash(tuple []int32) uint64 {
	h := t.seed
	for _, v := range tuple {
		h = (h ^ uint64(uint32(v))) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

// find returns the slot holding tuple's id+1, or the empty slot where it
// would go.
func (t *clusterTable) find(tuple []int32) int {
	mask := len(t.slots) - 1
	for i := int(t.hash(tuple)) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 || slices.Equal(t.keys[int(s-1)*t.w:int(s)*t.w], tuple) {
			return i
		}
	}
}

// get returns the id of tuple's cluster, or −1 when it has none.
func (t *clusterTable) get(tuple []int32) int32 {
	return t.slots[t.find(tuple)] - 1
}

// add returns the id of tuple's cluster, appending a cluster with the next
// id when it has none; fresh reports whether it did.
func (t *clusterTable) add(tuple []int32) (id int32, fresh bool) {
	i := t.find(tuple)
	if s := t.slots[i]; s != 0 {
		return s - 1, false
	}
	if 2*(t.n+1) > len(t.slots) {
		t.rehash(2 * len(t.slots))
		i = t.find(tuple)
	}
	id = int32(t.n)
	t.n++
	t.keys = append(t.keys, tuple...)
	t.slots[i] = id + 1
	return id, true
}

// renumber keeps the clusters whose remap entry is non-negative, moving
// cluster id to remap[id] (0, 1, 2, … in id order, as maybeCompact assigns
// them), and rebuilds the slots for the clusters that remain.
func (t *clusterTable) renumber(remap []int32) {
	w, n := t.w, 0
	for id, to := range remap {
		if to >= 0 {
			copy(t.keys[int(to)*w:int(to+1)*w], t.keys[id*w:(id+1)*w])
			n++
		}
	}
	t.keys = t.keys[:n*w]
	t.n = n
	t.rehash(slotsFor(n))
}

// rehash re-slots every cluster into a fresh table of size slots. The
// tuples are distinct, so each goes to the first empty slot of its probe
// sequence without comparing keys.
func (t *clusterTable) rehash(size int) {
	t.slots = make([]int32, size)
	mask := size - 1
	for id := 0; id < t.n; id++ {
		i := int(t.hash(t.keys[id*t.w:(id+1)*t.w])) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id) + 1
	}
}
