package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// mirror is the benchmark's own copy of one instance: the physical rows by
// server row id, their tombstones, and an index of the live ids for random
// picks. It follows the service's row-id discipline — appends take the next
// id, deletes tombstone, compaction renumbers the live rows densely in
// order — so the ids the clients send stay valid, and it is the oracle's
// input: every measure the program reports is recounted here with maps.
type mirror struct {
	rows []row
	dead []bool
	live []int32 // live row ids, unordered
	pos  []int32 // pos[id] is id's index in live; -1 once deleted
}

func newMirror(rows []row) *mirror {
	m := &mirror{rows: append([]row(nil), rows...)}
	m.reindex()
	return m
}

func (m *mirror) reindex() {
	m.dead = make([]bool, len(m.rows))
	m.live = make([]int32, len(m.rows))
	m.pos = make([]int32, len(m.rows))
	for i := range m.rows {
		m.live[i] = int32(i)
		m.pos[i] = int32(i)
	}
}

func (m *mirror) liveRows() int { return len(m.live) }

func (m *mirror) append(r row) {
	m.pos = append(m.pos, int32(len(m.live)))
	m.live = append(m.live, int32(len(m.rows)))
	m.rows = append(m.rows, r)
	m.dead = append(m.dead, false)
}

func (m *mirror) delete(id int) {
	p := m.pos[id]
	last := m.live[len(m.live)-1]
	m.live[p] = last
	m.pos[last] = p
	m.live = m.live[:len(m.live)-1]
	m.pos[id] = -1
	m.dead[id] = true
}

func (m *mirror) update(id int, r row) { m.rows[id] = r }

// compact renumbers like relation.Compact: live rows keep their order and
// take ids 0..live-1.
func (m *mirror) compact() {
	kept := m.rows[:0]
	for id, r := range m.rows {
		if !m.dead[id] {
			kept = append(kept, r)
		}
	}
	m.rows = kept
	m.reindex()
}

// pickLive draws n distinct live row ids.
func (m *mirror) pickLive(n int, rng *rand.Rand) []int {
	if n > len(m.live) {
		n = len(m.live)
	}
	out := make([]int, 0, n)
	seen := make(map[int32]bool, n)
	for len(out) < n {
		id := m.live[rng.Intn(len(m.live))]
		if !seen[id] {
			seen[id] = true
			out = append(out, int(id))
		}
	}
	return out
}

// groupIDs gives every live row a dense id such that two rows share an id
// exactly when they agree on cols, and returns the number of ids: the
// oracle's COUNT(DISTINCT cols). Codes are folded into a uint64 by mixed
// radix — each column's radix being its largest live code plus one — and
// renumbered densely whenever the next column would overflow, so the keys
// are exact for any column list; nothing is hashed down to fewer bits.
func (m *mirror) groupIDs(cols []int) (ids []uint64, groups int) {
	ids = make([]uint64, len(m.rows))
	space := uint64(1)
	for _, c := range cols {
		radix := uint64(1)
		for id := range m.rows {
			if !m.dead[id] {
				radix = max(radix, uint64(m.rows[id][c])+1)
			}
		}
		if space > math.MaxUint64/radix {
			space = uint64(m.densify(ids))
		}
		for id := range m.rows {
			if !m.dead[id] {
				ids[id] = ids[id]*radix + uint64(m.rows[id][c])
			}
		}
		space *= radix
	}
	return ids, m.densify(ids)
}

// densify renumbers the live rows' keys as 0..n-1 in order of appearance.
func (m *mirror) densify(keys []uint64) int {
	dense := make(map[uint64]uint64, len(m.live)/4)
	for id := range keys {
		if m.dead[id] {
			continue
		}
		d, seen := dense[keys[id]]
		if !seen {
			d = uint64(len(dense))
			dense[keys[id]] = d
		}
		keys[id] = d
	}
	return len(dense)
}

// distinct is COUNT(DISTINCT cols) over the live rows.
func (m *mirror) distinct(cols []int) int {
	_, groups := m.groupIDs(cols)
	return groups
}

// exact reports whether x -> y holds on the live rows: no two of them agree
// on x and differ on y, which is COUNT(DISTINCT x) = COUNT(DISTINCT x, y).
func (m *mirror) exact(x []int, y int) bool {
	ids, groups := m.groupIDs(x)
	image := make([]int32, groups)
	for i := range image {
		image[i] = -1
	}
	for id := range m.rows {
		if m.dead[id] {
			continue
		}
		switch prev := image[ids[id]]; prev {
		case -1:
			image[ids[id]] = m.rows[id][y]
		case m.rows[id][y]:
		default:
			return false
		}
	}
	return true
}

// fdCounts are the three projection sizes Definition 3's measures derive from.
type fdCounts struct {
	x, xy, y int
}

func (c fdCounts) ratio() string { return fmt.Sprintf("%d/%d", c.x, c.xy) }
func (c fdCounts) goodness() int { return c.x - c.y }
func (c fdCounts) exact() bool   { return c.x == c.xy }
func (m *mirror) counts(x []int, y int) fdCounts {
	return fdCounts{
		x:  m.distinct(x),
		xy: m.distinct(append(append([]int(nil), x...), y)),
		y:  m.distinct([]int{y}),
	}
}

// contentHash is an order-independent digest of the live rows' cell text,
// for comparing a recovered instance against the mirror tuple by tuple.
func (m *mirror) contentHash(cd *codec) uint64 {
	var sum uint64
	var buf []byte
	for id, r := range m.rows {
		if m.dead[id] {
			continue
		}
		buf = buf[:0]
		for c := 0; c < numCols; c++ {
			buf = cd.appendCell(buf, c, r[c])
			buf = append(buf, 0)
		}
		sum += hashBytes(buf)
	}
	return sum
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
