package pli

import (
	"encoding/binary"
	"reflect"
	"sort"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// oracleClasses is the tests' reference clustering, read straight off the
// definition: live rows grouped by their projected code tuple on x (NULL
// groups with NULL, as every counting path does). It returns the stripped
// classes (size ≥ 2) with members ascending and classes ordered by first row.
func oracleClasses(r *relation.Relation, x bitset.Set) [][]int32 {
	cols := x.Members()
	groups := map[string][]int32{}
	key := make([]byte, 0, 4*len(cols))
	for row := 0; row < r.NumRows(); row++ {
		if r.IsDeleted(row) {
			continue
		}
		key = key[:0]
		for _, c := range cols {
			key = binary.LittleEndian.AppendUint32(key, uint32(r.ColumnCodes(c)[row]))
		}
		groups[string(key)] = append(groups[string(key)], int32(row))
	}
	out := make([][]int32, 0, len(groups))
	for _, g := range groups {
		if len(g) >= 2 {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// matchesOracle reports whether p induces exactly the oracle's clustering of
// r on x, regardless of class order or storage form.
func matchesOracle(r *relation.Relation, x bitset.Set, p *Partition) bool {
	return p.NumRows() == r.LiveRows() && reflect.DeepEqual(p.sortedClasses(), oracleClasses(r, x))
}
