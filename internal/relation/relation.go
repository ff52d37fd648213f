package relation

import (
	"fmt"

	"github.com/evolvefd/evolvefd/internal/bitset"
)

// nullCode is the column code reserved for NULL; it never indexes a
// dictionary.
const nullCode int32 = -1

// dict interns the distinct non-NULL values of one column. Codes are dense,
// starting at 0, in first-seen order.
type dict struct {
	values []Value
	index  map[Value]int32
}

func newDict() *dict {
	return &dict{index: make(map[Value]int32)}
}

func (d *dict) code(v Value) int32 {
	if c, ok := d.index[v]; ok {
		return c
	}
	c := int32(len(d.values))
	d.values = append(d.values, v)
	d.index[v] = c
	return c
}

func (d *dict) lookup(v Value) (int32, bool) {
	c, ok := d.index[v]
	return c, ok
}

// Relation is an instance r of a relation schema R: a bag of tuples stored
// column-wise with per-column dictionary encoding. The paper treats instances
// as sets of tuples; duplicates do not affect any of the distinct-projection
// measures, and Relation preserves physical duplicates like a SQL table does.
//
// Storage is epoch-versioned and segmented: rows are added with Append and
// removed with Delete, which only marks the row dead — within one storage
// epoch the column stores are never reindexed, so PLIs and caches can
// reference code slices without copying and row ids stay stable. Update
// rewrites the cells of one live row in place. Compact squeezes accumulated
// tombstones out segment by segment, shifts later live rows down, and bumps
// the epoch, handing callers a Remap so incremental state can translate its
// row ids instead of rebuilding. Row-count accessors distinguish the
// physical extent (NumRows, the valid row-id range) from the live tuple count
// (LiveRows); all distinct-projection counts are over live tuples only.
type Relation struct {
	name   string
	schema *Schema
	cols   [][]int32
	dicts  []*dict
	nulls  []int // per-column count of NULL cells in live rows
	rows   int
	// dead marks tombstoned rows; nil until the first Delete. Its length, when
	// non-nil, always equals rows.
	dead    []bool
	deleted int
	// mutations counts Delete/Update calls. Counters that maintain
	// incremental state compare it against the value they have applied to
	// detect out-of-band mutations (appends are detected by row growth).
	mutations uint64
	// segRows is the segment capacity; segDead counts tombstones per segment
	// (nil while no row is dead), so Compact can skip clean segments. epoch
	// is bumped by every Compact that moved rows — row ids are only stable
	// within one epoch.
	segRows int
	segDead []int
	epoch   uint64
}

// New creates an empty relation instance with the given name and schema.
func New(name string, schema *Schema) *Relation {
	r := &Relation{
		name:    name,
		schema:  schema,
		cols:    make([][]int32, schema.Len()),
		dicts:   make([]*dict, schema.Len()),
		nulls:   make([]int, schema.Len()),
		segRows: DefaultSegmentRows,
	}
	for i := range r.dicts {
		r.dicts[i] = newDict()
	}
	return r
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// NumRows returns the physical row extent: the number of tuples ever
// appended, tombstoned rows included. Valid row ids are [0, NumRows).
func (r *Relation) NumRows() int { return r.rows }

// LiveRows returns |r|, the number of live (non-tombstoned) tuples — the
// cardinality every projection count and FD measure is defined over.
func (r *Relation) LiveRows() int { return r.rows - r.deleted }

// HasTombstones reports whether any row has been deleted.
func (r *Relation) HasTombstones() bool { return r.deleted > 0 }

// IsDeleted reports whether the row is tombstoned.
func (r *Relation) IsDeleted(row int) bool { return r.dead != nil && r.dead[row] }

// Mutations counts the Delete and Update calls applied to the instance.
// Incremental counters use it to detect mutations that did not go through
// them (appends are detected by NumRows growth instead).
func (r *Relation) Mutations() uint64 { return r.mutations }

// Mutated reports whether the instance was ever deleted from or updated.
// Dictionary-based shortcuts (DictLen as |π_A|) are only valid when false.
func (r *Relation) Mutated() bool { return r.mutations > 0 }

// NumCols returns |R|, the number of attributes.
func (r *Relation) NumCols() int { return r.schema.Len() }

// ValidateTuple checks a tuple against the schema, widening int values in
// float columns in place — the shared typed front end of Append and Update,
// and of a session batch's validation pass.
func (r *Relation) ValidateTuple(tuple []Value) error {
	if len(tuple) != r.schema.Len() {
		return fmt.Errorf("relation %s: tuple arity %d != schema arity %d: %w",
			r.name, len(tuple), r.schema.Len(), ErrArity)
	}
	for i, v := range tuple {
		if v.IsNull() {
			continue
		}
		want := r.schema.Column(i).Kind
		if v.Kind() == want {
			continue
		}
		if want == KindFloat && v.Kind() == KindInt {
			tuple[i] = Float(v.AsFloat())
			continue
		}
		return fmt.Errorf("relation %s: column %s expects %v, got %v (%q): %w",
			r.name, r.schema.Column(i).Name, want, v.Kind(), v.String(), ErrBadValue)
	}
	return nil
}

// Append adds one tuple. The number of values must match the schema arity;
// non-NULL values must match the column kind. Integer values are accepted in
// float columns and widened.
func (r *Relation) Append(tuple ...Value) error {
	if err := r.ValidateTuple(tuple); err != nil {
		return err
	}
	for i, v := range tuple {
		if v.IsNull() {
			r.cols[i] = append(r.cols[i], nullCode)
			r.nulls[i]++
		} else {
			r.cols[i] = append(r.cols[i], r.dicts[i].code(v))
		}
	}
	if r.dead != nil {
		r.dead = append(r.dead, false)
	}
	r.rows++
	return nil
}

// Delete tombstones the given rows. The column stores are not reindexed: row
// ids stay stable, the cells keep their codes (so incremental indexes can
// locate the clusters the rows leave), and the rows simply stop counting
// toward LiveRows and every projection. Deleting an out-of-range or
// already-deleted row fails without applying any of the batch.
func (r *Relation) Delete(rows ...int) error {
	if len(rows) == 0 {
		return nil
	}
	if r.dead == nil {
		r.dead = make([]bool, r.rows)
	}
	for i, row := range rows {
		if err := r.CheckRow("delete", row, r.rows, r.IsDeleted); err != nil {
			r.undelete(rows[:i])
			return err
		}
		r.dead[row] = true
	}
	if need := r.NumSegments(); len(r.segDead) < need {
		r.segDead = append(r.segDead, make([]int, need-len(r.segDead))...)
	}
	for _, row := range rows {
		r.deleted++
		r.segDead[row/r.segRows]++
		for col := range r.cols {
			if r.cols[col][row] == nullCode {
				r.nulls[col]--
			}
		}
	}
	r.mutations++
	return nil
}

// CheckRow refuses a row id that lies outside [0, extent) or that dead
// reports deleted, worded for verb ("delete" or "update"). Delete and Update
// check against the relation itself; a session batch checks against the
// extent and tombstones its earlier ops would leave.
func (r *Relation) CheckRow(verb string, row, extent int, dead func(int) bool) error {
	if row < 0 || row >= extent {
		return fmt.Errorf("relation %s: %s of row %d out of range [0,%d): %w", r.name, verb, row, extent, ErrUnknownRow)
	}
	if dead(row) {
		return fmt.Errorf("relation %s: %s of deleted row %d: %w", r.name, verb, row, ErrUnknownRow)
	}
	return nil
}

// undelete rolls back tombstones set by a partially-validated Delete batch.
func (r *Relation) undelete(rows []int) {
	for _, row := range rows {
		r.dead[row] = false
	}
}

// Update replaces the cells of one live row in place. The tuple is validated
// like Append (arity, kinds, int→float widening); dictionaries grow as
// needed, so DictLen may overcount live distinct values afterwards (see
// Mutated). Updating a deleted or out-of-range row is an error.
func (r *Relation) Update(row int, tuple ...Value) error {
	if err := r.CheckRow("update", row, r.rows, r.IsDeleted); err != nil {
		return err
	}
	if err := r.ValidateTuple(tuple); err != nil {
		return err
	}
	for i, v := range tuple {
		if r.cols[i][row] == nullCode {
			r.nulls[i]--
		}
		if v.IsNull() {
			r.cols[i][row] = nullCode
			r.nulls[i]++
		} else {
			r.cols[i][row] = r.dicts[i].code(v)
		}
	}
	r.mutations++
	return nil
}

// UpdateStrings parses each text cell with the column kind and updates the
// row in place; empty cells and "NULL" become NULL. See Update.
func (r *Relation) UpdateStrings(row int, cells ...string) error {
	tuple, err := r.ParseTuple(cells...)
	if err != nil {
		return err
	}
	return r.Update(row, tuple...)
}

// MustAppend is Append that panics on error; for statically-known data.
func (r *Relation) MustAppend(tuple ...Value) {
	if err := r.Append(tuple...); err != nil {
		panic(err)
	}
}

// AppendStrings parses each text cell with the column kind and appends the
// tuple. Cells equal to the empty string or "NULL" become NULL.
func (r *Relation) AppendStrings(cells ...string) error {
	tuple, err := r.ParseTuple(cells...)
	if err != nil {
		return err
	}
	return r.Append(tuple...)
}

// ParseTuple parses one text cell per schema column into a typed tuple —
// the shared text front end of AppendStrings and UpdateStrings. Cells equal
// to the empty string or "NULL" become NULL.
func (r *Relation) ParseTuple(cells ...string) ([]Value, error) {
	if len(cells) != r.schema.Len() {
		return nil, fmt.Errorf("relation %s: row arity %d != schema arity %d: %w",
			r.name, len(cells), r.schema.Len(), ErrArity)
	}
	tuple := make([]Value, len(cells))
	for i, c := range cells {
		if c == "" || c == "NULL" {
			tuple[i] = Null
			continue
		}
		v, err := ParseValue(c, r.schema.Column(i).Kind)
		if err != nil {
			return nil, err
		}
		tuple[i] = v
	}
	return tuple, nil
}

// Value returns the cell at (row, col).
func (r *Relation) Value(row, col int) Value {
	c := r.cols[col][row]
	if c == nullCode {
		return Null
	}
	return r.dicts[col].values[c]
}

// IsNull reports whether the cell at (row, col) is NULL.
func (r *Relation) IsNull(row, col int) bool {
	return r.cols[col][row] == nullCode
}

// Row materialises one tuple.
func (r *Relation) Row(row int) []Value {
	out := make([]Value, r.schema.Len())
	for c := range out {
		out[c] = r.Value(row, c)
	}
	return out
}

// ColumnCodes exposes the dictionary codes of one column. The returned slice
// is owned by the relation; callers must treat it as read-only. NULL cells
// carry the code -1.
func (r *Relation) ColumnCodes(col int) []int32 { return r.cols[col] }

// NullCode is the sentinel code used for NULL cells in ColumnCodes.
func (r *Relation) NullCode() int32 { return nullCode }

// DictLen returns the number of distinct non-NULL values ever interned in a
// column. On a never-mutated relation this equals |π_A(r)| ignoring NULLs;
// after a Delete or Update it is only an upper bound (a value's last live
// occurrence may be gone while its dictionary slot remains), so counting
// shortcuts must check Mutated first.
func (r *Relation) DictLen(col int) int { return len(r.dicts[col].values) }

// DictValue returns the value interned at the given dictionary code of a
// column.
func (r *Relation) DictValue(col int, code int32) Value {
	return r.dicts[col].values[code]
}

// LookupCode returns the dictionary code of v in col, if v occurs there.
func (r *Relation) LookupCode(col int, v Value) (int32, bool) {
	return r.dicts[col].lookup(v)
}

// NullCount returns the number of NULL cells in a column over live rows.
func (r *Relation) NullCount(col int) int { return r.nulls[col] }

// HasNulls reports whether a column contains at least one NULL in a live
// row. Attributes occurring in FDs must be NULL-free (§6.2.1 of the paper),
// so repair candidate generation consults this; deleting or correcting the
// offending tuples can make a column eligible again.
func (r *Relation) HasNulls(col int) bool { return r.nulls[col] > 0 }

// NullFreeColumns returns the set of column positions without NULLs.
func (r *Relation) NullFreeColumns() bitset.Set {
	var s bitset.Set
	for i := 0; i < r.NumCols(); i++ {
		if !r.HasNulls(i) {
			s.Add(i)
		}
	}
	return s
}

// Project builds a new relation with only the columns at the given positions
// (in the given order), preserving all live rows. Dictionaries are rebuilt so
// the result is independent of the source.
func (r *Relation) Project(name string, idx []int) (*Relation, error) {
	ps, err := r.schema.Project(idx)
	if err != nil {
		return nil, err
	}
	out := New(name, ps)
	tuple := make([]Value, len(idx))
	for row := 0; row < r.rows; row++ {
		if r.IsDeleted(row) {
			continue
		}
		for i, p := range idx {
			tuple[i] = r.Value(row, p)
		}
		if err := out.Append(tuple...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Head builds a new relation containing the first n live rows (or all live
// rows if n >= LiveRows) and all columns. Used by the Veterans-style grid
// experiments that sweep tuple counts.
func (r *Relation) Head(name string, n int) (*Relation, error) {
	out := New(name, r.schema)
	for row := 0; row < r.rows && out.rows < n; row++ {
		if r.IsDeleted(row) {
			continue
		}
		if err := out.Append(r.Row(row)...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Filter builds a new relation containing the live rows for which keep
// returns true.
func (r *Relation) Filter(name string, keep func(row int) bool) (*Relation, error) {
	out := New(name, r.schema)
	for row := 0; row < r.rows; row++ {
		if r.IsDeleted(row) {
			continue
		}
		if keep(row) {
			if err := out.Append(r.Row(row)...); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Clone returns a deep copy of the live rows under a new name. Tombstones are
// compacted away: the clone's row ids are dense, so it also serves as the
// physically-clean reference instance in differential tests.
func (r *Relation) Clone(name string) *Relation {
	out := New(name, r.schema)
	for row := 0; row < r.rows; row++ {
		if r.IsDeleted(row) {
			continue
		}
		out.MustAppend(r.Row(row)...)
	}
	return out
}

// String renders a compact description like "places(9 cols, 11 rows)"; with
// tombstones present the deleted count is shown alongside the live one.
func (r *Relation) String() string {
	if r.deleted > 0 {
		return fmt.Sprintf("%s(%d cols, %d rows +%d deleted)",
			r.name, r.NumCols(), r.LiveRows(), r.deleted)
	}
	return fmt.Sprintf("%s(%d cols, %d rows)", r.name, r.NumCols(), r.NumRows())
}
