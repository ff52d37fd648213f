package relation

import (
	"bytes"
	"strings"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
)

// dmlRelation builds the cities fixture with a NULL area on the last row.
func dmlRelation(t *testing.T) *Relation {
	t.Helper()
	r := New("cities", testSchema(t))
	r.MustAppend(String("milan"), Int(1352000), Float(181.8))
	r.MustAppend(String("bordeaux"), Int(260000), Float(49.4))
	r.MustAppend(String("milan"), Int(1352000), Null)
	return r
}

func TestDeleteTombstones(t *testing.T) {
	r := dmlRelation(t)
	if err := r.Delete(1); err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 3 || r.LiveRows() != 2 {
		t.Fatalf("counts after delete: physical %d live %d", r.NumRows(), r.LiveRows())
	}
	if !r.IsDeleted(1) || r.IsDeleted(0) || r.IsDeleted(2) {
		t.Fatal("tombstone marks wrong rows")
	}
	// Row ids are stable: the surviving cells read exactly as before.
	if r.Value(2, 0) != String("milan") || !r.IsNull(2, 2) {
		t.Fatal("delete shifted surviving rows")
	}
	if !r.Mutated() || !r.HasTombstones() {
		t.Fatal("mutation flags not set")
	}
	// Appending after a delete keeps the tombstone bookkeeping aligned.
	r.MustAppend(String("lyon"), Int(513000), Float(47.9))
	if r.NumRows() != 4 || r.LiveRows() != 3 || r.IsDeleted(3) {
		t.Fatalf("append after delete: physical %d live %d", r.NumRows(), r.LiveRows())
	}
}

func TestDeleteValidationIsAtomic(t *testing.T) {
	r := dmlRelation(t)
	if err := r.Delete(0, 99); err == nil {
		t.Fatal("out-of-range delete must fail")
	}
	if r.HasTombstones() || r.IsDeleted(0) {
		t.Fatal("failed batch left partial tombstones")
	}
	if err := r.Delete(0, 0); err == nil {
		t.Fatal("duplicate row in one batch must fail")
	}
	if r.HasTombstones() {
		t.Fatal("failed duplicate batch left tombstones")
	}
	if err := r.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(2); err == nil {
		t.Fatal("double delete must fail")
	}
	if err := r.Delete(); err != nil {
		t.Fatal("empty batch must be a no-op")
	}
}

func TestDeleteMaintainsLiveNullCounts(t *testing.T) {
	r := dmlRelation(t)
	if r.NullCount(2) != 1 || !r.HasNulls(2) {
		t.Fatalf("fixture: area nulls = %d", r.NullCount(2))
	}
	// Deleting the only NULL-bearing row makes the column NULL-free — which
	// is what lets repair candidate generation consider it again.
	if err := r.Delete(2); err != nil {
		t.Fatal(err)
	}
	if r.NullCount(2) != 0 || r.HasNulls(2) {
		t.Fatalf("after delete: area nulls = %d", r.NullCount(2))
	}
	if !r.NullFreeColumns().Contains(2) {
		t.Fatal("area must be NULL-free after the delete")
	}
}

func TestUpdateInPlace(t *testing.T) {
	r := dmlRelation(t)
	if err := r.Update(2, String("lyon"), Int(513000), Float(47.9)); err != nil {
		t.Fatal(err)
	}
	if got := r.Row(2); got[0] != String("lyon") || got[1] != Int(513000) || got[2] != Float(47.9) {
		t.Fatalf("updated row = %v", got)
	}
	// The NULL the update overwrote is gone from the live counts.
	if r.HasNulls(2) {
		t.Fatal("overwritten NULL still counted")
	}
	// Updating a value to NULL counts it back in.
	if err := r.Update(0, String("milan"), Int(1352000), Null); err != nil {
		t.Fatal(err)
	}
	if r.NullCount(2) != 1 {
		t.Fatalf("area nulls = %d, want 1", r.NullCount(2))
	}
	if r.LiveRows() != 3 {
		t.Fatal("update must not change the live count")
	}
	// Int→float widening applies like in Append.
	if err := r.Update(1, String("bordeaux"), Int(260000), Int(49)); err != nil {
		t.Fatal(err)
	}
	if r.Value(1, 2) != Float(49) {
		t.Fatalf("widened cell = %v", r.Value(1, 2))
	}
}

func TestUpdateValidation(t *testing.T) {
	r := dmlRelation(t)
	if err := r.Update(99, String("x"), Int(0), Null); err == nil {
		t.Fatal("out-of-range update must fail")
	}
	if err := r.Update(0, String("x")); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if err := r.Update(0, String("x"), String("nan"), Null); err == nil {
		t.Fatal("kind mismatch must fail")
	}
	if err := r.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := r.Update(0, String("x"), Int(0), Null); err == nil {
		t.Fatal("update of deleted row must fail")
	}
	if err := r.UpdateStrings(1, "bordeaux", "260001", "49.4"); err != nil {
		t.Fatal(err)
	}
	if r.Value(1, 1) != Int(260001) {
		t.Fatalf("UpdateStrings cell = %v", r.Value(1, 1))
	}
	if err := r.UpdateStrings(1, "a", "b", "c"); err == nil {
		t.Fatal("unparsable cells must fail")
	}
}

func TestDistinctCountSkipsTombstones(t *testing.T) {
	r := dmlRelation(t)
	if got := r.DistinctCount([]int{0}); got != 2 {
		t.Fatalf("distinct cities = %d, want 2", got)
	}
	// Deleting the second milan leaves the count intact; deleting the first
	// as well drops it — and the dictionary shortcut must not resurrect it.
	if err := r.Delete(2); err != nil {
		t.Fatal(err)
	}
	if got := r.DistinctCount([]int{0}); got != 2 {
		t.Fatalf("distinct cities after first delete = %d, want 2", got)
	}
	if err := r.Delete(0); err != nil {
		t.Fatal(err)
	}
	if got := r.DistinctCount([]int{0}); got != 1 {
		t.Fatalf("distinct cities after both deletes = %d, want 1", got)
	}
	if got := r.DistinctCount([]int{0, 1}); got != 1 {
		t.Fatalf("distinct (city,pop) = %d, want 1", got)
	}
	if got := r.DistinctCount(nil); got != 1 {
		t.Fatalf("empty projection = %d, want 1", got)
	}
	if err := r.Delete(1); err != nil {
		t.Fatal(err)
	}
	if got := r.DistinctCount(nil); got != 0 {
		t.Fatalf("empty projection over empty instance = %d, want 0", got)
	}
}

func TestDerivedRelationsSkipTombstones(t *testing.T) {
	r := dmlRelation(t)
	if err := r.Delete(0); err != nil {
		t.Fatal(err)
	}
	clone := r.Clone("compact")
	if clone.NumRows() != 2 || clone.HasTombstones() {
		t.Fatalf("clone = %v", clone)
	}
	if clone.Value(0, 0) != String("bordeaux") {
		t.Fatal("clone must compact live rows in order")
	}
	head, err := r.Head("head", 1)
	if err != nil || head.NumRows() != 1 || head.Value(0, 0) != String("bordeaux") {
		t.Fatalf("head = %v (%v)", head, err)
	}
	filtered, err := r.Filter("f", func(row int) bool { return true })
	if err != nil || filtered.NumRows() != 2 {
		t.Fatalf("filter = %v (%v)", filtered, err)
	}
	proj, err := r.Project("p", []int{0})
	if err != nil || proj.NumRows() != 2 {
		t.Fatalf("project = %v (%v)", proj, err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "181.8") {
		t.Fatalf("deleted row leaked into CSV:\n%s", buf.String())
	}
	if got := strings.Count(strings.TrimSpace(buf.String()), "\n"); got != 2 {
		t.Fatalf("CSV lines = %d, want header + 2 rows", got+1)
	}
}

func TestStringShowsTombstones(t *testing.T) {
	r := dmlRelation(t)
	if got := r.String(); got != "cities(3 cols, 3 rows)" {
		t.Fatalf("String = %q", got)
	}
	if err := r.Delete(1); err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "cities(3 cols, 2 rows +1 deleted)" {
		t.Fatalf("String = %q", got)
	}
}

func TestSatisfiesFDOverLiveRows(t *testing.T) {
	schema, err := SchemaOf("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	r := New("t", schema)
	r.MustAppend(String("x"), String("1"))
	r.MustAppend(String("x"), String("2")) // violates a → b
	x, y := bitset.New(0), bitset.New(1)
	if r.SatisfiesFD(x, y) || r.SatisfiesFDPairwise(x, y) {
		t.Fatal("fixture must violate a → b")
	}
	// Deleting the conflicting tuple restores the FD on the live instance —
	// the data-side repair the relative-trust literature motivates.
	if err := r.Delete(1); err != nil {
		t.Fatal(err)
	}
	if !r.SatisfiesFD(x, y) || !r.SatisfiesFDPairwise(x, y) {
		t.Fatal("a → b must hold after deleting the conflict")
	}
}
