package evolvefd_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	evolvefd "github.com/evolvefd/evolvefd"
	"github.com/evolvefd/evolvefd/internal/relation"
	"github.com/evolvefd/evolvefd/internal/wal"
)

// batchCSV is the four-column relation the batch tests mutate; B is typed,
// so text cells can fail to parse.
const batchCSV = "A,B:int,C,D\nx,1,p,u\nx,2,p,v\ny,3,q,u\ny,4,q,v\n"

// newBatchSession opens a durable session over batchCSV with F1: A -> C
// and F2: B -> D defined.
func newBatchSession(t *testing.T, dir string, opts evolvefd.DurabilityOptions) *evolvefd.Session {
	t.Helper()
	rel, err := evolvefd.OpenCSVReader("batch", strings.NewReader(batchCSV), evolvefd.CSVOptions{InferKinds: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := evolvefd.NewDurableSession(rel, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(
		wal.Op{Kind: wal.OpDefine, Label: "F1", Spec: "A -> C"},
		wal.Op{Kind: wal.OpDefine, Label: "F2", Spec: "B -> D"},
	); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAcceptConsequentKeepsSessionRecoverable pins the fix for an Accept
// that added the FD's own consequent to its antecedent: the trivial FD
// [A, C] -> [C] was stored, every later snapshot carried a spec that does
// not parse, and the second reopen found no usable snapshot.
func TestAcceptConsequentKeepsSessionRecoverable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s := newBatchSession(t, dir, noFsync)
	if err := s.Accept("F1", evolvefd.Suggestion{Added: []string{"C"}}); !errors.Is(err, evolvefd.ErrBadFD) {
		t.Fatalf("Accept of the consequent = %v, want ErrBadFD", err)
	}
	s.Compact()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r, err := evolvefd.OpenSession(dir)
		if err != nil {
			t.Fatalf("reopen %d: %v", i+1, err)
		}
		if text, err := r.FDText("F1"); err != nil || text != "F1: [A] -> [C]" {
			t.Fatalf("reopen %d: F1 = %q, %v", i+1, text, err)
		}
		r.Compact()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// decodeBatch turns fuzz bytes into a batch of ops over batchCSV's
// relation. Each op is a kind byte followed by the argument bytes it needs;
// the small alphabets make duplicate and dead row ids, unknown labels, bad
// values and wrong arities common.
func decodeBatch(data []byte) []wal.Op {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	cells := func() []string {
		n := 4
		if next()%8 == 0 {
			n = next() % 6
		}
		out := make([]string, n)
		for i := range out {
			out[i] = []string{"x", "y", "p", "1", "2", "", "bad"}[next()%7]
		}
		return out
	}
	tuple := func() []relation.Value {
		out := []relation.Value{relation.String("x"), relation.Int(1), relation.String("p"), relation.String("u")}
		switch next() % 6 {
		case 0:
			out[0] = relation.String("z")
		case 1:
			out[1] = relation.Int(int64(next() % 4))
		case 2:
			out[3] = relation.Null
		case 3:
			out[1] = relation.String("1") // wrong kind
		case 4:
			out = out[:3] // wrong arity
		}
		return out
	}
	label := func() string { return []string{"F1", "F2", "F3"}[next()%3] }
	specs := []string{"A -> C", "B -> D", "A, B -> D", "C -> A", "A -> Z", "A B"}
	names := [][]string{{"B"}, {"C"}, {"D"}, {"A", "B"}, {"Zap"}, nil}
	var ops []wal.Op
	for len(data) > 0 && len(ops) < 16 {
		switch kind := byte(next()%10) + 1; kind {
		case wal.OpAppend:
			ops = append(ops, wal.Op{Kind: kind, Tuple: tuple()})
		case wal.OpAppendStrings:
			ops = append(ops, wal.Op{Kind: kind, Cells: cells()})
		case wal.OpDelete:
			rows := make([]int, 1+next()%3)
			for i := range rows {
				rows[i] = next()%9 - 1
			}
			ops = append(ops, wal.Op{Kind: kind, Rows: rows})
		case wal.OpUpdate:
			ops = append(ops, wal.Op{Kind: kind, Row: next()%9 - 1, Tuple: tuple()})
		case wal.OpUpdateStrings:
			ops = append(ops, wal.Op{Kind: kind, Row: next()%9 - 1, Cells: cells()})
		case wal.OpDefine:
			ops = append(ops, wal.Op{Kind: kind, Label: label(), Spec: specs[next()%len(specs)]})
		case wal.OpAccept:
			ops = append(ops, wal.Op{Kind: kind, Label: label(), Names: names[next()%len(names)]})
		case wal.OpDrop:
			ops = append(ops, wal.Op{Kind: kind, Label: label()})
		default: // OpCompact, OpCheckpoint
			ops = append(ops, wal.Op{Kind: kind})
		}
	}
	return ops
}

// applyOne runs one op through the public mutator that logs it.
func applyOne(s *evolvefd.Session, op wal.Op) error {
	switch op.Kind {
	case wal.OpAppend:
		return s.Append(op.Tuple...)
	case wal.OpAppendStrings:
		return s.AppendStrings(op.Cells...)
	case wal.OpDelete:
		return s.Delete(op.Rows...)
	case wal.OpUpdate:
		return s.Update(op.Row, op.Tuple...)
	case wal.OpUpdateStrings:
		return s.UpdateStrings(op.Row, op.Cells...)
	case wal.OpDefine:
		return s.Define(op.Label, op.Spec)
	case wal.OpAccept:
		return s.Accept(op.Label, evolvefd.Suggestion{Added: op.Names})
	case wal.OpDrop:
		return s.Drop(op.Label)
	case wal.OpCompact:
		s.Compact()
		return nil
	}
	return s.Apply(op) // OpCheckpoint has no mutator of its own
}

// observed is a session's advisor-visible state plus its log files.
type observed struct {
	check []evolvefd.Violation
	mem   evolvefd.MemStats
	gen   uint64
	fds   []string
	logs  map[string]string
}

func observe(t *testing.T, s *evolvefd.Session) observed {
	t.Helper()
	o := observed{check: s.Check(), mem: s.MemStats(), gen: s.Generation(), logs: map[string]string{}}
	for _, label := range s.Labels() {
		text, err := s.FDText(label)
		if err != nil {
			t.Fatal(err)
		}
		o.fds = append(o.fds, text)
	}
	paths, err := filepath.Glob(filepath.Join(s.DataDir(), "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		o.logs[filepath.Base(p)] = string(data)
	}
	return o
}

// FuzzSessionApply checks a batch against the same ops applied one at a
// time. Session A applies the decoded batch with Apply; session B applies
// each op through its public mutator. A successful batch must leave A
// exactly where B ends — same check, footprint, generation, FD set and
// byte-identical logs. A refused batch must name the op B refused first,
// with the same error, and leave A and its logs untouched. A small log
// bound makes size rotations land between a batch's records.
func FuzzSessionApply(f *testing.F) {
	for kind := byte(0); kind < 10; kind++ {
		f.Add([]byte{kind, 1, 2, 3, 4, 5, 6, 7})
	}
	f.Add([]byte{2, 0, 4, 4, 4, 1, 0, 1, 2, 3})                      // delete row 3, then update it
	f.Add([]byte{1, 1, 0, 3, 2, 0, 2, 0, 1, 8, 4, 3, 1, 1, 4, 2, 0}) // append, delete row 0, compact, update the appended row
	f.Add([]byte{5, 2, 3, 6, 2, 0, 7, 2})                            // define F3, accept B on it, drop it
	f.Add([]byte{6, 0, 1})                                           // accept F1's own consequent
	f.Fuzz(func(t *testing.T, data []byte) {
		opts := evolvefd.DurabilityOptions{NoFsync: true, MaxLogBytes: 400}
		a := newBatchSession(t, filepath.Join(t.TempDir(), "a"), opts)
		b := newBatchSession(t, filepath.Join(t.TempDir(), "b"), opts)
		defer a.Close()
		defer b.Close()
		for _, s := range []*evolvefd.Session{a, b} {
			if err := s.Delete(1); err != nil { // a tombstone the batch's row checks must see
				t.Fatal(err)
			}
		}
		before := observe(t, a)
		observe(t, b) // the same reads on both sides fold the same appends
		ops := decodeBatch(data)
		err := a.Apply(decodeBatch(data)...)
		var refused *wal.OpError
		if err != nil && !errors.As(err, &refused) {
			t.Fatalf("batch error %v is not a *wal.OpError", err)
		}
		for i, op := range ops {
			berr := applyOne(b, op)
			if refused != nil && i == refused.Index {
				if berr == nil || berr.Error() != err.Error() {
					t.Fatalf("batch refused op %d with %v; one at a time it gave %v", i, err, berr)
				}
				if got := observe(t, a); !reflect.DeepEqual(got, before) {
					t.Fatalf("refused batch changed the session:\n got %+v\nwant %+v", got, before)
				}
				return
			}
			if berr != nil {
				t.Fatalf("batch (error %v) admitted op %d, which one at a time fails: %v", err, i, berr)
			}
		}
		if err != nil {
			t.Fatalf("batch refused op %d, which one at a time succeeds", refused.Index)
		}
		if got, want := observe(t, a), observe(t, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch and one-at-a-time sessions diverged:\n batch %+v\nsingle %+v", got, want)
		}
	})
}
