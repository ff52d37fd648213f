package main

import (
	"math/rand"
	"strconv"
	"strings"
)

// The benchmark owns its input generator: a TPC-H lineitem look-alike with
// the same schema, domain ratios and FD structure as internal/tpch, but
// generated here so that a change to the program's generator cannot
// silently change the benchmark's inputs.
//
// A row is 16 int32 codes. The STRUCTURE of an instance — which tuples agree
// on which attributes, and so every distinct count, every FD's exactness and
// the whole shape of a repair or discovery search — comes from a fixed
// generator seed per table. The run's --seed chooses how the codes are
// spelled: a bijection per column between code and cell text (codec), and
// every random choice of the op streams. Two seeds therefore give different
// bytes and different traffic over isomorphic instances. That is deliberate:
// with the structure drawn from the seed, borderline events (does any pair
// of the 250,000 rows collide on price within a part?) flip between seeds
// and move a find-first repair by 60%, which is noise about the input, not
// a measurement of the program.

const numCols = 16

type row [numCols]int32

const (
	colOrderkey = iota
	colPartkey
	colSuppkey
	colLinenumber
	colQuantity
	colExtendedprice
	colDiscount
	colTax
	colReturnflag
	colLinestatus
	colShipdate
	colCommitdate
	colReceiptdate
	colShipinstruct
	colShipmode
	colComment
)

var colNames = [numCols]string{
	"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_quantity",
	"l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus",
	"l_shipdate", "l_commitdate", "l_receiptdate", "l_shipinstruct",
	"l_shipmode", "l_comment",
}

var colKinds = [numCols]string{
	"int", "int", "int", "int", "int",
	"float", "float", "float", "string", "string",
	"string", "string", "string", "string",
	"string", "string",
}

var (
	returnFlags   = []string{"A", "N", "R"}
	lineStatuses  = []string{"F", "O"}
	shipInstructs = []string{"COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"}
	shipModes     = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	commentWords  = strings.Fields(`
		about above according accounts across after again against along always
		among around asymptotes attainments believe beneath beside besides
		between beyond blithely boldly bravely busily carefully closely courts
		daringly deposits dependencies dolphins doubt dugouts during enticingly
		escapades even evenly excuses express final finally fluffily foxes
		frays frets furiously gifts grouches hockey ideas idle instructions
		ironic packages pains patterns pending permanent pinto platelets quick
		quickly regular requests`)
)

const (
	numDates       = 7 * 12 * 28
	numCommentWord = 64
	numComments    = numCommentWord * numCommentWord * numCommentWord
	minPriceCents  = 90000
	numPrices      = 9910000
)

// domains holds the key cardinalities of a lineitem table of a given size,
// in TPC-H's proportions (4 lines per order, 30 per part, 600 per supplier).
type domains struct {
	orders, parts, suppliers int
}

func domainsFor(rows int) domains {
	return domains{
		orders:    max(rows/4, 1),
		parts:     max(rows/30, 1),
		suppliers: max(rows/600, 4),
	}
}

// extent is a column's code range: codes lie in [lo, lo+size).
func (d domains) extent(col int) (lo, size int) {
	switch col {
	case colOrderkey:
		return 1, d.orders
	case colPartkey:
		return 1, d.parts
	case colSuppkey:
		return 1, d.suppliers
	case colLinenumber:
		return 1, 7
	case colQuantity:
		return 1, 50
	case colExtendedprice:
		return minPriceCents, numPrices
	case colDiscount:
		return 0, 11
	case colTax:
		return 0, 9
	case colReturnflag:
		return 0, len(returnFlags)
	case colLinestatus:
		return 0, len(lineStatuses)
	case colShipdate, colCommitdate, colReceiptdate:
		return 0, numDates
	case colShipinstruct:
		return 0, len(shipInstructs)
	case colShipmode:
		return 0, len(shipModes)
	default:
		return 0, numComments
	}
}

// draw redraws one cell from its column's domain.
func (d domains) draw(col int, rng *rand.Rand) int32 {
	lo, size := d.extent(col)
	return int32(lo + rng.Intn(size))
}

// suppFor picks one of the four suppliers a part ships from, which is what
// makes l_partkey -> l_suppkey approximate.
func (d domains) suppFor(part int, rng *rand.Rand) int32 {
	return int32(1 + (part+rng.Intn(4)*(d.suppliers/4+1))%d.suppliers)
}

// genTable generates a lineitem instance of the given size: consecutive
// lines of one order share l_orderkey and count l_linenumber up, the way
// DBGEN lays them out.
func genTable(rows int, rng *rand.Rand) (domains, []row) {
	d := domainsFor(rows)
	out := make([]row, rows)
	order, line := 1, 1
	for i := range out {
		if line > 1+rng.Intn(7) || order > d.orders {
			order++
			line = 1
			if order > d.orders {
				order = 1 + rng.Intn(d.orders)
			}
		}
		out[i] = d.fresh(rng)
		out[i][colOrderkey] = int32(order)
		out[i][colLinenumber] = int32(line)
		line++
	}
	return d, out
}

// fresh draws a whole tuple from the domains: a new line of some order.
func (d domains) fresh(rng *rand.Rand) row {
	var r row
	for c := 0; c < numCols; c++ {
		r[c] = d.draw(c, rng)
	}
	r[colSuppkey] = d.suppFor(int(r[colPartkey]), rng)
	return r
}

// mutate copies base with one to three cells redrawn from their domains:
// the shape of an evolving instance, where most of a new tuple agrees with
// tuples already seen.
func (d domains) mutate(base row, rng *rand.Rand) row {
	for n := 1 + rng.Intn(3); n > 0; n-- {
		c := rng.Intn(numCols)
		base[c] = d.draw(c, rng)
	}
	return base
}

// codec spells an instance's codes as cell text. Per column it first sends
// the code through a bijection of the column's extent chosen by the run's
// seed — an affine map x -> lo + (mul·(x-lo) + add) mod size with mul
// coprime to size — and then renders the result. Code and text stay in
// bijection, so the oracle counts codes and the service sees text.
type codec struct {
	domains
	mul, add [numCols]int64
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func newCodec(d domains, seed int64) *codec {
	rng := rand.New(rand.NewSource(seed))
	c := &codec{domains: d}
	for col := 0; col < numCols; col++ {
		_, size := d.extent(col)
		c.mul[col] = 1
		for size > 2 {
			if m := 1 + rng.Int63n(int64(size)-1); gcd(m, int64(size)) == 1 {
				c.mul[col] = m
				break
			}
		}
		c.add[col] = rng.Int63n(int64(size))
	}
	return c
}

// spell is the seed's bijection on a column's extent.
func (c *codec) spell(col int, code int32) int32 {
	lo, size := c.extent(col)
	return int32(int64(lo) + (c.mul[col]*int64(int(code)-lo)+c.add[col])%int64(size))
}

func appendFixed2(buf []byte, cents int32) []byte {
	buf = strconv.AppendInt(buf, int64(cents/100), 10)
	buf = append(buf, '.', byte('0'+cents%100/10), byte('0'+cents%10))
	return buf
}

func append2(buf []byte, v int32) []byte {
	return append(buf, byte('0'+v/10), byte('0'+v%10))
}

// appendCell renders one cell's text.
func (c *codec) appendCell(buf []byte, col int, code int32) []byte {
	code = c.spell(col, code)
	switch col {
	case colOrderkey, colPartkey, colSuppkey, colLinenumber, colQuantity:
		return strconv.AppendInt(buf, int64(code), 10)
	case colExtendedprice, colDiscount, colTax:
		return appendFixed2(buf, code)
	case colReturnflag:
		return append(buf, returnFlags[code]...)
	case colLinestatus:
		return append(buf, lineStatuses[code]...)
	case colShipdate, colCommitdate, colReceiptdate:
		buf = append(buf, '1', '9')
		buf = append2(buf, 92+code/(12*28))
		buf = append(buf, '-')
		buf = append2(buf, 1+code/28%12)
		buf = append(buf, '-')
		return append2(buf, 1+code%28)
	case colShipinstruct:
		return append(buf, shipInstructs[code]...)
	case colShipmode:
		return append(buf, shipModes[code]...)
	default:
		buf = append(buf, commentWords[code%numCommentWord]...)
		buf = append(buf, ' ')
		buf = append(buf, commentWords[code/numCommentWord%numCommentWord]...)
		buf = append(buf, ' ')
		return append(buf, commentWords[code/numCommentWord/numCommentWord]...)
	}
}

// cells renders a row as the text cells the service ingests.
func (c *codec) cells(r row) []string {
	out := make([]string, numCols)
	var buf []byte
	for col := range out {
		buf = c.appendCell(buf[:0], col, r[col])
		out[col] = string(buf)
	}
	return out
}

func (c *codec) cellsOf(rows []row) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = c.cells(r)
	}
	return out
}

// textLen is the byte length of the row's cell text: the "user bytes" an
// acked write carried.
func (c *codec) textLen(r row) int {
	var buf [64]byte
	n := 0
	for col := 0; col < numCols; col++ {
		n += len(c.appendCell(buf[:0], col, r[col]))
	}
	return n
}

// csvHeader carries the kind annotations, so the service does not infer
// "0.05" and "N" into something else.
func csvHeader() string {
	parts := make([]string, numCols)
	for c := range parts {
		parts[c] = colNames[c] + ":" + colKinds[c]
	}
	return strings.Join(parts, ",") + "\n"
}

// toCSV renders rows as the CSV upload of a tenant. No cell needs quoting.
func (c *codec) toCSV(rows []row) string {
	buf := make([]byte, 0, len(rows)*112+256)
	buf = append(buf, csvHeader()...)
	for i := range rows {
		for col := 0; col < numCols; col++ {
			if col > 0 {
				buf = append(buf, ',')
			}
			buf = c.appendCell(buf, col, rows[i][col])
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}

// appendJSONRow renders a row as a JSON array of strings. Cell text is
// plain ASCII without quotes or backslashes, so no escaping is needed.
func (c *codec) appendJSONRow(buf []byte, r row) []byte {
	buf = append(buf, '[')
	for col := 0; col < numCols; col++ {
		if col > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = c.appendCell(buf, col, r[col])
		buf = append(buf, '"')
	}
	return append(buf, ']')
}

// fdDef is one designer FD, by label and Define syntax.
type fdDef struct {
	label, spec string
}

// The six lineitem FDs of the serve workloads. F3 is the near-key, mostly
// exact case; the library repair stage leaves it out.
var lineitemFDs = []fdDef{
	{"F1", "l_partkey -> l_suppkey"},
	{"F2", "l_orderkey -> l_shipdate"},
	{"F3", "l_orderkey, l_linenumber -> l_partkey"},
	{"F4", "l_shipmode -> l_shipinstruct"},
	{"F5", "l_returnflag -> l_linestatus"},
	{"F6", "l_suppkey, l_shipdate -> l_commitdate"},
}

func repairFDs() []fdDef {
	var out []fdDef
	for _, fd := range lineitemFDs {
		if fd.label != "F3" {
			out = append(out, fd)
		}
	}
	return out
}

func colIndex(name string) int {
	for c, n := range colNames {
		if n == name {
			return c
		}
	}
	return -1
}

// parseSpec splits "a, b -> c" into column indices.
func parseSpec(spec string) (x []int, y int) {
	lhs, rhs, _ := strings.Cut(spec, "->")
	for _, name := range strings.Split(lhs, ",") {
		x = append(x, colIndex(strings.TrimSpace(name)))
	}
	return x, colIndex(strings.TrimSpace(rhs))
}
