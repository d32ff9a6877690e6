package minidb

import (
	"slices"
	"sort"

	"github.com/seqfuzz/lego/internal/sqlast"
)

// rowEval evaluates one site's expression list row by row: the SELECT
// WHERE, projection items, window partition and order keys, sort keys, join
// ON, DML WHERE and ORDER BY, and UPDATE SET. It is prepared once per
// statement with the binder for the site's rows (relEval: scopeRowInto;
// tableEval: tableScope; outputEval: sortRows' output columns over
// scopeRowInto's source scope), which binds every row into one scratch
// scope. Per row a site calls bind, then eval for each expression it needs;
// nil entries of exprs (projection stars) are never evaluated. A site
// defers e.putScratch(ev.x).
type rowEval struct {
	e     *Engine
	exprs []sqlast.Expr
	outer *scope

	// The binder: tableScope(tbl, row) when tbl is non-nil; else the
	// output columns cols when out is set, whose parent binds src as
	// rel.scopeRowInto does (rel nil: no source); else rel.scopeRowInto(row).
	tbl  *Table
	rel  *relation
	out  bool
	cols []string

	// outKeys binds the first outWidth output columns, last duplicate
	// first: a set operation's shorter rows bind only their prefix.
	outKeys  []binding
	outWidth int

	winCalls []*sqlast.FuncCall // the projection's windowed calls

	x *evalScratch
}

// evalScratch holds a site's bound scope and its binder's buffers. Sites
// take one from the engine's free list and put it back when they finish,
// so scratch is allocated once per nesting depth, not once per site.
type evalScratch struct {
	sc, src scope // the bound scope; its parent for sorts and CHECK

	// tableScope's layout: tkeys bind the first len(tcols) columns, named
	// tcols, of table tname; tvals holds the bound row's copy.
	tname string
	tcols []string
	tkeys []binding
	tvals []Value

	cval [1]Value // checkScope's VALUE

	// Per-statement buffers of the site that holds the scratch: xs its
	// expression list (list, orderList), vals, ints and rows its keys, row
	// numbers and rows, set its key set, and ks its sort.
	okeys []binding // outputEval's keys
	xs    []sqlast.Expr
	vals  []Value
	ints  []int
	rows  [][]Value
	set   keySet
	ks    keyedSort
}

//lego:hotpath
func (e *Engine) takeScratch() *evalScratch {
	if n := len(e.scratch); n > 0 {
		x := e.scratch[n-1]
		e.scratch = e.scratch[:n-1]
		return x
	}
	return &evalScratch{}
}

func (e *Engine) putScratch(x *evalScratch) { e.scratch = append(e.scratch, x) }

// relEval prepares xs over rows of rel's shape, scoped by rel.scopeRowInto
// under outer.
func (e *Engine) relEval(xs []sqlast.Expr, rel *relation, outer *scope) rowEval {
	return rowEval{e: e, exprs: xs, outer: outer, rel: rel, x: e.takeScratch()}
}

// outputEval prepares sortRows' keys: the output columns over the source
// row (when srcRel is non-nil) bound as srcRel.scopeRowInto binds it.
func (e *Engine) outputEval(xs []sqlast.Expr, cols []string, srcRel *relation, outer *scope) rowEval {
	return rowEval{e: e, exprs: xs, outer: outer, rel: srcRel, out: true, cols: cols, x: e.takeScratch()}
}

// tableEval prepares xs over t's rows, scoped by tableScope.
func (e *Engine) tableEval(xs []sqlast.Expr, t *Table) rowEval {
	return rowEval{e: e, exprs: xs, tbl: t, x: e.takeScratch()}
}

// bind points the evaluator at the next row (src is the source row of an
// output-column sort, win the projection's window values, else nil) and
// binds it before anything is evaluated, so a short scopeRowInto row
// panics in bind.
//
//lego:hotpath
func (ev *rowEval) bind(row, src, win []Value) {
	ev.interpScope(row, src, win)
}

// eval evaluates expression k against the bound row.
//
//lego:hotpath
func (ev *rowEval) eval(k, depth int) (Value, error) {
	return ev.e.eval(ev.exprs[k], &ev.x.sc, depth)
}

// interpScope binds the row with the site's binder. Organic bug IDs hash
// the panic's frame names, so bind → interpScope → scopeRowInto keeps its
// names.
//
//lego:hotpath
func (ev *rowEval) interpScope(row, src, win []Value) {
	x := ev.x
	if ev.tbl != nil {
		x.tableScope(ev.tbl, row)
		return
	}
	if !ev.out {
		ev.rel.scopeRowInto(row, ev.outer, &x.sc)
		x.sc.winCalls, x.sc.winVals = ev.winCalls, win
		return
	}
	parent := ev.outer
	if ev.rel != nil {
		parent = ev.rel.scopeRowInto(src, ev.outer, &x.src)
	}
	if n := min(len(row), len(ev.cols)); ev.outKeys == nil || n != ev.outWidth {
		x.okeys = slices.Grow(x.okeys[:0], n)[:n]
		ev.outKeys, ev.outWidth = x.okeys, n
		for c := range n {
			ev.outKeys[n-1-c] = binding{ev.cols[c], c}
		}
	}
	x.sc = scope{frame: frame{ev.outKeys, row}, parent: parent}
}

// tableScope binds each of the row's first min(len(row), len(t.Cols))
// columns under its name and "table.name", the last duplicate winning. A
// trigger can reshape or rename t between two rows, so the keys are rebuilt
// when t's name, its column names or the bound width change. The values
// are copied, so they are captured at bind time.
//
//lego:hotpath
func (x *evalScratch) tableScope(t *Table, row []Value) *scope {
	n := min(len(row), len(t.Cols))
	same := x.tname == t.Name && len(x.tcols) == n
	for c := 0; same && c < n; c++ {
		same = x.tcols[c] == t.Cols[c].Name
	}
	if !same {
		x.buildTableKeys(t, n)
	}
	x.tvals = append(x.tvals[:0], row[:n]...)
	x.sc = scope{frame: frame{x.tkeys, x.tvals}}
	return &x.sc
}

// buildTableKeys lays out the keys of t's first n columns, last column
// first and "table.name" before the name, so the last duplicate wins.
func (x *evalScratch) buildTableKeys(t *Table, n int) {
	x.tname, x.tcols, x.tkeys = t.Name, x.tcols[:0], x.tkeys[:0]
	for c := range n {
		x.tcols = append(x.tcols, t.Cols[c].Name)
	}
	for c := n - 1; c >= 0; c-- {
		x.tkeys = append(x.tkeys, binding{t.Name + "." + t.Cols[c].Name, c}, binding{t.Cols[c].Name, c})
	}
}

// valueKey binds the pseudo-column VALUE of a column CHECK.
var valueKey = []binding{{key: "VALUE"}}

// checkScope binds row as tableScope does, under VALUE bound to v, which
// shadows every column.
//
//lego:hotpath
func (x *evalScratch) checkScope(t *Table, row []Value, v Value) *scope {
	x.cval[0] = v
	x.src = scope{frame: frame{valueKey, x.cval[:]}, parent: x.tableScope(t, row)}
	return &x.src
}

// sort sorts idxs stably by keys, laid out as keyedSort's, which it keeps
// as the scratch's vals; the sort sits in the scratch, so handing it to
// sort.Stable allocates nothing.
func (x *evalScratch) sort(idxs []int, keys []Value, order []sqlast.OrderItem) *keyedSort {
	x.vals = keys
	x.ks = keyedSort{idxs: idxs, keys: keys, order: order}
	sort.Stable(&x.ks)
	return &x.ks
}

// groups lists rows group by group, when x.ints holds each row's group (row
// i's is x.ints[i], below n): the groups in number order and each group's
// rows in row order, so group g's rows are order[start[g]:start[g+1]].
// Both lists follow the groups in x.ints.
func (x *evalScratch) groups(n int) (order, start []int) {
	rows := len(x.ints)
	x.ints = slices.Grow(x.ints, rows+n+2)[:2*rows+n+2]
	ids, order, c := x.ints[:rows], x.ints[rows:2*rows], x.ints[2*rows:]
	// c[g+2] counts group g's rows, then c[g+1] is where group g starts;
	// placing each row moves its group's c[g+1] on to where group g+1
	// starts.
	clear(c)
	for _, g := range ids {
		c[g+2]++
	}
	for g := 2; g < len(c); g++ {
		c[g] += c[g-1]
	}
	for i, g := range ids {
		order[c[g+1]] = i
		c[g+1]++
	}
	return order, c[:n+1]
}

// list returns xs in the scratch's expression list.
func (x *evalScratch) list(xs ...sqlast.Expr) []sqlast.Expr {
	x.xs = append(x.xs[:0], xs...)
	return x.xs
}

// orderList returns the expressions of an ORDER BY clause in the scratch's
// expression list.
func (x *evalScratch) orderList(obs []sqlast.OrderItem) []sqlast.Expr {
	x.xs = x.xs[:0]
	for k := range obs {
		x.xs = append(x.xs, obs[k].X)
	}
	return x.xs
}
