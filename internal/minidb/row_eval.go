package minidb

import "github.com/seqfuzz/lego/internal/sqlast"

// rowEval evaluates one site's expression list row by row: the SELECT
// WHERE, projection items, window partition and order keys, sort keys, join
// ON, DML WHERE and ORDER BY, and UPDATE SET. It is prepared once per
// statement with the interpreter's scope builder for the site's rows
// (relEval: scopeRowInto; tableEval: tableScope, which binds as rowScope
// does; outputEval: sortRows' output-column map over scopeRowInto's source
// scope) and reuses that builder's scratch across rows.
//
// Per row a site calls bind, then eval for each expression it needs. Nil
// entries of exprs (projection stars, which the site copies itself) are
// never evaluated.
type rowEval struct {
	e     *Engine
	exprs []sqlast.Expr
	outer *scope

	// The scope builder: tableScope(tbl, row) when tbl is non-nil; else
	// sortRows' output-column map over cols when out is set, whose parent
	// binds src as rel.scopeRowInto does (rel nil: no source); else
	// rel.scopeRowInto(row).
	tbl  *Table
	rel  *relation
	out  bool
	cols []string

	sc      *scope       // the bound row's scope
	scratch *evalScratch // made on the first row
}

// evalScratch is what the scope builders reuse across rows. It lives apart
// from rowEval so that the evaluator holds no pointer into itself and stays
// on its site's stack.
type evalScratch struct {
	rsc, osc scope            // scopeRowInto's scope; the output-map scope
	om       map[string]Value // sortRows' output-column map
	omLen    int              // the row length om was made for

	// tableScope's scope, and the keys it binds: tkeys[2c] is column c's
	// name and tkeys[2c+1] its "table.name" key, built for table tname.
	// tn is the number of columns the last row bound.
	tsc   scope
	tname string
	tkeys []string
	tn    int
}

// relEval prepares xs over rows of rel's shape, scoped by rel.scopeRowInto
// under outer.
func (e *Engine) relEval(xs []sqlast.Expr, rel *relation, outer *scope) rowEval {
	return rowEval{e: e, exprs: xs, outer: outer, rel: rel}
}

// outputEval prepares sortRows' keys: the output columns bind forward, as
// sortRows' output-column map does, over the source row (when srcRel is
// non-nil) bound as srcRel.scopeRowInto binds it.
func (e *Engine) outputEval(xs []sqlast.Expr, cols []string, srcRel *relation, outer *scope) rowEval {
	return rowEval{e: e, exprs: xs, outer: outer, rel: srcRel, out: true, cols: cols}
}

// tableEval prepares xs over t's rows, scoped as Engine.rowScope scopes
// them.
func (e *Engine) tableEval(xs []sqlast.Expr, t *Table) rowEval {
	return rowEval{e: e, exprs: xs, tbl: t}
}

// bind points the evaluator at the next row (src is the source row of an
// output-column sort, nil elsewhere) and builds its scope before anything
// is evaluated, as the interpreter's loops always have, so a short
// scopeRowInto row panics in bind.
//
//lego:hotpath
func (ev *rowEval) bind(row, src []Value, winVals map[*sqlast.FuncCall]Value) {
	ev.sc = ev.interpScope(row, src, winVals)
}

// eval evaluates expression k against the bound row.
//
//lego:hotpath
func (ev *rowEval) eval(k, depth int) (Value, error) {
	return ev.e.eval(ev.exprs[k], ev.sc, depth)
}

// interpScope builds the row's scope with the site's scope builder. Organic
// bug IDs hash the panic's frame names, so bind → interpScope →
// scopeRowInto keeps its names.
func (ev *rowEval) interpScope(row, src []Value, winVals map[*sqlast.FuncCall]Value) *scope {
	if ev.scratch == nil {
		ev.scratch = &evalScratch{}
	}
	x := ev.scratch
	if ev.tbl != nil {
		return x.tableScope(ev.tbl, row)
	}
	if !ev.out {
		sc := ev.rel.scopeRowInto(row, ev.outer, &x.rsc)
		sc.winVals = winVals
		return sc
	}
	// One output-column map serves every row of a length: rows of one
	// result set share a length and column set, so overwriting is safe; a
	// length change (set-op arity mismatch) forces a fresh map so no stale
	// key from a longer row survives.
	if x.om == nil || len(row) != x.omLen {
		x.om = make(map[string]Value, len(ev.cols))
		x.omLen = len(row)
	}
	for c, name := range ev.cols {
		if c < len(row) {
			x.om[name] = row[c]
		}
	}
	parent := ev.outer
	if ev.rel != nil {
		parent = ev.rel.scopeRowInto(src, ev.outer, &x.rsc)
	}
	x.osc.row, x.osc.parent = x.om, parent
	return &x.osc
}

// tableScope binds row into the scratch scope exactly as rowScope(t, row)
// binds a new one: each of the row's first min(len(row), len(t.Cols))
// columns under its name and "table.name", forward so that the last
// duplicate wins, with the names read as they are now. A trigger can
// reshape or rename t between two rows, so the keys are rebuilt when t's
// name or column names change, and the map is cleared when they change or
// the number of bound columns does. Otherwise the row overwrites every key
// the map holds, so none can be stale.
//
//lego:hotpath
func (x *evalScratch) tableScope(t *Table, row []Value) *scope {
	if x.tsc.row == nil || x.tname != t.Name || !x.keysMatch(t.Cols) {
		x.buildTableKeys(t)
	}
	n := min(len(row), len(t.Cols))
	if n != x.tn {
		clear(x.tsc.row)
		x.tn = n
	}
	for c := 0; c < n; c++ {
		x.tsc.row[x.tkeys[2*c]] = row[c]
		x.tsc.row[x.tkeys[2*c+1]] = row[c]
	}
	return &x.tsc
}

// keysMatch reports whether tkeys were built for exactly cols' names.
//
//lego:hotpath
func (x *evalScratch) keysMatch(cols []Column) bool {
	if len(x.tkeys) != 2*len(cols) {
		return false
	}
	for c := range cols {
		if x.tkeys[2*c] != cols[c].Name {
			return false
		}
	}
	return true
}

// buildTableKeys rebuilds tkeys for t and marks the map for clearing.
func (x *evalScratch) buildTableKeys(t *Table) {
	x.tkeys = make([]string, 2*len(t.Cols))
	for c := range t.Cols {
		x.tkeys[2*c], x.tkeys[2*c+1] = t.Cols[c].Name, t.Name+"."+t.Cols[c].Name
	}
	x.tname = t.Name
	if x.tsc.row == nil {
		x.tsc.row = make(map[string]Value, 2*len(t.Cols))
	}
	x.tn = -1
}

// orderExprs lists the expressions of an ORDER BY clause.
func orderExprs(obs []sqlast.OrderItem) []sqlast.Expr {
	xs := make([]sqlast.Expr, len(obs))
	for k := range obs {
		xs[k] = obs[k].X
	}
	return xs
}
