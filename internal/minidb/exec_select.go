package minidb

import (
	"slices"
	"strconv"
	"strings"

	"github.com/seqfuzz/lego/internal/sqlast"
)

// relation is an intermediate row set with named columns.
type relation struct {
	cols []string // output names
	qual []string // qualifier per column ("" if none)
	rows [][]Value

	// binds caches the frame keys every row of the relation binds under;
	// building them per row dominates scan cost otherwise.
	binds []binding

	// A relation over a base table takes its keys from the table, and a
	// join composes its halves' keys.
	table *Table
	join  [2]*relation
}

// keys returns the relation's frame keys, built once per relation, when a
// row is first bound: each column under "qualifier.column" (unless
// unqualified) and then its bare name, leftmost column first, so the
// leftmost duplicate wins. A table keeps the keys of its last qualifier
// (Table.keysFor), and a join's are its left half's followed by its right
// half's, moved past the left half's columns.
func (r *relation) keys() []binding {
	switch {
	case r.binds != nil:
	case r.table != nil && len(r.qual) > 0:
		r.binds = r.table.keysFor(r.qual[0])
	case r.join[0] != nil:
		a, b := r.join[0].keys(), r.join[1].keys()
		r.binds = make([]binding, len(a)+len(b))
		copy(r.binds, a)
		for i, k := range b {
			r.binds[len(a)+i] = binding{k.key, k.slot + len(r.join[0].cols)}
		}
	default:
		r.binds = make([]binding, 0, 2*len(r.cols))
		for c := range r.cols {
			r.binds = appendKeys(r.binds, r.qual[c], r.cols[c], c)
		}
	}
	return r.binds
}

// appendKeys appends column col's keys at slot: "qual.col" unless qual is
// empty, then col.
func appendKeys(b []binding, qual, col string, slot int) []binding {
	if qual != "" {
		b = append(b, binding{qual + "." + col, slot})
	}
	return append(b, binding{col, slot})
}

// scopeRow returns row i for binding under r's keys. A row shorter than
// r's columns panics here, as scopeRowInto's does.
//
//lego:hotpath
func (r *relation) scopeRow(i int) []Value {
	row := r.rows[i]
	if n := len(r.cols); n > 0 {
		_ = row[n-1]
	}
	return row
}

// scopeRowInto binds row, a row of r's shape, into the caller-owned
// scope under r's keys. The frame reads row in place, so the caller must
// not write it while the scope is in use. A row shorter than r's columns
// panics here, at bind time.
//
//lego:hotpath
func (r *relation) scopeRowInto(row []Value, parent *scope, sc *scope) *scope {
	if n := len(r.cols); n > 0 {
		_ = row[n-1]
	}
	*sc = scope{frame: frame{r.keys(), row}, parent: parent}
	return sc
}

// execSelectTop handles SELECT as a top-level statement.
func (e *Engine) execSelectTop(q *sqlast.SelectStmt) (*Result, error) {
	e.hit(pExecSelect)
	rows, cols, err := e.execSelect(q, nil, 0)
	if err != nil {
		return nil, err
	}
	if q.Into != "" {
		e.hit(pExecSelectInto)
		return e.materializeInto(q.Into, cols, rows)
	}
	if len(rows) == 0 {
		e.hit(pExecEmptyRes)
	} else {
		e.hit(pExecRowsRes)
	}
	return e.result(Result{Cols: cols, Rows: rows}), nil
}

// materializeInto creates a new table from a result set (SELECT INTO).
func (e *Engine) materializeInto(name string, cols []string, rows [][]Value) (*Result, error) {
	if _, exists := e.cat.Tables[name]; exists {
		return nil, e.errValue("relation %q already exists", name)
	}
	t := e.takeTable()
	t.Name, t.Rows, t.Constraints = name, rows, nil
	for i, c := range cols {
		cn := c
		if cn == "" || cn == "*" {
			cn = columnName(i)
		}
		t.Cols = append(t.Cols, Column{Name: cn, TypeName: "TEXT", Kind: KText})
	}
	if len(t.Cols) == 0 {
		t.Cols = nil
	}
	e.cat.Tables[name] = t
	return e.result(Result{Affected: len(rows), Msg: "SELECT INTO"}), nil
}

// columnNames holds the names of unnamed result columns 1 to 16.
var columnNames = func() (names [16]string) {
	for i := range names {
		names[i] = "column" + strconv.Itoa(i+1)
	}
	return names
}()

// columnName names the unnamed result column at position i (from 0):
// "column1" for 0.
func columnName(i int) string {
	if i < len(columnNames) {
		return columnNames[i]
	}
	return "column" + strconv.Itoa(i+1)
}

// maxLowerNames bounds the function names lower remembers.
const maxLowerNames = 256

// lower returns strings.ToLower(name), remembering the answer for up to
// maxLowerNames names: result columns name the same few functions
// statement after statement.
func (e *Engine) lower(name string) string {
	if l, ok := e.lowerNames[name]; ok {
		return l
	}
	l := strings.ToLower(name)
	if len(e.lowerNames) < maxLowerNames {
		if e.lowerNames == nil {
			e.lowerNames = map[string]string{}
		}
		e.lowerNames[name] = l
	}
	return l
}

// execSelect runs a query and returns its rows and column names. outer is
// the enclosing scope for correlated subqueries.
func (e *Engine) execSelect(q *sqlast.SelectStmt, outer *scope, depth int) ([][]Value, []string, error) {
	if depth > e.limits.MaxRewriteDepth+maxEvalDepth {
		return nil, nil, e.errValue("query nesting too deep")
	}

	// FROM
	var rel *relation
	if len(q.From) == 0 {
		e.hit(pPlanEmptyJointree)
		rel = e.replaceEmptyJointree()
	} else {
		r, err := e.fromRelation(q.From[0], outer, depth)
		if err != nil {
			return nil, nil, err
		}
		rel = r
		for _, f := range q.From[1:] {
			r2, err := e.fromRelation(f, outer, depth)
			if err != nil {
				return nil, nil, err
			}
			e.hit(pPlanJoinCross)
			rel = e.crossProduct(rel, r2)
		}
	}

	// WHERE (with a token index-path decision for the planner component)
	if q.Where != nil {
		e.planFilterPath(q, rel)
		ev := e.relEval(nil, rel, outer)
		ev.exprs = ev.x.list(q.Where)
		defer e.putScratch(ev.x)
		// the filtered list lives in the scratch until this query returns
		filtered := ev.x.rows[:0]
		defer func() { ev.x.rows = filtered[:0] }()
		for _, row := range rel.rows {
			if err := e.chargeStep(); err != nil {
				return nil, nil, err
			}
			ev.bind(row, nil, nil)
			v, err := ev.eval(0, depth+1)
			if err != nil {
				return nil, nil, err
			}
			if v.Truthy() {
				filtered = append(filtered, row)
			}
		}
		f := e.rels.take()
		*f = *rel
		f.rows, rel = filtered, f
	}

	// Grouping / aggregation
	grouped := len(q.GroupBy) > 0
	if !grouped {
		for _, it := range q.Items {
			if exprHasAggregate(it.X) {
				grouped = true
				break
			}
		}
		if q.Having != nil {
			grouped = true
		}
	}

	var outRows [][]Value
	var outCols []string

	if grouped {
		e.hit(pPlanGroup)
		rows, cols, err := e.execGrouped(q, rel, outer, depth)
		if err != nil {
			return nil, nil, err
		}
		outRows, outCols = rows, cols
	} else {
		rows, cols, err := e.execProjection(q, rel, outer, depth)
		if err != nil {
			return nil, nil, err
		}
		outRows, outCols = rows, cols
	}

	if q.Distinct {
		e.hit(pPlanDistinct)
		outRows = e.dedupRows(outRows)
	}

	// Set operation
	if q.Op != sqlast.SetNone && q.Right != nil {
		e.hit(pPlanSetOp)
		rRows, _, err := e.execSelect(q.Right, outer, depth+1)
		if err != nil {
			return nil, nil, err
		}
		outRows = e.applySetOp(q.Op, outRows, rRows)
	}

	// ORDER BY over the output rows. When output rows still correspond 1:1
	// to source rows (no grouping, DISTINCT, or set operation), order
	// expressions may also reference source columns that were projected
	// away — `SELECT v2 FROM t1 ORDER BY v1` (the paper's Figure 1 seed).
	if len(q.OrderBy) > 0 {
		e.hit(pPlanOrder)
		srcRel := rel
		if grouped || q.Distinct || q.Op != sqlast.SetNone || len(outRows) != len(rel.rows) {
			srcRel = nil
		}
		if err := e.sortRows(q, outRows, outCols, srcRel, outer, depth); err != nil {
			return nil, nil, err
		}
	}

	// LIMIT / OFFSET
	if q.Offset != nil {
		e.hit(pPlanOffset)
		n, err := e.evalInt(q.Offset, outer, depth)
		if err != nil {
			return nil, nil, err
		}
		if n < 0 {
			n = 0
		}
		if int(n) >= len(outRows) {
			outRows = nil
		} else {
			outRows = outRows[n:]
		}
	}
	if q.Limit != nil {
		e.hit(pPlanLimit)
		n, err := e.evalInt(q.Limit, outer, depth)
		if err != nil {
			return nil, nil, err
		}
		if n < 0 {
			n = 0
		}
		if int(n) < len(outRows) {
			outRows = outRows[:n]
		}
	}
	if len(outRows) > e.limits.MaxResultRows {
		outRows = outRows[:e.limits.MaxResultRows]
	}
	return outRows, outCols, nil
}

// planFilterPath records the planner's access-path decision (index vs scan)
// as coverage. An equality predicate on an indexed column takes the index
// path; ANALYZE'd tables take a statistics branch.
func (e *Engine) planFilterPath(q *sqlast.SelectStmt, rel *relation) {
	bt, ok := baseTableOf(q)
	if !ok {
		e.hit(pPlanScan)
		return
	}
	t, exists := e.cat.Tables[bt]
	if !exists {
		e.hit(pPlanScan)
		return
	}
	if t.analyzed {
		e.hit(pPlanStats)
	} else {
		e.hit(pPlanNoStats)
	}
	if len(t.Rows) == 0 {
		e.hit(pPlanEmptyTable)
	}
	col, isEq := eqPredicateColumn(q.Where)
	if !isEq {
		e.hit(pPlanScan)
		return
	}
	e.ixBuf = e.cat.indexesFor(e.ixBuf[:0], bt)
	for _, ix := range e.ixBuf {
		for _, c := range ix.Cols {
			if c == col {
				if ix.stale {
					e.hit(pPlanIndexStale)
				} else {
					e.hit(pPlanIndex)
				}
				return
			}
		}
	}
	e.hit(pPlanScan)
}

func baseTableOf(q *sqlast.SelectStmt) (string, bool) {
	if len(q.From) != 1 {
		return "", false
	}
	bt, ok := q.From[0].(*sqlast.BaseTable)
	if !ok {
		return "", false
	}
	return bt.Name, true
}

func eqPredicateColumn(w sqlast.Expr) (string, bool) {
	b, ok := w.(*sqlast.Binary)
	if !ok || b.Op != "=" {
		return "", false
	}
	if c, ok := b.L.(*sqlast.ColRef); ok {
		if _, isLit := b.R.(*sqlast.Literal); isLit {
			return c.Name, true
		}
	}
	if c, ok := b.R.(*sqlast.ColRef); ok {
		if _, isLit := b.L.(*sqlast.Literal); isLit {
			return c.Name, true
		}
	}
	return "", false
}

// execProjection projects the items over each row, handling stars and
// window functions.
func (e *Engine) execProjection(q *sqlast.SelectStmt, rel *relation, outer *scope, depth int) ([][]Value, []string, error) {
	cols := e.outputColumns(q.Items, rel)

	// Pre-compute window values if any item needs them: row i's value of
	// winCalls[k] is winVals[i*len(winCalls)+k].
	var winCalls []*sqlast.FuncCall
	var winVals []Value
	hasWin := false
	for _, it := range q.Items {
		if exprHasWindow(it.X) {
			hasWin = true
			break
		}
	}
	if hasWin {
		e.hit(pPlanWindow)
		calls, wv, err := e.computeWindows(q.Items, rel, outer, depth)
		if err != nil {
			return nil, nil, err
		}
		winCalls, winVals = calls, wv
	}

	out := make([][]Value, 0, len(rel.rows))
	if len(rel.rows) > 0 {
		// Star items are copied here, not evaluated, so they get no program.
		ev := e.relEval(nil, rel, outer)
		xs := ev.x.xs[:0]
		for _, it := range q.Items {
			x := it.X
			if _, ok := x.(*sqlast.Star); ok {
				x = nil
			}
			xs = append(xs, x)
		}
		ev.x.xs, ev.exprs = xs, xs
		ev.winCalls = winCalls
		defer e.putScratch(ev.x)
		for i, src := range rel.rows {
			if err := e.chargeStep(); err != nil {
				return nil, nil, err
			}
			w := len(winCalls)
			ev.bind(src, nil, winVals[i*w:i*w+w])
			// A star expands to the columns outputColumns named for it.
			row, j := e.row(len(cols)), 0
			for k, it := range q.Items {
				if st, ok := it.X.(*sqlast.Star); ok {
					for c := range rel.cols {
						if st.Table == "" || rel.qual[c] == st.Table {
							row[j] = src[c]
							j++
						}
					}
					continue
				}
				v, err := ev.eval(k, depth+1)
				if err != nil {
					return nil, nil, err
				}
				row[j] = v
				j++
			}
			out = append(out, row)
			if len(out) > e.limits.MaxResultRows {
				break
			}
		}
	}
	// SELECT with no FROM still yields one row; a star expands to nothing.
	if len(rel.rows) == 0 && len(q.From) == 0 {
		x := e.takeScratch()
		defer e.putScratch(x)
		x.sc = scope{parent: outer}
		sc := &x.sc
		row, j := e.row(len(cols)), 0
		for _, it := range q.Items {
			if _, ok := it.X.(*sqlast.Star); ok {
				continue
			}
			v, err := e.eval(it.X, sc, depth+1)
			if err != nil {
				return nil, nil, err
			}
			row[j] = v
			j++
		}
		out = append(out, row)
	}
	return out, cols, nil
}

// outputColumns derives result column names, into a list from the test
// case's storage (names).
func (e *Engine) outputColumns(items []sqlast.SelectItem, rel *relation) []string {
	n := 0
	for _, it := range items {
		st, ok := it.X.(*sqlast.Star)
		if !ok {
			n++
			continue
		}
		for c := range rel.cols {
			if st.Table == "" || rel.qual[c] == st.Table {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	cols := e.names(n)[:0]
	for i, it := range items {
		if st, ok := it.X.(*sqlast.Star); ok {
			for c := range rel.cols {
				if st.Table != "" && rel.qual[c] != st.Table {
					continue
				}
				cols = append(cols, rel.cols[c])
			}
			continue
		}
		switch {
		case it.Alias != "":
			cols = append(cols, it.Alias)
		default:
			if cr, ok := it.X.(*sqlast.ColRef); ok {
				cols = append(cols, cr.Name)
			} else if fc, ok := it.X.(*sqlast.FuncCall); ok {
				cols = append(cols, e.lower(fc.Name))
			} else {
				cols = append(cols, columnName(i))
			}
		}
	}
	return cols
}

// execGrouped evaluates a grouped/aggregated query. Rows are numbered by
// group in order of first appearance, and each group's rows are then laid
// out together, in row order, in the scratch.
func (e *Engine) execGrouped(q *sqlast.SelectStmt, rel *relation, outer *scope, depth int) ([][]Value, []string, error) {
	cols := e.outputColumns(q.Items, rel)

	x := e.takeScratch()
	defer e.putScratch(x)
	rkeys := rel.keys()
	x.set.reset()
	x.sc = scope{frame: frame{binds: rkeys}, parent: outer}
	sc := &x.sc
	gid, groups := x.ints[:0], 0 // row i's group, and the group count
	for i := range rel.rows {
		sc.vals = rel.scopeRow(i)
		g := 0
		if len(q.GroupBy) > 0 {
			keys := x.vals[:0]
			for _, g := range q.GroupBy {
				// GROUP BY <ordinal> refers to a select item
				gx := g
				if lit, ok := g.(*sqlast.Literal); ok && lit.Kind == sqlast.LitInt &&
					lit.Int >= 1 && int(lit.Int) <= len(q.Items) {
					gx = q.Items[lit.Int-1].X
				}
				v, err := e.eval(gx, sc, depth+1)
				if err != nil {
					return nil, nil, err
				}
				keys = append(keys, v)
			}
			x.vals = keys
			g, _ = x.set.add(keys...)
		}
		gid = append(gid, g)
		groups = max(groups, g+1)
	}
	x.ints = gid
	if groups == 0 && len(q.GroupBy) == 0 {
		// An aggregate over zero rows with no GROUP BY still yields one
		// row that binds no column.
		groups = 1
	}
	order, start := x.groups(groups)
	x.rows = slices.Grow(x.rows[:0], len(order))[:len(order)]
	for k, i := range order {
		x.rows[k] = rel.rows[i]
	}
	var out [][]Value
	for g := range groups {
		group := x.rows[start[g]:start[g+1]]
		if group == nil {
			// aggregates must see an empty group, not the absence of a
			// grouping context
			group = [][]Value{}
		}
		*sc = scope{group: group, groupKeys: rkeys, parent: outer}
		if len(group) > 0 {
			sc.frame = frame{rkeys, group[0]}
		}
		if q.Having != nil {
			e.hit(pPlanHaving)
			hv, err := e.eval(q.Having, sc, depth+1)
			if err != nil {
				return nil, nil, err
			}
			if !hv.Truthy() {
				continue
			}
		}
		row := e.row(len(q.Items))
		for k, it := range q.Items {
			if _, ok := it.X.(*sqlast.Star); ok {
				return nil, nil, e.errValue("* is not valid with GROUP BY")
			}
			v, err := e.eval(it.X, sc, depth+1)
			if err != nil {
				return nil, nil, err
			}
			row[k] = v
		}
		out = append(out, row)
	}
	return out, cols, nil
}

// computeWindows evaluates every windowed function call per input row:
// row i's value of calls[k] is vals[i*len(calls)+k].
func (e *Engine) computeWindows(items []sqlast.SelectItem, rel *relation, outer *scope, depth int) (calls []*sqlast.FuncCall, vals []Value, err error) {
	for _, it := range items {
		sqlast.WalkExpr(it.X, func(n sqlast.Expr) {
			if fc, ok := n.(*sqlast.FuncCall); ok && fc.Over != nil {
				calls = append(calls, fc)
			}
		})
	}
	vals = make([]Value, len(rel.rows)*len(calls))
	for k, fc := range calls {
		if err := e.computeOneWindow(fc, rel, vals[k:], len(calls), outer, depth); err != nil {
			return nil, nil, err
		}
	}
	return calls, vals, nil
}

// computeOneWindow stores row i's value of fc in out[i*stride].
func (e *Engine) computeOneWindow(fc *sqlast.FuncCall, rel *relation, out []Value, stride int, outer *scope, depth int) error {
	// Partition- and order-key expressions run once per row.
	partEv := e.relEval(fc.Over.PartitionBy, rel, outer)
	defer e.putScratch(partEv.x)
	obEv := e.relEval(nil, rel, outer)
	obEv.exprs = obEv.x.orderList(fc.Over.OrderBy)
	defer e.putScratch(obEv.x)

	// Partition rows, numbered in order of first appearance.
	px := partEv.x
	px.set.reset()
	part := px.ints[:0] // row i's partition
	parts := 0
	for _, row := range rel.rows {
		partEv.bind(row, nil, nil)
		p := 0
		if len(fc.Over.PartitionBy) > 0 {
			keys := px.vals[:0]
			for k := range fc.Over.PartitionBy {
				v, err := partEv.eval(k, depth+1)
				if err != nil {
					return err
				}
				keys = append(keys, v)
			}
			px.vals = keys
			p, _ = px.set.add(keys...)
		}
		part = append(part, p)
		parts = max(parts, p+1)
	}
	px.ints = part
	members, start := px.groups(parts)

	rsc := &px.sc // LEAD/LAG's argument scope, reused across partitions
	name := strings.ToUpper(fc.Name)
	w := len(fc.Over.OrderBy)
	for p := range parts {
		idxs := members[start[p]:start[p+1]]
		// Order within the partition.
		var s *keyedSort
		if w > 0 {
			keys := obEv.x.vals[:0]
			for _, i := range idxs {
				obEv.bind(rel.rows[i], nil, nil)
				for k := range fc.Over.OrderBy {
					v, err := obEv.eval(k, depth+1)
					if err != nil {
						return err
					}
					keys = append(keys, v)
				}
			}
			s = obEv.x.sort(idxs, keys, fc.Over.OrderBy)
			switch name {
			case "RANK", "DENSE_RANK":
				rank, dense := 1, 1
				for n, i := range idxs {
					if n > 0 && !s.tied(n-1, n) {
						rank = n + 1
						dense++
					}
					if name == "RANK" {
						out[i*stride] = Int(int64(rank))
					} else {
						out[i*stride] = Int(int64(dense))
					}
				}
				continue
			}
		}

		switch name {
		case "ROW_NUMBER":
			for n, i := range idxs {
				out[i*stride] = Int(int64(n + 1))
			}
		case "RANK", "DENSE_RANK":
			// without ORDER BY every row ties at rank 1
			for _, i := range idxs {
				out[i*stride] = Int(1)
			}
		case "LEAD", "LAG":
			// LAG(x, offset, default) reads x offset rows back (LEAD:
			// ahead); the offset, 1 when absent, and the default, NULL when
			// absent, are evaluated on the current row. A NULL offset gives
			// NULL.
			if len(fc.Args) < 1 {
				return e.errValue("%s expects an argument", name)
			}
			for n, i := range idxs {
				off := int64(1)
				if len(fc.Args) > 1 {
					ov, err := e.eval(fc.Args[1], rel.scopeRowInto(rel.rows[i], outer, rsc), depth+1)
					if err != nil {
						return err
					}
					if ov.IsNull() {
						out[i*stride] = Null()
						continue
					}
					f, ok := ov.numeric()
					if !ok {
						return e.errValue("%s offset must be a number", name)
					}
					off = int64(f)
				}
				src := int64(n) + off
				if name == "LAG" {
					src = int64(n) - off
				}
				row, arg := i, 2 // out of range: the default, on the current row
				if src >= 0 && src < int64(len(idxs)) {
					row, arg = idxs[src], 0
				} else if len(fc.Args) < 3 {
					out[i*stride] = Null()
					continue
				}
				v, err := e.eval(fc.Args[arg], rel.scopeRowInto(rel.rows[row], outer, rsc), depth+1)
				if err != nil {
					return err
				}
				out[i*stride] = v
			}
		case "NTILE":
			n := len(idxs)
			buckets := 4
			if len(fc.Args) == 1 {
				bv, err := e.eval(fc.Args[0], rel.scopeRowInto(rel.scopeRow(idxs[0]), outer, rsc), depth+1)
				if err != nil {
					return err
				}
				if f, ok := bv.numeric(); ok && f >= 1 {
					buckets = int(f)
				}
			}
			for pos, i := range idxs {
				out[i*stride] = Int(int64(pos*buckets/n) + 1)
			}
		default:
			// An aggregate over the window frame. With ORDER BY the frame is
			// SQL's default, RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT
			// ROW: a running value, equal across each group of tied rows
			// (peers). Without ORDER BY every row is a peer, so the frame is
			// the whole partition.
			if !IsAggregate(name) {
				return e.errValue("unsupported window function %s", name)
			}
			plain := *fc
			plain.Over = nil
			group := px.rows[:0]
			gsc := &px.src
			for n := 0; n < len(idxs); {
				m := len(idxs)
				if w > 0 {
					for m = n + 1; m < len(idxs) && s.tied(m-1, m); m++ {
					}
				}
				for _, i := range idxs[n:m] {
					group = append(group, rel.scopeRow(i))
				}
				px.rows = group
				*gsc = scope{group: group, groupKeys: rel.keys(), parent: outer}
				v, err := e.evalAggregate(&plain, gsc, depth+1)
				if err != nil {
					return err
				}
				for _, i := range idxs[n:m] {
					out[i*stride] = v
				}
				n = m
			}
		}
	}
	return nil
}

// sortRows orders the result set in place. Order expressions may name
// output columns, ordinals, or — when srcRel is non-nil (output rows map
// 1:1 to source rows) — source columns that were projected away.
func (e *Engine) sortRows(q *sqlast.SelectStmt, rows [][]Value, cols []string, srcRel *relation, outer *scope, depth int) error {
	if len(rows) == 0 {
		return nil
	}
	ev := e.outputEval(nil, cols, srcRel, outer)
	x := ev.x
	ev.exprs = x.orderList(q.OrderBy)
	defer e.putScratch(x)
	idxs, keys := x.ints[:0], x.vals[:0]
	for i, row := range rows {
		idxs = append(idxs, i)
		var src []Value
		if srcRel != nil {
			src = srcRel.rows[i]
		}
		ev.bind(row, src, nil)
		for k, ob := range q.OrderBy {
			if lit, ok := ob.X.(*sqlast.Literal); ok && lit.Kind == sqlast.LitInt &&
				lit.Int >= 1 && int(lit.Int) <= len(row) {
				keys = append(keys, row[lit.Int-1])
				continue
			}
			v, err := ev.eval(k, depth+1)
			if err != nil {
				// fall back to NULL key: ORDER BY on a source column that
				// was projected away sorts as NULL, a common lenient
				// behaviour
				v = Null()
			}
			keys = append(keys, v)
		}
	}
	x.ints = idxs
	x.sort(idxs, keys, q.OrderBy)
	sorted := x.rows[:0]
	for _, i := range idxs {
		sorted = append(sorted, rows[i])
	}
	x.rows = sorted
	copy(rows, sorted)
	return nil
}

// orderLess reports whether sort keys ka order before kb.
func orderLess(order []sqlast.OrderItem, ka, kb []Value) bool {
	for k, ob := range order {
		if c := Compare(ka[k], kb[k]); c != 0 {
			if ob.Desc {
				return c > 0
			}
			return c < 0
		}
	}
	return false
}

// keyedSort sorts row indexes stably by their ORDER BY keys, which sit
// flat in keys (idxs[n]'s at keys[n*len(order):]) and move with them.
type keyedSort struct {
	idxs  []int
	keys  []Value
	order []sqlast.OrderItem
}

func (s keyedSort) Len() int { return len(s.idxs) }

func (s keyedSort) Less(a, b int) bool {
	w := len(s.order)
	return orderLess(s.order, s.keys[a*w:], s.keys[b*w:])
}

func (s keyedSort) Swap(a, b int) {
	s.idxs[a], s.idxs[b] = s.idxs[b], s.idxs[a]
	for w, k := len(s.order), 0; k < w; k++ {
		s.keys[a*w+k], s.keys[b*w+k] = s.keys[b*w+k], s.keys[a*w+k]
	}
}

// tied reports whether positions a and b have equal keys (rank ties).
func (s keyedSort) tied(a, b int) bool {
	w := len(s.order)
	for k := 0; k < w; k++ {
		if Compare(s.keys[a*w+k], s.keys[b*w+k]) != 0 {
			return false
		}
	}
	return true
}

func (e *Engine) evalInt(ix sqlast.Expr, outer *scope, depth int) (int64, error) {
	x := e.takeScratch()
	defer e.putScratch(x)
	x.sc = scope{parent: outer}
	v, err := e.eval(ix, &x.sc, depth+1)
	if err != nil {
		return 0, err
	}
	f, ok := v.numeric()
	if !ok {
		return 0, e.errValue("expected integer expression")
	}
	return int64(f), nil
}

// dedupRows drops each row whose RowKey an earlier one has, in place; it
// returns nil when no row is left.
//
//lego:hotpath
func (e *Engine) dedupRows(rows [][]Value) [][]Value {
	x := e.takeScratch()
	defer e.putScratch(x)
	x.set.reset()
	n := 0
	for _, r := range rows {
		if _, added := x.set.add(r...); added {
			rows[n] = r
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return rows[:n]
}

// applySetOp combines a set operation's arms; it may reuse left's array.
//
//lego:hotpath
func (e *Engine) applySetOp(op sqlast.SetOp, left, right [][]Value) [][]Value {
	switch op {
	case sqlast.SetUnionAll:
		return append(left, right...)
	case sqlast.SetUnion:
		return e.dedupRows(append(left, right...))
	case sqlast.SetExcept, sqlast.SetIntersect:
		x := e.takeScratch()
		defer e.putScratch(x)
		x.set.reset()
		for _, r := range right {
			x.set.add(r...)
		}
		// EXCEPT keeps the left rows right lacks, INTERSECT those it has
		keep := op == sqlast.SetIntersect
		left = e.dedupRows(left)
		n := 0
		for _, l := range left {
			if x.set.has(l...) == keep {
				left[n] = l
				n++
			}
		}
		if n == 0 {
			return nil
		}
		return left[:n]
	default:
		return left
	}
}

// joinHeader returns the header of a's columns followed by b's, with no
// rows, from the statement's scratch.
func (e *Engine) joinHeader(a, b *relation) *relation {
	n := len(a.cols) + len(b.cols)
	qual, cols := e.quals(n, ""), e.quals(n, "")
	copy(qual[copy(qual, a.qual):], b.qual)
	copy(cols[copy(cols, a.cols):], b.cols)
	out := e.newRelation(cols, qual, nil)
	out.join = [2]*relation{a, b}
	return out
}

func (e *Engine) crossProduct(a, b *relation) *relation {
	maxRows := e.limits.MaxResultRows
	out := e.joinHeader(a, b)
	if n := len(a.rows) * len(b.rows); n > 0 {
		if n > maxRows {
			n = maxRows
		}
		out.rows = make([][]Value, 0, n)
	}
	for _, ra := range a.rows {
		for _, rb := range b.rows {
			out.rows = append(out.rows, e.joinRow(ra, rb))
			if len(out.rows) >= maxRows {
				return out
			}
		}
	}
	return out
}

// fromRelation materializes one FROM-clause source.
func (e *Engine) fromRelation(ref sqlast.TableRef, outer *scope, depth int) (*relation, error) {
	switch r := ref.(type) {
	case *sqlast.BaseTable:
		q := r.Name
		if r.Alias != "" {
			q = r.Alias
		}
		return e.resolveNamedRelation(r.Name, q, outer, depth)

	case *sqlast.SubqueryRef:
		e.hit(pPlanSubquery)
		rows, cols, err := e.execSelect(r.Query, outer, depth+1)
		if err != nil {
			return nil, err
		}
		return e.newRelation(cols, e.quals(len(cols), r.Alias), rows), nil

	case *sqlast.JoinRef:
		left, err := e.fromRelation(r.L, outer, depth)
		if err != nil {
			return nil, err
		}
		right, err := e.fromRelation(r.R, outer, depth)
		if err != nil {
			return nil, err
		}
		return e.joinRelations(r, left, right, outer, depth)

	default:
		return nil, e.errValue("unsupported FROM element %s", typeName(ref))
	}
}

// resolveNamedRelation resolves a name against CTEs, views, then tables,
// into a relation whose columns are qualified by qual. A table's column
// names and keys are its own lists, which change only with its columns.
func (e *Engine) resolveNamedRelation(name, qual string, outer *scope, depth int) (*relation, error) {
	// CTE scope (innermost, then latest, wins)
	for i := len(e.ctes) - 1; i >= 0; i-- {
		if c := e.ctes[i]; c.name == name {
			e.hit(pRewriteCTE)
			return e.newRelation(c.rel.cols, e.quals(len(c.rel.cols), qual), c.rel.rows), nil
		}
	}
	if v, ok := e.cat.Views[name]; ok {
		if v.Materialized {
			e.hit(pPlanMatView)
			cols := v.MatCols
			if len(v.Cols) > 0 {
				cols = v.Cols
			}
			return e.newRelation(cols, e.quals(len(cols), qual), v.MatRows), nil
		}
		e.hit(pPlanView)
		if depth > e.limits.MaxRewriteDepth {
			return nil, e.errValue("view nesting too deep")
		}
		rows, cols, err := e.execSelect(v.Query, outer, depth+1)
		if err != nil {
			return nil, err
		}
		if len(v.Cols) > 0 {
			for i := range cols {
				if i < len(v.Cols) {
					cols[i] = v.Cols[i]
				}
			}
		}
		return e.newRelation(cols, e.quals(len(cols), qual), rows), nil
	}
	t, err := e.lookTable(name)
	if err != nil {
		return nil, err
	}
	if err := e.checkPriv(name, "SELECT"); err != nil {
		return nil, err
	}
	cols := t.colNames()
	rel := e.newRelation(cols, e.quals(len(cols), qual), t.Rows)
	rel.table = t
	return rel, nil
}

func (e *Engine) joinRelations(j *sqlast.JoinRef, left, right *relation, outer *scope, depth int) (*relation, error) {
	if j.Kind == sqlast.JoinCross {
		e.hit(pPlanJoinCross)
		return e.crossProduct(left, right), nil
	}
	out := e.joinHeader(left, right)
	switch j.Kind {
	case sqlast.JoinLeft:
		e.hit(pPlanJoinLeft)
	case sqlast.JoinRight:
		e.hit(pPlanJoinRight)
	default:
		e.hit(pPlanJoinNested)
	}

	// pairBudget bounds nested-loop work so a single pathological join
	// cannot stall fuzzing (paper challenge C3). Real servers spend the
	// time; a fuzzing harness must not.
	pairBudget := 20000
	// The pair row and the evaluator are set up once and rebound per
	// pair: only matched pairs materialize a fresh row into
	// out.rows, so the ON evaluation runs allocation-free across the up to
	// 20000 probed pairs.
	ev := e.relEval(nil, out, outer)
	ev.exprs = ev.x.list(j.On)
	defer e.putScratch(ev.x)
	pairRow := ev.x.vals[:0]
	defer func() { ev.x.vals = pairRow[:0] }()
	matchRow := func(lrow, rrow []Value) (bool, error) {
		pairBudget--
		pairRow = append(append(pairRow[:0], lrow...), rrow...)
		ev.bind(pairRow, nil, nil)
		v, err := ev.eval(0, depth+1)
		if err != nil {
			return false, err
		}
		return v.Truthy(), nil
	}

	switch j.Kind {
	case sqlast.JoinRight:
		for _, rrow := range right.rows {
			matched := false
			for _, lrow := range left.rows {
				ok, err := matchRow(lrow, rrow)
				if err != nil {
					return nil, err
				}
				if ok {
					matched = true
					out.rows = append(out.rows, e.joinRow(lrow, rrow))
				}
				if len(out.rows) >= e.limits.MaxResultRows || pairBudget <= 0 {
					return out, nil
				}
			}
			if !matched {
				row := e.row(len(left.cols) + len(rrow)) // NULLs, then rrow
				copy(row[len(left.cols):], rrow)
				out.rows = append(out.rows, row)
			}
		}
	default:
		for _, lrow := range left.rows {
			matched := false
			for _, rrow := range right.rows {
				ok, err := matchRow(lrow, rrow)
				if err != nil {
					return nil, err
				}
				if ok {
					matched = true
					out.rows = append(out.rows, e.joinRow(lrow, rrow))
				}
				if len(out.rows) >= e.limits.MaxResultRows || pairBudget <= 0 {
					return out, nil
				}
			}
			if !matched && j.Kind == sqlast.JoinLeft {
				row := e.row(len(lrow) + len(right.cols)) // lrow, then NULLs
				copy(row, lrow)
				out.rows = append(out.rows, row)
			}
		}
	}
	return out, nil
}
