package minidb

import (
	"sort"
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
}

// keys returns the relation's frame keys, built once per relation: each
// column under "qualifier.column" (unless unqualified) and then its bare
// name, leftmost column first, so the leftmost duplicate wins.
func (r *relation) keys() []binding {
	if r.binds == nil {
		r.binds = make([]binding, 0, 2*len(r.cols))
		for c := range r.cols {
			if r.qual[c] != "" {
				r.binds = append(r.binds, binding{r.qual[c] + "." + r.cols[c], c})
			}
			r.binds = append(r.binds, binding{r.cols[c], c})
		}
	}
	return r.binds
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
		return nil, errValue("relation %q already exists", name)
	}
	t := e.takeTable()
	t.Name, t.Rows, t.Constraints = name, rows, nil
	for i, c := range cols {
		cn := c
		if cn == "" || cn == "*" {
			cn = "column" + itoaSmall(i+1)
		}
		t.Cols = append(t.Cols, Column{Name: cn, TypeName: "TEXT", Kind: KText})
	}
	if len(t.Cols) == 0 {
		t.Cols = nil
	}
	e.cat.Tables[name] = t
	return e.result(Result{Affected: len(rows), Msg: "SELECT INTO"}), nil
}

func itoaSmall(n int) string { return strconv.Itoa(n) }

// execSelect runs a query and returns its rows and column names. outer is
// the enclosing scope for correlated subqueries.
func (e *Engine) execSelect(q *sqlast.SelectStmt, outer *scope, depth int) ([][]Value, []string, error) {
	if depth > e.limits.MaxRewriteDepth+maxEvalDepth {
		return nil, nil, errValue("query nesting too deep")
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
		var filtered [][]Value
		ev := e.relEval([]sqlast.Expr{q.Where}, rel, outer)
		defer e.putScratch(ev.x)
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
		binds := rel.binds
		rel = e.newRelation(rel.cols, rel.qual, filtered)
		rel.binds = binds
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
		outRows = dedupRows(outRows)
	}

	// Set operation
	if q.Op != sqlast.SetNone && q.Right != nil {
		e.hit(pPlanSetOp)
		rRows, _, err := e.execSelect(q.Right, outer, depth+1)
		if err != nil {
			return nil, nil, err
		}
		outRows = applySetOp(q.Op, outRows, rRows)
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
	for _, ix := range e.cat.indexesFor(bt) {
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
		xs := make([]sqlast.Expr, len(q.Items))
		for k, it := range q.Items {
			if _, ok := it.X.(*sqlast.Star); !ok {
				xs[k] = it.X
			}
		}
		ev := e.relEval(xs, rel, outer)
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
		sc := &scope{parent: outer}
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

// outputColumns derives result column names.
func (e *Engine) outputColumns(items []sqlast.SelectItem, rel *relation) []string {
	var cols []string
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
				cols = append(cols, strings.ToLower(fc.Name))
			} else {
				cols = append(cols, "column"+itoaSmall(i+1))
			}
		}
	}
	return cols
}

// execGrouped evaluates a grouped/aggregated query.
func (e *Engine) execGrouped(q *sqlast.SelectStmt, rel *relation, outer *scope, depth int) ([][]Value, []string, error) {
	cols := e.outputColumns(q.Items, rel)

	type groupBucket struct {
		firstRow []Value
		rows     [][]Value
	}
	var order []string
	buckets := map[string]*groupBucket{}

	rkeys := rel.keys()
	sc := &scope{frame: frame{binds: rkeys}, parent: outer}
	for i := range rel.rows {
		sc.vals = rel.scopeRow(i)
		key := ""
		if len(q.GroupBy) > 0 {
			var keys []Value
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
			key = RowKey(keys)
		}
		b, ok := buckets[key]
		if !ok {
			b = &groupBucket{firstRow: sc.vals}
			buckets[key] = b
			order = append(order, key)
		}
		b.rows = append(b.rows, sc.vals)
	}
	// An aggregate over zero rows with no GROUP BY still yields one row
	// that binds no column; rows must be non-nil so aggregates see an
	// empty group rather than the absence of a grouping context.
	if len(buckets) == 0 && len(q.GroupBy) == 0 {
		buckets[""] = &groupBucket{rows: [][]Value{}}
		order = append(order, "")
	}

	var out [][]Value
	for _, key := range order {
		b := buckets[key]
		gsc := &scope{group: b.rows, groupKeys: rkeys, parent: outer}
		if len(b.rows) > 0 {
			gsc.frame = frame{rkeys, b.firstRow}
		}
		if q.Having != nil {
			e.hit(pPlanHaving)
			hv, err := e.eval(q.Having, gsc, depth+1)
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
				return nil, nil, errValue("* is not valid with GROUP BY")
			}
			v, err := e.eval(it.X, gsc, depth+1)
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
	obEv := e.relEval(orderExprs(fc.Over.OrderBy), rel, outer)
	defer e.putScratch(obEv.x)

	// Partition rows.
	parts := map[string][]int{}
	var partOrder []string
	for i, row := range rel.rows {
		partEv.bind(row, nil, nil)
		key := ""
		if len(fc.Over.PartitionBy) > 0 {
			var keys []Value
			for k := range fc.Over.PartitionBy {
				v, err := partEv.eval(k, depth+1)
				if err != nil {
					return err
				}
				keys = append(keys, v)
			}
			key = RowKey(keys)
		}
		if _, ok := parts[key]; !ok {
			partOrder = append(partOrder, key)
		}
		parts[key] = append(parts[key], i)
	}

	var rsc scope // LEAD/LAG's argument scope, reused across partitions
	name := strings.ToUpper(fc.Name)
	w := len(fc.Over.OrderBy)
	for _, key := range partOrder {
		idxs := parts[key]
		// Order within the partition.
		var s keyedSort
		if w > 0 {
			s = keyedSort{idxs: idxs, keys: make([]Value, 0, len(idxs)*w), order: fc.Over.OrderBy}
			for _, i := range idxs {
				obEv.bind(rel.rows[i], nil, nil)
				for k := range fc.Over.OrderBy {
					v, err := obEv.eval(k, depth+1)
					if err != nil {
						return err
					}
					s.keys = append(s.keys, v)
				}
			}
			sort.Stable(s)
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
				return errValue("%s expects an argument", name)
			}
			for n, i := range idxs {
				off := int64(1)
				if len(fc.Args) > 1 {
					ov, err := e.eval(fc.Args[1], rel.scopeRowInto(rel.rows[i], outer, &rsc), depth+1)
					if err != nil {
						return err
					}
					if ov.IsNull() {
						out[i*stride] = Null()
						continue
					}
					f, ok := ov.numeric()
					if !ok {
						return errValue("%s offset must be a number", name)
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
				v, err := e.eval(fc.Args[arg], rel.scopeRowInto(rel.rows[row], outer, &rsc), depth+1)
				if err != nil {
					return err
				}
				out[i*stride] = v
			}
		case "NTILE":
			n := len(idxs)
			buckets := 4
			if len(fc.Args) == 1 {
				sc := &scope{frame: frame{rel.keys(), rel.scopeRow(idxs[0])}, parent: outer}
				bv, err := e.eval(fc.Args[0], sc, depth+1)
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
				return errValue("unsupported window function %s", name)
			}
			plain := *fc
			plain.Over = nil
			group := make([][]Value, 0, len(idxs))
			for n := 0; n < len(idxs); {
				m := len(idxs)
				if w > 0 {
					for m = n + 1; m < len(idxs) && s.tied(m-1, m); m++ {
					}
				}
				for _, i := range idxs[n:m] {
					group = append(group, rel.scopeRow(i))
				}
				gsc := &scope{group: group, groupKeys: rel.keys(), parent: outer}
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
	s := keyedSort{idxs: make([]int, len(rows)), keys: make([]Value, 0, len(rows)*len(q.OrderBy)), order: q.OrderBy}
	if len(rows) > 0 {
		ev := e.outputEval(orderExprs(q.OrderBy), cols, srcRel, outer)
		defer e.putScratch(ev.x)
		for i, row := range rows {
			s.idxs[i] = i
			var src []Value
			if srcRel != nil {
				src = srcRel.rows[i]
			}
			ev.bind(row, src, nil)
			for k, ob := range q.OrderBy {
				if lit, ok := ob.X.(*sqlast.Literal); ok && lit.Kind == sqlast.LitInt &&
					lit.Int >= 1 && int(lit.Int) <= len(row) {
					s.keys = append(s.keys, row[lit.Int-1])
					continue
				}
				v, err := ev.eval(k, depth+1)
				if err != nil {
					// fall back to NULL key: ORDER BY on a source column that
					// was projected away sorts as NULL, a common lenient
					// behaviour
					v = Null()
				}
				s.keys = append(s.keys, v)
			}
		}
	}
	sort.Stable(s)
	sorted := make([][]Value, len(rows))
	for n, i := range s.idxs {
		sorted[n] = rows[i]
	}
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

func (e *Engine) evalInt(x sqlast.Expr, outer *scope, depth int) (int64, error) {
	v, err := e.eval(x, &scope{parent: outer}, depth+1)
	if err != nil {
		return 0, err
	}
	f, ok := v.numeric()
	if !ok {
		return 0, errValue("expected integer expression")
	}
	return int64(f), nil
}

func dedupRows(rows [][]Value) [][]Value {
	seen := map[string]bool{}
	var out [][]Value
	for _, r := range rows {
		k := RowKey(r)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

func applySetOp(op sqlast.SetOp, left, right [][]Value) [][]Value {
	switch op {
	case sqlast.SetUnionAll:
		return append(left, right...)
	case sqlast.SetUnion:
		return dedupRows(append(left, right...))
	case sqlast.SetExcept:
		rset := map[string]bool{}
		for _, r := range right {
			rset[RowKey(r)] = true
		}
		var out [][]Value
		for _, l := range dedupRows(left) {
			if !rset[RowKey(l)] {
				out = append(out, l)
			}
		}
		return out
	case sqlast.SetIntersect:
		rset := map[string]bool{}
		for _, r := range right {
			rset[RowKey(r)] = true
		}
		var out [][]Value
		for _, l := range dedupRows(left) {
			if rset[RowKey(l)] {
				out = append(out, l)
			}
		}
		return out
	default:
		return left
	}
}

// joinHeader returns the header of a's columns followed by b's, with no
// rows.
func (e *Engine) joinHeader(a, b *relation) *relation {
	qual := e.quals(len(a.qual)+len(b.qual), "")
	copy(qual[copy(qual, a.qual):], b.qual)
	return e.newRelation(append(append([]string{}, a.cols...), b.cols...), qual, nil)
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
		rel, err := e.resolveNamedRelation(r.Name, outer, depth)
		if err != nil {
			return nil, err
		}
		q := r.Name
		if r.Alias != "" {
			q = r.Alias
		}
		return e.newRelation(rel.cols, e.quals(len(rel.cols), q), rel.rows), nil

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
		return nil, errValue("unsupported FROM element %T", ref)
	}
}

// resolveNamedRelation resolves a name against CTEs, views, then tables.
func (e *Engine) resolveNamedRelation(name string, outer *scope, depth int) (*relation, error) {
	// CTE scope (innermost wins)
	for i := len(e.cteFrames) - 1; i >= 0; i-- {
		if rel, ok := e.cteFrames[i][name]; ok {
			e.hit(pRewriteCTE)
			return rel, nil
		}
	}
	if v, ok := e.cat.Views[name]; ok {
		if v.Materialized {
			e.hit(pPlanMatView)
			cols := v.MatCols
			if len(v.Cols) > 0 {
				cols = v.Cols
			}
			return e.newRelation(cols, e.quals(len(cols), ""), v.MatRows), nil
		}
		e.hit(pPlanView)
		if depth > e.limits.MaxRewriteDepth {
			return nil, errValue("view nesting too deep")
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
		return e.newRelation(cols, e.quals(len(cols), ""), rows), nil
	}
	t, err := e.lookTable(name)
	if err != nil {
		return nil, err
	}
	if err := e.checkPriv(name, "SELECT"); err != nil {
		return nil, err
	}
	cols := make([]string, len(t.Cols))
	for i := range t.Cols {
		cols[i] = t.Cols[i].Name
	}
	return e.newRelation(cols, e.quals(len(cols), ""), t.Rows), nil
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
	pairRow := make([]Value, 0, len(out.cols))
	ev := e.relEval([]sqlast.Expr{j.On}, out, outer)
	defer e.putScratch(ev.x)
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
