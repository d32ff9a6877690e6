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

	// qkeys caches the "qualifier.column" binding keys; rebuilding them per
	// row dominates scan cost otherwise.
	qkeys []string
}

// keyCache returns the qualified column keys, built once per relation.
//
//lego:hotpath
func (r *relation) keyCache() []string {
	if r.qkeys == nil {
		r.qkeys = make([]string, len(r.cols))
		for c := range r.cols {
			if r.qual[c] != "" {
				r.qkeys[c] = r.qual[c] + "." + r.cols[c] //lego:allow hotalloc — builds the memoized r.qkeys exactly once per relation
			}
		}
	}
	return r.qkeys
}

func (r *relation) scopeRow(i int, parent *scope) *scope {
	qk := r.keyCache()
	m := make(map[string]Value, 2*len(r.cols))
	for c := len(r.cols) - 1; c >= 0; c-- {
		// iterate right-to-left so the leftmost duplicate wins
		m[r.cols[c]] = r.rows[i][c]
		if qk[c] != "" {
			m[qk[c]] = r.rows[i][c]
		}
	}
	return &scope{row: m, parent: parent}
}

// scopeRowInto binds row, a row of r's shape, into the caller-owned scratch
// scope, reusing its map across calls so a per-row loop allocates one map
// per query instead of one per row. Every row of a relation binds exactly
// the same key set, so overwriting without clearing is correct; a row
// shorter than r's columns panics on its first missing slot. Only loops that do NOT retain
// the scope (or its row map) past the enclosing eval call may use this;
// retaining sites (group buckets, window partitions' group rows) must stay
// on scopeRow.
//
//lego:hotpath
func (r *relation) scopeRowInto(row []Value, parent *scope, sc *scope) *scope {
	qk := r.keyCache()
	if sc.row == nil {
		sc.row = make(map[string]Value, 2*len(r.cols))
	}
	for c := len(r.cols) - 1; c >= 0; c-- {
		// iterate right-to-left so the leftmost duplicate wins
		sc.row[r.cols[c]] = row[c]
		if qk[c] != "" {
			sc.row[qk[c]] = row[c]
		}
	}
	sc.parent = parent
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
	return &Result{Cols: cols, Rows: rows}, nil
}

// materializeInto creates a new table from a result set (SELECT INTO).
func (e *Engine) materializeInto(name string, cols []string, rows [][]Value) (*Result, error) {
	if _, exists := e.cat.Tables[name]; exists {
		return nil, errValue("relation %q already exists", name)
	}
	t := &Table{Name: name}
	for i, c := range cols {
		cn := c
		if cn == "" || cn == "*" {
			cn = "column" + itoaSmall(i+1)
		}
		t.Cols = append(t.Cols, Column{Name: cn, TypeName: "TEXT"})
	}
	t.Rows = rows
	e.cat.Tables[name] = t
	return &Result{Affected: len(rows), Msg: "SELECT INTO"}, nil
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
			rel = crossProduct(rel, r2, e.limits.MaxResultRows)
		}
	}

	// WHERE (with a token index-path decision for the planner component)
	if q.Where != nil {
		e.planFilterPath(q, rel)
		var filtered [][]Value
		ev := e.relEval([]sqlast.Expr{q.Where}, rel, outer)
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
		rel = &relation{cols: rel.cols, qual: rel.qual, rows: filtered}
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

	// Pre-compute window values if any item needs them.
	var winVals []map[*sqlast.FuncCall]Value
	hasWin := false
	for _, it := range q.Items {
		if exprHasWindow(it.X) {
			hasWin = true
			break
		}
	}
	if hasWin {
		e.hit(pPlanWindow)
		wv, err := e.computeWindows(q.Items, rel, outer, depth)
		if err != nil {
			return nil, nil, err
		}
		winVals = wv
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
		for i, src := range rel.rows {
			if err := e.chargeStep(); err != nil {
				return nil, nil, err
			}
			var win map[*sqlast.FuncCall]Value
			if winVals != nil {
				win = winVals[i]
			}
			ev.bind(src, nil, win)
			row := make([]Value, 0, len(q.Items))
			for k, it := range q.Items {
				if st, ok := it.X.(*sqlast.Star); ok {
					for c := range rel.cols {
						if st.Table == "" || rel.qual[c] == st.Table {
							row = append(row, src[c])
						}
					}
					continue
				}
				v, err := ev.eval(k, depth+1)
				if err != nil {
					return nil, nil, err
				}
				row = append(row, v)
			}
			out = append(out, row)
			if len(out) > e.limits.MaxResultRows {
				break
			}
		}
	}
	// SELECT with no FROM still yields one row; a star expands to nothing.
	if len(rel.rows) == 0 && len(q.From) == 0 {
		sc := &scope{row: map[string]Value{}, parent: outer}
		row := make([]Value, 0, len(q.Items))
		for _, it := range q.Items {
			if _, ok := it.X.(*sqlast.Star); ok {
				continue
			}
			v, err := e.eval(it.X, sc, depth+1)
			if err != nil {
				return nil, nil, err
			}
			row = append(row, v)
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
		firstRow map[string]Value
		rows     []map[string]Value
	}
	var order []string
	buckets := map[string]*groupBucket{}

	for i := range rel.rows {
		sc := rel.scopeRow(i, outer)
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
			b = &groupBucket{firstRow: sc.row}
			buckets[key] = b
			order = append(order, key)
		}
		b.rows = append(b.rows, sc.row)
	}
	// An aggregate over zero rows with no GROUP BY still yields one row;
	// rows must be non-nil so aggregates see an empty group rather than
	// the absence of a grouping context.
	if len(buckets) == 0 && len(q.GroupBy) == 0 {
		buckets[""] = &groupBucket{firstRow: map[string]Value{}, rows: []map[string]Value{}}
		order = append(order, "")
	}

	var out [][]Value
	for _, key := range order {
		b := buckets[key]
		gsc := &scope{row: b.firstRow, group: b.rows, parent: outer}
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
		var row []Value
		for _, it := range q.Items {
			if _, ok := it.X.(*sqlast.Star); ok {
				return nil, nil, errValue("* is not valid with GROUP BY")
			}
			v, err := e.eval(it.X, gsc, depth+1)
			if err != nil {
				return nil, nil, err
			}
			row = append(row, v)
		}
		out = append(out, row)
	}
	return out, cols, nil
}

// computeWindows evaluates every windowed function call per input row.
func (e *Engine) computeWindows(items []sqlast.SelectItem, rel *relation, outer *scope, depth int) ([]map[*sqlast.FuncCall]Value, error) {
	out := make([]map[*sqlast.FuncCall]Value, len(rel.rows))
	for i := range out {
		out[i] = map[*sqlast.FuncCall]Value{}
	}
	var calls []*sqlast.FuncCall
	for _, it := range items {
		sqlast.WalkExpr(it.X, func(n sqlast.Expr) {
			if fc, ok := n.(*sqlast.FuncCall); ok && fc.Over != nil {
				calls = append(calls, fc)
			}
		})
	}
	for _, fc := range calls {
		if err := e.computeOneWindow(fc, rel, out, outer, depth); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (e *Engine) computeOneWindow(fc *sqlast.FuncCall, rel *relation, out []map[*sqlast.FuncCall]Value, outer *scope, depth int) error {
	// Partition- and order-key expressions run once per row (order keys
	// twice: the post-sort recompute reuses the same evaluator).
	partEv := e.relEval(fc.Over.PartitionBy, rel, outer)
	obEv := e.relEval(orderExprs(fc.Over.OrderBy), rel, outer)

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

	// orderKeysFor appends row i's order keys to dst.
	orderKeysFor := func(dst []Value, i int) ([]Value, error) {
		obEv.bind(rel.rows[i], nil, nil)
		for k := range fc.Over.OrderBy {
			v, err := obEv.eval(k, depth+1)
			if err != nil {
				return dst, err
			}
			dst = append(dst, v)
		}
		return dst, nil
	}
	var rsc scope // LEAD/LAG's argument scope, reused across partitions
	name := strings.ToUpper(fc.Name)
	for _, key := range partOrder {
		idxs := parts[key]
		// Order within the partition.
		if len(fc.Over.OrderBy) > 0 {
			keys := make([][]Value, len(idxs))
			for n, i := range idxs {
				ks, err := orderKeysFor(keys[n], i)
				if err != nil {
					return err
				}
				keys[n] = ks
			}
			sort.SliceStable(idxs, func(a, b int) bool {
				for k, ob := range fc.Over.OrderBy {
					c := Compare(keys[a][k], keys[b][k])
					if c != 0 {
						if ob.Desc {
							return c > 0
						}
						return c < 0
					}
				}
				return false
			})
			// keys moved with idxs only when we re-fetch; recompute keys
			// after the sort for rank ties.
			for n, i := range idxs {
				ks, err := orderKeysFor(keys[n][:0], i)
				if err != nil {
					return err
				}
				keys[n] = ks
			}
			switch name {
			case "RANK", "DENSE_RANK":
				rank, dense := 1, 1
				for n, i := range idxs {
					if n > 0 {
						same := true
						for k := range keys[n] {
							if Compare(keys[n][k], keys[n-1][k]) != 0 {
								same = false
								break
							}
						}
						if !same {
							rank = n + 1
							dense++
						}
					}
					if name == "RANK" {
						out[i][fc] = Int(int64(rank))
					} else {
						out[i][fc] = Int(int64(dense))
					}
				}
				continue
			}
		}

		switch name {
		case "ROW_NUMBER":
			for n, i := range idxs {
				out[i][fc] = Int(int64(n + 1))
			}
		case "RANK", "DENSE_RANK":
			// without ORDER BY every row ties at rank 1
			for _, i := range idxs {
				out[i][fc] = Int(1)
			}
		case "LEAD", "LAG":
			if len(fc.Args) < 1 {
				return errValue("%s expects an argument", name)
			}
			off := 1
			for n, i := range idxs {
				src := n + off
				if name == "LAG" {
					src = n - off
				}
				if src < 0 || src >= len(idxs) {
					out[i][fc] = Null()
					continue
				}
				sc := rel.scopeRowInto(rel.rows[idxs[src]], outer, &rsc)
				v, err := e.eval(fc.Args[0], sc, depth+1)
				if err != nil {
					return err
				}
				out[i][fc] = v
			}
		case "NTILE":
			n := len(idxs)
			buckets := 4
			if len(fc.Args) == 1 {
				sc := rel.scopeRow(idxs[0], outer)
				bv, err := e.eval(fc.Args[0], sc, depth+1)
				if err != nil {
					return err
				}
				if f, ok := bv.numeric(); ok && f >= 1 {
					buckets = int(f)
				}
			}
			for pos, i := range idxs {
				out[i][fc] = Int(int64(pos*buckets/n) + 1)
			}
		default:
			// aggregate OVER partition: whole-partition value
			if !IsAggregate(name) {
				return errValue("unsupported window function %s", name)
			}
			var group []map[string]Value
			for _, i := range idxs {
				group = append(group, rel.scopeRow(i, outer).row)
			}
			gsc := &scope{row: map[string]Value{}, group: group, parent: outer}
			plain := *fc
			plain.Over = nil
			v, err := e.evalAggregate(&plain, gsc, depth+1)
			if err != nil {
				return err
			}
			for _, i := range idxs {
				out[i][fc] = v
			}
		}
	}
	return nil
}

// sortRows orders the result set in place. Order expressions may name
// output columns, ordinals, or — when srcRel is non-nil (output rows map
// 1:1 to source rows) — source columns that were projected away.
func (e *Engine) sortRows(q *sqlast.SelectStmt, rows [][]Value, cols []string, srcRel *relation, outer *scope, depth int) error {
	keys := make([][]Value, len(rows))
	if len(rows) > 0 {
		ev := e.outputEval(orderExprs(q.OrderBy), cols, srcRel, outer)
		for i, row := range rows {
			var src []Value
			if srcRel != nil {
				src = srcRel.rows[i]
			}
			ev.bind(row, src, nil)
			for k, ob := range q.OrderBy {
				if lit, ok := ob.X.(*sqlast.Literal); ok && lit.Kind == sqlast.LitInt &&
					lit.Int >= 1 && int(lit.Int) <= len(row) {
					keys[i] = append(keys[i], row[lit.Int-1])
					continue
				}
				v, err := ev.eval(k, depth+1)
				if err != nil {
					// fall back to NULL key: ORDER BY on a source column that
					// was projected away sorts as NULL, a common lenient
					// behaviour
					v = Null()
				}
				keys[i] = append(keys[i], v)
			}
		}
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k, ob := range q.OrderBy {
			c := Compare(keys[idx[a]][k], keys[idx[b]][k])
			if c != 0 {
				if ob.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	sorted := make([][]Value, len(rows))
	for n, i := range idx {
		sorted[n] = rows[i]
	}
	copy(rows, sorted)
	return nil
}

func (e *Engine) evalInt(x sqlast.Expr, outer *scope, depth int) (int64, error) {
	v, err := e.eval(x, &scope{row: map[string]Value{}, parent: outer}, depth+1)
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

func crossProduct(a, b *relation, maxRows int) *relation {
	out := &relation{
		cols: append(append([]string{}, a.cols...), b.cols...),
		qual: append(append([]string{}, a.qual...), b.qual...),
	}
	if n := len(a.rows) * len(b.rows); n > 0 {
		if n > maxRows {
			n = maxRows
		}
		out.rows = make([][]Value, 0, n)
	}
	for _, ra := range a.rows {
		for _, rb := range b.rows {
			row := append(append([]Value{}, ra...), rb...)
			out.rows = append(out.rows, row)
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
		qual := make([]string, len(rel.cols))
		for i := range qual {
			qual[i] = q
		}
		return &relation{cols: rel.cols, qual: qual, rows: rel.rows}, nil

	case *sqlast.SubqueryRef:
		e.hit(pPlanSubquery)
		rows, cols, err := e.execSelect(r.Query, outer, depth+1)
		if err != nil {
			return nil, err
		}
		qual := make([]string, len(cols))
		for i := range qual {
			qual[i] = r.Alias
		}
		return &relation{cols: cols, qual: qual, rows: rows}, nil

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
			return &relation{cols: cols, qual: make([]string, len(cols)), rows: v.MatRows}, nil
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
		return &relation{cols: cols, qual: make([]string, len(cols)), rows: rows}, nil
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
	return &relation{cols: cols, qual: make([]string, len(cols)), rows: t.Rows}, nil
}

func (e *Engine) joinRelations(j *sqlast.JoinRef, left, right *relation, outer *scope, depth int) (*relation, error) {
	out := &relation{
		cols: append(append([]string{}, left.cols...), right.cols...),
		qual: append(append([]string{}, left.qual...), right.qual...),
	}
	switch j.Kind {
	case sqlast.JoinCross:
		e.hit(pPlanJoinCross)
		return crossProduct(left, right, e.limits.MaxResultRows), nil
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

	nullsFor := func(n int) []Value {
		vs := make([]Value, n)
		for i := range vs {
			vs[i] = Null()
		}
		return vs
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
					out.rows = append(out.rows, append(append([]Value{}, lrow...), rrow...))
				}
				if len(out.rows) >= e.limits.MaxResultRows || pairBudget <= 0 {
					return out, nil
				}
			}
			if !matched {
				out.rows = append(out.rows, append(nullsFor(len(left.cols)), rrow...))
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
					out.rows = append(out.rows, append(append([]Value{}, lrow...), rrow...))
				}
				if len(out.rows) >= e.limits.MaxResultRows || pairBudget <= 0 {
					return out, nil
				}
			}
			if !matched && j.Kind == sqlast.JoinLeft {
				out.rows = append(out.rows, append(append([]Value{}, lrow...), nullsFor(len(right.cols))...))
			}
		}
	}
	return out, nil
}
