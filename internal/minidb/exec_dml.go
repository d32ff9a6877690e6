package minidb

import (
	"sort"
	"strings"

	"github.com/seqfuzz/lego/internal/sqlast"
)

// execInsert handles INSERT and REPLACE.
func (e *Engine) execInsert(st *sqlast.InsertStmt) (*Result, error) {
	e.hit(pInsert)
	if err := e.checkPriv(st.Table, "INSERT"); err != nil {
		return nil, err
	}

	// PostgreSQL-style rewrite rules may replace the insert entirely.
	if handled, res, err := e.applyRules(st.Table, sqlast.TriggerInsert); handled {
		return res, err
	}

	t, err := e.lookTable(st.Table)
	if err != nil {
		return nil, err
	}

	// resolve target columns
	targets := make([]int, 0, len(t.Cols))
	if len(st.Cols) > 0 {
		for _, cn := range st.Cols {
			i := t.colIndex(cn)
			if i < 0 {
				return nil, errValue("column %q does not exist in %q", cn, st.Table)
			}
			targets = append(targets, i)
		}
	} else {
		for i := range t.Cols {
			targets = append(targets, i)
		}
	}

	// source rows
	var srcRows [][]Value
	switch {
	case st.Query != nil:
		e.hit(pInsertSelect)
		rows, _, err := e.execSelect(st.Query, nil, 0)
		if err != nil {
			return nil, err
		}
		srcRows = rows
	default:
		if len(st.Rows) > 1 {
			e.hit(pInsertMultiRow)
		}
		for _, exprRow := range st.Rows {
			if len(exprRow) == 0 {
				e.hit(pInsertDefault)
				srcRows = append(srcRows, nil) // all defaults
				continue
			}
			row := make([]Value, len(exprRow))
			for i, x := range exprRow {
				v, err := e.eval(x, emptyScope, 0)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			srcRows = append(srcRows, row)
		}
	}

	inserted := 0
	var retRows [][]Value
	for _, src := range srcRows {
		if src != nil && len(src) != len(targets) {
			return nil, errValue("INSERT has %d values but %d target columns", len(src), len(targets))
		}
		full, err := e.buildRow(t, targets, src)
		if err != nil {
			return nil, err
		}
		conflictIdx := e.findUniqueConflict(t, full, -1)
		if conflictIdx >= 0 {
			switch {
			case st.IsReplace:
				e.hit(pReplaceOverwrite)
				t.Rows[conflictIdx] = full
				inserted++
				continue
			case st.Ignore:
				e.hit(pInsertIgnoreDup)
				continue
			case st.OnConflictDoNothing:
				e.hit(pInsertConflict)
				continue
			default:
				return nil, errValue("duplicate key value violates unique constraint")
			}
		}
		if err := e.checkRowConstraints(t, full); err != nil {
			return nil, err
		}
		if err := e.fireTriggers(t.Name, sqlast.TriggerBefore, sqlast.TriggerInsert); err != nil {
			return nil, err
		}
		if len(t.Rows) >= e.limits.MaxRowsPerTable {
			e.hit(pStorageFull)
			return nil, errValue("table %q is full", t.Name)
		}
		e.hit(pStorageAppend)
		if len(t.Rows) == 0 {
			e.hit(pInsertFirstRow)
		}
		if len(t.Rows)&(len(t.Rows)+1) == 0 && len(t.Rows) > 0 {
			e.hit(pStorageGrow) // capacity-doubling boundary
		}
		t.Rows = append(t.Rows, full)
		t.analyzed = false
		inserted++
		e.rowsInserted++
		e.lastInsertTab = t.Name
		if err := e.fireTriggers(t.Name, sqlast.TriggerAfter, sqlast.TriggerInsert); err != nil {
			return nil, err
		}
		if len(st.Returning) > 0 {
			e.hit(pInsertReturning)
			sc := e.rowScope(t, full)
			var ret []Value
			for _, rx := range st.Returning {
				v, err := e.eval(rx, sc, 0)
				if err != nil {
					return nil, err
				}
				ret = append(ret, v)
			}
			retRows = append(retRows, ret)
		}
	}
	return &Result{Affected: inserted, Rows: retRows, Msg: "INSERT"}, nil
}

// buildRow assembles a full-width storage row from source values, applying
// defaults and coercion.
func (e *Engine) buildRow(t *Table, targets []int, src []Value) ([]Value, error) {
	full := make([]Value, len(t.Cols))
	filled := make([]bool, len(t.Cols))
	for n, ci := range targets {
		if src == nil {
			break
		}
		full[ci] = CoerceToColumn(t.Cols[ci].TypeName, src[n])
		filled[ci] = true
	}
	for ci := range t.Cols {
		if filled[ci] {
			continue
		}
		if t.Cols[ci].Default != nil {
			dv, err := e.eval(t.Cols[ci].Default, emptyScope, 0)
			if err != nil {
				return nil, err
			}
			full[ci] = CoerceToColumn(t.Cols[ci].TypeName, dv)
		} else {
			full[ci] = Null()
		}
	}
	return full, nil
}

// findUniqueConflict returns the index of a row conflicting on a PK/UNIQUE
// column or unique index, or -1. skip is a row index to ignore (for
// updates).
func (e *Engine) findUniqueConflict(t *Table, row []Value, skip int) int {
	for ci := range t.Cols {
		if !t.Cols[ci].Unique || row[ci].IsNull() {
			continue
		}
		for ri, ex := range t.Rows {
			if ri == skip {
				continue
			}
			if !ex[ci].IsNull() && Equal(ex[ci], row[ci]) {
				return ri
			}
		}
	}
	for _, ix := range e.cat.indexesFor(t.Name) {
		if !ix.Unique || ix.stale {
			continue
		}
		var key []Value
		valid := true
		for _, cn := range ix.Cols {
			ci := t.colIndex(cn)
			if ci < 0 {
				valid = false
				break
			}
			key = append(key, row[ci])
		}
		if !valid {
			continue
		}
		k := RowKey(key)
		for ri, ex := range t.Rows {
			if ri == skip {
				continue
			}
			var exKey []Value
			for _, cn := range ix.Cols {
				exKey = append(exKey, ex[t.colIndex(cn)])
			}
			if RowKey(exKey) == k {
				return ri
			}
		}
	}
	return -1
}

// checkRowConstraints enforces NOT NULL, CHECK, and FK constraints.
func (e *Engine) checkRowConstraints(t *Table, row []Value) error {
	for ci, col := range t.Cols {
		if col.NotNull && row[ci].IsNull() {
			e.hit(pInsertNotNull)
			return errValue("null value in column %q violates not-null constraint", col.Name)
		}
		if col.Check != nil {
			sc := e.rowScope(t, row)
			sc.row["VALUE"] = row[ci]
			v, err := e.eval(col.Check, sc, 0)
			if err != nil {
				return err
			}
			if !v.IsNull() && !v.Truthy() {
				e.hit(pInsertCheckFail)
				return errValue("check constraint on %q failed", col.Name)
			}
		}
		if col.RefTable != "" && !row[ci].IsNull() {
			e.hit(pInsertFKCheck)
			ref, ok := e.cat.Tables[col.RefTable]
			if !ok {
				return errValue("referenced table %q is gone", col.RefTable)
			}
			found := false
			for _, rr := range ref.Rows {
				for rci := range ref.Cols {
					if ref.Cols[rci].Unique && Equal(rr[rci], row[ci]) {
						found = true
						break
					}
				}
				if found {
					break
				}
			}
			if !found && ref != t {
				return errValue("foreign key violation on column %q", col.Name)
			}
		}
	}
	for _, tc := range t.Constraints {
		if tc.Kind == "CHECK" && tc.Check != nil {
			sc := e.rowScope(t, row)
			v, err := e.eval(tc.Check, sc, 0)
			if err != nil {
				return err
			}
			if !v.IsNull() && !v.Truthy() {
				e.hit(pInsertCheckFail)
				return errValue("table check constraint failed")
			}
		}
	}
	return nil
}

// rowScope builds an evaluation scope for one row of a table.
func (e *Engine) rowScope(t *Table, row []Value) *scope {
	m := make(map[string]Value, 2*len(t.Cols))
	for ci := range t.Cols {
		if ci >= len(row) { // table reshaped mid-statement by a trigger
			break
		}
		m[t.Cols[ci].Name] = row[ci]
		m[t.Name+"."+t.Cols[ci].Name] = row[ci]
	}
	return &scope{row: m}
}

// fireTriggers runs the trigger bodies registered for (table, time, event).
func (e *Engine) fireTriggers(table string, tm sqlast.TriggerTime, ev sqlast.TriggerEvent) error {
	trs := e.cat.triggersFor(table, tm, ev)
	if len(trs) == 0 {
		return nil
	}
	if e.triggerDepth >= e.limits.MaxTriggerDepth ||
		e.triggerFires >= e.limits.MaxTriggerFires {
		e.hit(pTriggerDepthCap)
		return nil // silently stop cascading, like MySQL's max depth
	}
	e.triggerDepth++
	defer func() { e.triggerDepth-- }()
	for _, tr := range trs {
		e.triggerFires++
		e.hit(pTriggerFire)
		if tm == sqlast.TriggerBefore {
			e.hit(pTriggerBefore)
		}
		if e.triggerDepth > 1 {
			e.hit(pTriggerNested)
		}
		// trigger body errors abort the statement
		if _, err := e.dispatch(tr.Body); err != nil {
			return errValue("trigger %q failed: %s", tr.Name, err.Error())
		}
	}
	return nil
}

// matchingRowIdxs returns indexes of rows satisfying where, in ORDER BY
// order, truncated by limit (MySQL-style UPDATE/DELETE ... ORDER BY LIMIT).
func (e *Engine) matchingRowIdxs(t *Table, where sqlast.Expr, orderBy []sqlast.OrderItem, limit sqlast.Expr) ([]int, error) {
	var idxs []int
	var wEv rowEval
	if where != nil {
		wEv = e.tableEval([]sqlast.Expr{where}, t)
	}
	for ri, row := range t.Rows {
		if where != nil {
			wEv.bind(row, nil, nil)
			v, err := wEv.eval(0, 0)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		idxs = append(idxs, ri)
	}
	if len(orderBy) > 0 {
		ev := e.tableEval(orderExprs(orderBy), t)
		keys := make(map[int][]Value, len(idxs))
		for _, ri := range idxs {
			ev.bind(t.Rows[ri], nil, nil)
			for k := range orderBy {
				v, err := ev.eval(k, 0)
				if err != nil {
					return nil, err
				}
				keys[ri] = append(keys[ri], v)
			}
		}
		sort.SliceStable(idxs, func(a, b int) bool {
			ka, kb := keys[idxs[a]], keys[idxs[b]]
			for k, ob := range orderBy {
				c := Compare(ka[k], kb[k])
				if c != 0 {
					if ob.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
	}
	if limit != nil {
		n, err := e.evalInt(limit, nil, 0)
		if err != nil {
			return nil, err
		}
		if n >= 0 && int(n) < len(idxs) {
			idxs = idxs[:n]
		}
	}
	return idxs, nil
}

func (e *Engine) execUpdate(st *sqlast.UpdateStmt) (*Result, error) {
	e.hit(pUpdate)
	if st.Where == nil {
		e.hit(pUpdateNoWhere)
	}
	if err := e.checkPriv(st.Table, "UPDATE"); err != nil {
		return nil, err
	}
	if handled, res, err := e.applyRules(st.Table, sqlast.TriggerUpdate); handled {
		return res, err
	}
	t, err := e.lookTable(st.Table)
	if err != nil {
		return nil, err
	}
	if t.locked != "" && t.locked != "self" {
		e.hit(pLockConflict)
	}
	idxs, err := e.matchingRowIdxs(t, st.Where, st.OrderBy, st.Limit)
	if err != nil {
		return nil, err
	}
	if len(idxs) == 0 {
		e.hit(pUpdateZeroRows)
		return &Result{Affected: 0, Msg: "UPDATE"}, nil
	}
	setIdx := make([]int, len(st.Sets))
	for i, a := range st.Sets {
		ci := t.colIndex(a.Col)
		if ci < 0 {
			return nil, errValue("column %q does not exist in %q", a.Col, st.Table)
		}
		setIdx[i] = ci
	}
	xs := make([]sqlast.Expr, len(st.Sets))
	for i, a := range st.Sets {
		xs[i] = a.Value
	}
	ev := e.tableEval(xs, t)
	touched := 0
	for _, ri := range idxs {
		if err := e.fireTriggers(t.Name, sqlast.TriggerBefore, sqlast.TriggerUpdate); err != nil {
			return nil, err
		}
		// a BEFORE trigger body may have deleted rows or reshaped the table
		if ri >= len(t.Rows) {
			continue
		}
		newRow := append([]Value(nil), t.Rows[ri]...)
		ev.bind(t.Rows[ri], nil, nil)
		for i := range st.Sets {
			v, err := ev.eval(i, 0)
			if err != nil {
				return nil, err
			}
			if setIdx[i] >= len(newRow) {
				continue
			}
			newRow[setIdx[i]] = CoerceToColumn(t.Cols[setIdx[i]].TypeName, v)
		}
		if err := e.checkRowConstraints(t, newRow); err != nil {
			return nil, err
		}
		if c := e.findUniqueConflict(t, newRow, ri); c >= 0 {
			return nil, errValue("duplicate key value violates unique constraint")
		}
		if len(e.cat.indexesFor(t.Name)) > 0 {
			e.hit(pUpdateIndexMaint)
		}
		t.Rows[ri] = newRow
		touched++
		if err := e.fireTriggers(t.Name, sqlast.TriggerAfter, sqlast.TriggerUpdate); err != nil {
			return nil, err
		}
	}
	t.analyzed = false
	return &Result{Affected: touched, Msg: "UPDATE"}, nil
}

func (e *Engine) execDelete(st *sqlast.DeleteStmt) (*Result, error) {
	e.hit(pDelete)
	if st.Where == nil {
		e.hit(pDeleteAll)
	}
	if err := e.checkPriv(st.Table, "DELETE"); err != nil {
		return nil, err
	}
	if handled, res, err := e.applyRules(st.Table, sqlast.TriggerDelete); handled {
		return res, err
	}
	t, err := e.lookTable(st.Table)
	if err != nil {
		return nil, err
	}
	idxs, err := e.matchingRowIdxs(t, st.Where, st.OrderBy, st.Limit)
	if err != nil {
		return nil, err
	}
	if len(idxs) == 0 {
		e.hit(pDeleteZeroRows)
		return &Result{Affected: 0, Msg: "DELETE"}, nil
	}
	var retRows [][]Value
	del := make(map[int]bool, len(idxs))
	for _, ri := range idxs {
		if err := e.fireTriggers(t.Name, sqlast.TriggerBefore, sqlast.TriggerDelete); err != nil {
			return nil, err
		}
		if ri >= len(t.Rows) {
			continue
		}
		if len(st.Returning) > 0 {
			sc := e.rowScope(t, t.Rows[ri])
			var ret []Value
			for _, rx := range st.Returning {
				v, err := e.eval(rx, sc, 0)
				if err != nil {
					return nil, err
				}
				ret = append(ret, v)
			}
			retRows = append(retRows, ret)
		}
		del[ri] = true
		if err := e.fireTriggers(t.Name, sqlast.TriggerAfter, sqlast.TriggerDelete); err != nil {
			return nil, err
		}
	}
	var kept [][]Value
	for ri, row := range t.Rows {
		if !del[ri] {
			kept = append(kept, row)
		}
	}
	t.Rows = kept
	t.analyzed = false
	return &Result{Affected: len(del), Rows: retRows, Msg: "DELETE"}, nil
}

func (e *Engine) execMerge(st *sqlast.MergeStmt) (*Result, error) {
	target, err := e.lookTable(st.Target)
	if err != nil {
		return nil, err
	}
	source, err := e.lookTable(st.Source)
	if err != nil {
		return nil, err
	}
	if err := e.checkPriv(st.Target, "UPDATE"); err != nil {
		return nil, err
	}
	affected := 0
	var toDelete []int
	for _, srow := range source.Rows {
		matchedAny := false
		for ri, trow := range target.Rows {
			sc := &scope{row: map[string]Value{}}
			for ci := range target.Cols {
				sc.row[target.Cols[ci].Name] = trow[ci]
				sc.row[st.Target+"."+target.Cols[ci].Name] = trow[ci]
			}
			for ci := range source.Cols {
				sc.row[st.Source+"."+source.Cols[ci].Name] = srow[ci]
			}
			v, err := e.eval(st.On, sc, 0)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
			matchedAny = true
			if len(st.MatchedSet) > 0 {
				e.hit(pMergeMatched)
				newRow := append([]Value(nil), trow...)
				for _, a := range st.MatchedSet {
					ci := target.colIndex(a.Col)
					if ci < 0 {
						return nil, errValue("column %q does not exist", a.Col)
					}
					av, err := e.eval(a.Value, sc, 0)
					if err != nil {
						return nil, err
					}
					newRow[ci] = CoerceToColumn(target.Cols[ci].TypeName, av)
				}
				target.Rows[ri] = newRow
			} else {
				toDelete = append(toDelete, ri)
			}
			affected++
		}
		if !matchedAny && st.NotMatchedVals != nil {
			e.hit(pMergeNotMatched)
			if len(st.NotMatchedVals) != len(target.Cols) {
				return nil, errValue("MERGE insert arity mismatch")
			}
			row := make([]Value, len(target.Cols))
			sc := &scope{row: map[string]Value{}}
			for ci := range source.Cols {
				sc.row[source.Cols[ci].Name] = srow[ci]
				sc.row[st.Source+"."+source.Cols[ci].Name] = srow[ci]
			}
			for i, x := range st.NotMatchedVals {
				v, err := e.eval(x, sc, 0)
				if err != nil {
					return nil, err
				}
				row[i] = CoerceToColumn(target.Cols[i].TypeName, v)
			}
			if len(target.Rows) >= e.limits.MaxRowsPerTable {
				e.hit(pStorageFull)
				return nil, errValue("table %q is full", target.Name)
			}
			target.Rows = append(target.Rows, row)
			affected++
		}
	}
	if len(toDelete) > 0 {
		del := map[int]bool{}
		for _, ri := range toDelete {
			del[ri] = true
		}
		var kept [][]Value
		for ri, row := range target.Rows {
			if !del[ri] {
				kept = append(kept, row)
			}
		}
		target.Rows = kept
	}
	target.analyzed = false
	return &Result{Affected: affected, Msg: "MERGE"}, nil
}

func (e *Engine) execCopy(st *sqlast.CopyStmt) (*Result, error) {
	if st.From {
		e.hit(pCopyIn)
		t, err := e.lookTable(st.Table)
		if err != nil {
			return nil, err
		}
		// Inline payload rows: each line "v1,v2,...".
		n := 0
		for _, line := range strings.Split(st.Data, "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			parts := strings.Split(line, ",")
			if len(parts) != len(t.Cols) {
				return nil, errValue("COPY row has %d fields, want %d", len(parts), len(t.Cols))
			}
			row := make([]Value, len(t.Cols))
			for i, p := range parts {
				row[i] = CoerceToColumn(t.Cols[i].TypeName, Text(p))
			}
			if len(t.Rows) >= e.limits.MaxRowsPerTable {
				e.hit(pStorageFull)
				break
			}
			t.Rows = append(t.Rows, row)
			n++
		}
		return &Result{Affected: n, Msg: "COPY"}, nil
	}
	e.hit(pCopyOut)
	var rows [][]Value
	var cols []string
	if st.Query != nil {
		e.hit(pCopyOutQuery)
		r, c, err := e.execSelect(st.Query, nil, 0)
		if err != nil {
			return nil, err
		}
		rows, cols = r, c
	} else {
		t, err := e.lookTable(st.Table)
		if err != nil {
			return nil, err
		}
		if err := e.checkPriv(st.Table, "SELECT"); err != nil {
			return nil, err
		}
		for _, c := range t.Cols {
			cols = append(cols, c.Name)
		}
		rows = t.Rows
	}
	var sb strings.Builder
	if st.CSV {
		sb.WriteString(strings.Join(cols, ","))
		sb.WriteByte('\n')
	}
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return &Result{Cols: cols, Rows: rows, Msg: sb.String()}, nil
}

func (e *Engine) execLoadData(st *sqlast.LoadDataStmt) (*Result, error) {
	e.hit(pLoadData)
	t, err := e.lookTable(st.Table)
	if err != nil {
		return nil, err
	}
	// The engine is hermetic: LOAD DATA synthesizes three deterministic rows
	// whose values depend on the (virtual) file name, exercising the bulk
	// load path without touching the filesystem.
	n := 0
	for k := 0; k < 3; k++ {
		row := make([]Value, len(t.Cols))
		for ci, col := range t.Cols {
			switch affinity(col.TypeName) {
			case KInt:
				row[ci] = Int(int64(len(st.File) + k + ci))
			case KFloat:
				row[ci] = Float(float64(k) + 0.5)
			case KBool:
				row[ci] = Bool(k%2 == 0)
			default:
				row[ci] = Text(st.File)
			}
		}
		if e.findUniqueConflict(t, row, -1) >= 0 {
			continue
		}
		if len(t.Rows) >= e.limits.MaxRowsPerTable {
			e.hit(pStorageFull)
			break
		}
		t.Rows = append(t.Rows, row)
		n++
	}
	t.analyzed = false
	return &Result{Affected: n, Msg: "LOAD DATA"}, nil
}

func (e *Engine) execCall(st *sqlast.CallStmt) (*Result, error) {
	e.hit(pCall)
	p, ok := e.cat.Procedures[st.Name]
	if !ok {
		return nil, errValue("procedure %q does not exist", st.Name)
	}
	if e.triggerDepth >= e.limits.MaxTriggerDepth {
		e.hit(pTriggerDepthCap)
		return ok2("CALL (depth cap)")
	}
	e.triggerDepth++
	defer func() { e.triggerDepth-- }()
	return e.dispatch(p.Body)
}

func ok2(msg string) (*Result, error) { return &Result{Msg: msg}, nil }

func (e *Engine) execDo(st *sqlast.DoStmt) (*Result, error) {
	e.hit(pDo)
	if _, err := e.eval(st.Body, emptyScope, 0); err != nil {
		return nil, err
	}
	return ok("DO")
}
