package minidb

import (
	"bytes"
	"slices"
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
	stage := e.takeStage()
	defer e.putStage(stage)
	if len(st.Cols) > 0 {
		for _, cn := range st.Cols {
			i := t.colIndex(cn)
			if i < 0 {
				return nil, e.errValue("column %q does not exist in %q", cn, st.Table)
			}
			stage.targets = append(stage.targets, i)
		}
	} else {
		for i := range t.Cols {
			stage.targets = append(stage.targets, i)
		}
	}
	targets := stage.targets

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
		if err := e.stageValues(stage, st.Rows); err != nil {
			return nil, err
		}
		srcRows = stage.rows
	}

	inserted := 0
	var retRows [][]Value
	rx := e.takeScratch() // RETURNING's scope
	defer e.putScratch(rx)
	for _, src := range srcRows {
		if src != nil && len(src) != len(targets) {
			return nil, e.errValueArgs("INSERT has %d values but %d target columns", argInt(len(src)), argInt(len(targets)))
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
				return nil, e.errValue("duplicate key value violates unique constraint")
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
			return nil, e.errValue("table %q is full", t.Name)
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
			sc := rx.tableScope(t, full)
			ret := e.row(len(st.Returning))
			for k, x := range st.Returning {
				v, err := e.eval(x, sc, 0)
				if err != nil {
					return nil, err
				}
				ret[k] = v
			}
			retRows = append(retRows, ret)
		}
	}
	return e.result(Result{Affected: inserted, Rows: retRows, Msg: "INSERT"}), nil
}

// insertStage holds one INSERT's target columns and evaluated VALUES rows.
// INSERTs take one from the engine's free list and put it back when they
// finish, so a trigger's nested INSERT stages into its own.
type insertStage struct {
	targets []int
	vals    []Value   // the VALUES rows' values, back to back
	rows    [][]Value // each row a slice of vals; nil for an all-defaults row
}

//lego:hotpath
func (e *Engine) takeStage() *insertStage {
	if n := len(e.stages); n > 0 {
		s := e.stages[n-1]
		e.stages = e.stages[:n-1]
		s.targets, s.vals, s.rows = s.targets[:0], s.vals[:0], s.rows[:0]
		return s
	}
	return &insertStage{}
}

func (e *Engine) putStage(s *insertStage) { e.stages = append(e.stages, s) }

// stageValues evaluates every VALUES row into s before any is stored, as
// the rows of INSERT ... SELECT are. vals is grown once up front, so the
// rows sliced from it stay in place.
func (e *Engine) stageValues(s *insertStage, exprRows [][]sqlast.Expr) error {
	n := 0
	for _, exprRow := range exprRows {
		n += len(exprRow)
	}
	s.vals = slices.Grow(s.vals, n)
	for _, exprRow := range exprRows {
		if len(exprRow) == 0 {
			e.hit(pInsertDefault)
			s.rows = append(s.rows, nil)
			continue
		}
		start := len(s.vals)
		for _, x := range exprRow {
			v, err := e.eval(x, emptyScope, 0)
			if err != nil {
				return err
			}
			s.vals = append(s.vals, v)
		}
		s.rows = append(s.rows, s.vals[start:len(s.vals):len(s.vals)])
	}
	return nil
}

// buildRow assembles a full-width storage row from source values, applying
// defaults and coercion.
func (e *Engine) buildRow(t *Table, targets []int, src []Value) ([]Value, error) {
	full := e.row(len(t.Cols))
	for n, ci := range targets {
		if src == nil {
			break
		}
		full[ci] = CoerceToColumn(t.Cols[ci].Kind, src[n])
	}
	for ci := range t.Cols {
		if src != nil && slices.Contains(targets, ci) {
			continue
		}
		if t.Cols[ci].Default != nil {
			dv, err := e.eval(t.Cols[ci].Default, emptyScope, 0)
			if err != nil {
				return nil, err
			}
			full[ci] = CoerceToColumn(t.Cols[ci].Kind, dv)
		} else {
			full[ci] = Null()
		}
	}
	return full, nil
}

// findUniqueConflict returns the index of a row conflicting on a PK/UNIQUE
// column or unique index, or -1. skip is a row index to ignore (for
// updates). Index keys are compared as RowKey's bytes, built into the
// engine's key buffers.
//
//lego:hotpath
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
	if len(e.cat.Indexes) == 0 {
		return -1
	}
	e.ixBuf = e.cat.indexesFor(e.ixBuf[:0], t.Name)
	for _, ix := range e.ixBuf {
		if !ix.Unique || ix.stale {
			continue
		}
		k, valid := appendIndexKey(e.keyBuf[:0], t, ix.Cols, row)
		e.keyBuf = k
		if !valid {
			continue
		}
		for ri, ex := range t.Rows {
			if ri == skip {
				continue
			}
			e.exKeyBuf, _ = appendIndexKey(e.exKeyBuf[:0], t, ix.Cols, ex)
			if bytes.Equal(e.exKeyBuf, k) {
				return ri
			}
		}
	}
	return -1
}

// appendIndexKey appends to b the RowKey of row's values in t's columns
// cols; valid is false when t has no column of one of the names.
func appendIndexKey(b []byte, t *Table, cols []string, row []Value) (_ []byte, valid bool) {
	for _, cn := range cols {
		ci := t.colIndex(cn)
		if ci < 0 {
			return b, false
		}
		b = append(row[ci].appendKey(b), 0x1f)
	}
	return b, true
}

// checkRowConstraints enforces NOT NULL, CHECK, and FK constraints.
func (e *Engine) checkRowConstraints(t *Table, row []Value) error {
	x := e.takeScratch() // CHECK scopes
	defer e.putScratch(x)
	for ci, col := range t.Cols {
		if col.NotNull && row[ci].IsNull() {
			e.hit(pInsertNotNull)
			return e.errValue("null value in column %q violates not-null constraint", col.Name)
		}
		if col.Check != nil {
			v, err := e.eval(col.Check, x.checkScope(t, row, row[ci]), 0)
			if err != nil {
				return err
			}
			if !v.IsNull() && !v.Truthy() {
				e.hit(pInsertCheckFail)
				return e.errValue("check constraint on %q failed", col.Name)
			}
		}
		if col.RefTable != "" && !row[ci].IsNull() {
			e.hit(pInsertFKCheck)
			ref, ok := e.cat.Tables[col.RefTable]
			if !ok {
				return e.errValue("referenced table %q is gone", col.RefTable)
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
				return e.errValue("foreign key violation on column %q", col.Name)
			}
		}
	}
	for _, tc := range t.Constraints {
		if tc.Kind == "CHECK" && tc.Check != nil {
			v, err := e.eval(tc.Check, x.tableScope(t, row), 0)
			if err != nil {
				return err
			}
			if !v.IsNull() && !v.Truthy() {
				e.hit(pInsertCheckFail)
				return e.errValue("table check constraint failed")
			}
		}
	}
	return nil
}

// fireTriggers runs the trigger bodies registered for (table, time, event).
// A body may fire triggers in turn, so each level lists its triggers in a
// buffer of its own from the engine's stack.
//
//lego:hotpath
func (e *Engine) fireTriggers(table string, tm sqlast.TriggerTime, ev sqlast.TriggerEvent) error {
	if len(e.cat.Triggers) == 0 {
		return nil
	}
	trs := e.cat.triggersFor(e.trigBufs.take(), table, tm, ev)
	defer e.trigBufs.put(trs)
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
			return e.errValueArgs("trigger %q failed: %s", argS(tr.Name), argErr(err))
		}
	}
	return nil
}

// matchingRowIdxs returns indexes of rows satisfying where, in ORDER BY
// order, truncated by limit (MySQL-style UPDATE/DELETE ... ORDER BY LIMIT).
func (e *Engine) matchingRowIdxs(t *Table, where sqlast.Expr, orderBy []sqlast.OrderItem, limit sqlast.Expr) (idxs []int, err error) {
	idxs = e.idxBufs.take()
	defer func() {
		if err != nil {
			e.idxBufs.put(idxs)
		}
	}()
	var wEv rowEval
	if where != nil {
		wEv = e.tableEval(nil, t)
		wEv.exprs = wEv.x.list(where)
		defer e.putScratch(wEv.x)
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
		ev := e.tableEval(nil, t)
		ev.exprs = ev.x.orderList(orderBy)
		defer e.putScratch(ev.x)
		keys := ev.x.vals[:0]
		for _, ri := range idxs {
			ev.bind(t.Rows[ri], nil, nil)
			for k := range orderBy {
				v, err := ev.eval(k, 0)
				if err != nil {
					return nil, err
				}
				keys = append(keys, v)
			}
		}
		ev.x.sort(idxs, keys, orderBy)
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
	defer e.idxBufs.put(idxs)
	if len(idxs) == 0 {
		e.hit(pUpdateZeroRows)
		return e.result(Result{Affected: 0, Msg: "UPDATE"}), nil
	}
	ev := e.tableEval(nil, t)
	defer e.putScratch(ev.x)
	setIdx, xs := ev.x.ints[:0], ev.x.xs[:0]
	for _, a := range st.Sets {
		ci := t.colIndex(a.Col)
		if ci < 0 {
			return nil, e.errValue("column %q does not exist in %q", a.Col, st.Table)
		}
		setIdx, xs = append(setIdx, ci), append(xs, a.Value)
	}
	ev.x.ints, ev.x.xs, ev.exprs = setIdx, xs, xs
	touched := 0
	for _, ri := range idxs {
		if err := e.fireTriggers(t.Name, sqlast.TriggerBefore, sqlast.TriggerUpdate); err != nil {
			return nil, err
		}
		// a BEFORE trigger body may have deleted rows or reshaped the table
		if ri >= len(t.Rows) {
			continue
		}
		newRow := e.copyRow(t.Rows[ri])
		ev.bind(t.Rows[ri], nil, nil)
		for i := range st.Sets {
			v, err := ev.eval(i, 0)
			if err != nil {
				return nil, err
			}
			if setIdx[i] >= len(newRow) {
				continue
			}
			newRow[setIdx[i]] = CoerceToColumn(t.Cols[setIdx[i]].Kind, v)
		}
		if err := e.checkRowConstraints(t, newRow); err != nil {
			return nil, err
		}
		if c := e.findUniqueConflict(t, newRow, ri); c >= 0 {
			return nil, e.errValue("duplicate key value violates unique constraint")
		}
		if e.cat.hasIndexes(t.Name) {
			e.hit(pUpdateIndexMaint)
		}
		t.Rows[ri] = newRow
		touched++
		if err := e.fireTriggers(t.Name, sqlast.TriggerAfter, sqlast.TriggerUpdate); err != nil {
			return nil, err
		}
	}
	t.analyzed = false
	return e.result(Result{Affected: touched, Msg: "UPDATE"}), nil
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
	defer e.idxBufs.put(idxs)
	if len(idxs) == 0 {
		e.hit(pDeleteZeroRows)
		return e.result(Result{Affected: 0, Msg: "DELETE"}), nil
	}
	var retRows [][]Value
	rx := e.takeScratch() // RETURNING's scope
	defer e.putScratch(rx)
	// del marks deleted rows; rows a trigger appends are past its end
	del, deleted := make([]bool, len(t.Rows)), 0
	for _, ri := range idxs {
		if err := e.fireTriggers(t.Name, sqlast.TriggerBefore, sqlast.TriggerDelete); err != nil {
			return nil, err
		}
		if ri >= len(t.Rows) {
			continue
		}
		if len(st.Returning) > 0 {
			sc := rx.tableScope(t, t.Rows[ri])
			ret := e.row(len(st.Returning))
			for k, x := range st.Returning {
				v, err := e.eval(x, sc, 0)
				if err != nil {
					return nil, err
				}
				ret[k] = v
			}
			retRows = append(retRows, ret)
		}
		if !del[ri] {
			del[ri] = true
			deleted++
		}
		if err := e.fireTriggers(t.Name, sqlast.TriggerAfter, sqlast.TriggerDelete); err != nil {
			return nil, err
		}
	}
	t.Rows = keepUnmarked(t.Rows, del)
	t.analyzed = false
	return e.result(Result{Affected: deleted, Rows: retRows, Msg: "DELETE"}), nil
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
	// One scope binds every pair (target row, then source row, copied into
	// buf) and every unmatched source row.
	nt, ns := len(target.Cols), len(source.Cols)
	onKeys, insKeys := mergeKeys(st.Target, target.Cols, st.Source, source.Cols)
	buf := make([]Value, 0, nt+ns)
	sc := &scope{}
	for _, srow := range source.Rows {
		matchedAny := false
		for ri, trow := range target.Rows {
			// clipped, a row shorter than its table panics here
			buf = append(append(buf[:0], slices.Clip(trow)[:nt]...), slices.Clip(srow)[:ns]...)
			sc.frame = frame{onKeys, buf}
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
				newRow := e.copyRow(trow)
				for _, a := range st.MatchedSet {
					ci := target.colIndex(a.Col)
					if ci < 0 {
						return nil, e.errValue("column %q does not exist", a.Col)
					}
					av, err := e.eval(a.Value, sc, 0)
					if err != nil {
						return nil, err
					}
					newRow[ci] = CoerceToColumn(target.Cols[ci].Kind, av)
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
				return nil, e.errValue("MERGE insert arity mismatch")
			}
			row := e.row(len(target.Cols))
			buf = append(buf[:0], slices.Clip(srow)[:ns]...)
			sc.frame = frame{insKeys, buf}
			for i, x := range st.NotMatchedVals {
				v, err := e.eval(x, sc, 0)
				if err != nil {
					return nil, err
				}
				row[i] = CoerceToColumn(target.Cols[i].Kind, v)
			}
			if len(target.Rows) >= e.limits.MaxRowsPerTable {
				e.hit(pStorageFull)
				return nil, e.errValue("table %q is full", target.Name)
			}
			target.Rows = append(target.Rows, row)
			affected++
		}
	}
	if len(toDelete) > 0 {
		del := make([]bool, len(target.Rows))
		for _, ri := range toDelete {
			del[ri] = true
		}
		target.Rows = keepUnmarked(target.Rows, del)
	}
	target.analyzed = false
	return e.result(Result{Affected: affected, Msg: "MERGE"}), nil
}

// mergeKeys builds MERGE's keys, last column first: on binds the source's
// columns (slots after the target's) under "source.name" only, then the
// target's under "target.name" and the name; ins binds the source's
// columns alone, under "source.name" and the name.
func mergeKeys(target string, tcols []Column, source string, scols []Column) (on, ins []binding) {
	nt, ns := len(tcols), len(scols)
	on = make([]binding, 0, 2*nt+ns)
	ins = make([]binding, 0, 2*ns)
	for ci := ns - 1; ci >= 0; ci-- {
		qk := source + "." + scols[ci].Name
		on = append(on, binding{qk, nt + ci})
		ins = append(ins, binding{qk, ci}, binding{scols[ci].Name, ci})
	}
	for ci := nt - 1; ci >= 0; ci-- {
		on = append(on, binding{target + "." + tcols[ci].Name, ci}, binding{tcols[ci].Name, ci})
	}
	return on, ins
}

// keepUnmarked returns the rows whose index del does not mark; rows past
// the end of del are kept.
func keepUnmarked(rows [][]Value, del []bool) [][]Value {
	var kept [][]Value
	for ri, row := range rows {
		if ri >= len(del) || !del[ri] {
			kept = append(kept, row)
		}
	}
	return kept
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
				return nil, e.errValueArgs("COPY row has %d fields, want %d", argInt(len(parts)), argInt(len(t.Cols)))
			}
			row := e.row(len(t.Cols))
			for i, p := range parts {
				row[i] = CoerceToColumn(t.Cols[i].Kind, Text(p))
			}
			if len(t.Rows) >= e.limits.MaxRowsPerTable {
				e.hit(pStorageFull)
				break
			}
			t.Rows = append(t.Rows, row)
			n++
		}
		return e.result(Result{Affected: n, Msg: "COPY"}), nil
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
	return e.result(Result{Cols: cols, Rows: rows, Msg: sb.String()}), nil
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
		row := e.row(len(t.Cols))
		for ci, col := range t.Cols {
			switch col.Kind {
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
	return e.result(Result{Affected: n, Msg: "LOAD DATA"}), nil
}

func (e *Engine) execCall(st *sqlast.CallStmt) (*Result, error) {
	e.hit(pCall)
	p, found := e.cat.Procedures[st.Name]
	if !found {
		return nil, e.errValue("procedure %q does not exist", st.Name)
	}
	if e.triggerDepth >= e.limits.MaxTriggerDepth {
		e.hit(pTriggerDepthCap)
		return e.ok("CALL (depth cap)")
	}
	e.triggerDepth++
	defer func() { e.triggerDepth-- }()
	return e.dispatch(p.Body)
}

func (e *Engine) execDo(st *sqlast.DoStmt) (*Result, error) {
	e.hit(pDo)
	if _, err := e.eval(st.Body, emptyScope, 0); err != nil {
		return nil, err
	}
	return e.ok("DO")
}
