package minidb

import (
	"sort"
	"strings"

	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// --- DQL misc ----------------------------------------------------------

func (e *Engine) execTableStmt(st *sqlast.TableStmtNode) (*Result, error) {
	e.hit(pExecTableStmt)
	rel, err := e.resolveNamedRelation(st.Name, "", nil, 0)
	if err != nil {
		return nil, err
	}
	return e.result(Result{Cols: rel.cols, Rows: rel.rows}), nil
}

func (e *Engine) execValuesStmt(st *sqlast.ValuesStmtNode) (*Result, error) {
	e.hit(pExecValues)
	var rows [][]Value
	for _, exprRow := range st.Rows {
		row := e.row(len(exprRow))
		for i, x := range exprRow {
			v, err := e.eval(x, emptyScope, 0)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	var cols []string
	if len(rows) > 0 {
		for i := range rows[0] {
			cols = append(cols, columnName(i))
		}
	}
	return e.result(Result{Cols: cols, Rows: rows}), nil
}

func (e *Engine) execShow(st *sqlast.ShowStmt) (*Result, error) {
	e.hit(pShow)
	switch st.Name {
	case "TABLES":
		var rows [][]Value
		for _, n := range e.cat.tableNames() {
			rows = append(rows, []Value{Text(n)})
		}
		return e.result(Result{Cols: []string{"table_name"}, Rows: rows}), nil
	case "DATABASES":
		var names []string
		for n := range e.cat.Databases {
			names = append(names, n)
		}
		sort.Strings(names)
		var rows [][]Value
		for _, n := range names {
			rows = append(rows, []Value{Text(n)})
		}
		return e.result(Result{Cols: []string{"database"}, Rows: rows}), nil
	default:
		name := strings.ToLower(st.Name)
		if v, okv := e.sess.vars[name]; okv {
			return e.result(Result{Cols: []string{name}, Rows: [][]Value{{v}}}), nil
		}
		if v, okv := e.sess.globals[name]; okv {
			return e.result(Result{Cols: []string{name}, Rows: [][]Value{{v}}}), nil
		}
		return e.result(Result{Cols: []string{name}, Rows: [][]Value{{Null()}}}), nil
	}
}

func (e *Engine) execDescribe(st *sqlast.DescribeStmt) (*Result, error) {
	e.hit(pDescribe)
	t, err := e.lookTable(st.Table)
	if err != nil {
		return nil, err
	}
	var rows [][]Value
	for _, c := range t.Cols {
		rows = append(rows, []Value{Text(c.Name), Text(c.TypeName), Bool(!c.NotNull)})
	}
	return e.result(Result{Cols: []string{"Field", "Type", "Null"}, Rows: rows}), nil
}

// --- DCL ----------------------------------------------------------------

func (e *Engine) execGrant(st *sqlast.GrantStmt) (*Result, error) {
	if st.Revoke {
		e.hit(pAuthRevoke)
	} else {
		e.hit(pAuthGrant)
	}
	r, okr := e.cat.Roles[st.Role]
	if !okr {
		return nil, e.errValue("role %q does not exist", st.Role)
	}
	if _, err := e.lookTable(st.Table); err != nil {
		if _, isView := e.cat.Views[st.Table]; !isView {
			return nil, err
		}
	}
	if r.Privs[st.Table] == nil {
		r.Privs[st.Table] = map[string]bool{}
	}
	for _, p := range st.Privs {
		if st.Revoke {
			delete(r.Privs[st.Table], p)
		} else {
			r.Privs[st.Table][p] = true
		}
	}
	return e.ok("GRANT")
}

func (e *Engine) execSetRole(st *sqlast.SetRoleStmt) (*Result, error) {
	e.hit(pAuthSetRole)
	if strings.EqualFold(st.Role, "NONE") {
		e.sess.role = ""
		return e.ok("SET ROLE NONE")
	}
	if _, okr := e.cat.Roles[st.Role]; !okr {
		return nil, e.errValue("role %q does not exist", st.Role)
	}
	e.sess.role = st.Role
	return e.ok("SET ROLE")
}

// --- TCL ----------------------------------------------------------------

func (e *Engine) execTxn(st *sqlast.TxnStmt) (*Result, error) {
	switch st.What {
	case sqlt.Begin:
		e.hit(pTxnBegin)
		if e.inTxn() {
			e.hit(pTxnBeginNested)
			return nil, e.errValue("a transaction is already in progress")
		}
		e.txnStack = []*Catalog{e.snapshot(e.cat)}
		e.spNames = []string{""}
		return e.ok("BEGIN")
	case sqlt.Commit:
		e.hit(pTxnCommit)
		if !e.inTxn() {
			e.hit(pTxnCommitNoTxn)
			return nil, e.errValue("no transaction in progress")
		}
		e.txnStack = nil
		e.spNames = nil
		return e.ok("COMMIT")
	case sqlt.Rollback:
		e.hit(pTxnRollback)
		if !e.inTxn() {
			e.hit(pTxnRollbackNoTxn)
			return nil, e.errValue("no transaction in progress")
		}
		e.cat = e.txnStack[0]
		e.txnStack = nil
		e.spNames = nil
		return e.ok("ROLLBACK")
	case sqlt.Savepoint:
		e.hit(pTxnSavepoint)
		if !e.inTxn() {
			return nil, e.errValue("SAVEPOINT requires a transaction")
		}
		e.txnStack = append(e.txnStack, e.snapshot(e.cat))
		e.spNames = append(e.spNames, st.Name)
		return e.ok("SAVEPOINT")
	case sqlt.ReleaseSavepoint:
		e.hit(pTxnRelease)
		i := e.findSavepoint(st.Name)
		if i < 0 {
			return nil, e.errValue("savepoint %q does not exist", st.Name)
		}
		e.txnStack = e.txnStack[:i]
		e.spNames = e.spNames[:i]
		return e.ok("RELEASE")
	default: // RollbackToSavepoint
		e.hit(pTxnRollbackTo)
		i := e.findSavepoint(st.Name)
		if i < 0 {
			return nil, e.errValue("savepoint %q does not exist", st.Name)
		}
		e.cat = e.snapshot(e.txnStack[i])
		e.txnStack = e.txnStack[:i+1]
		e.spNames = e.spNames[:i+1]
		return e.ok("ROLLBACK TO")
	}
}

func (e *Engine) findSavepoint(name string) int {
	for i := len(e.spNames) - 1; i >= 1; i-- {
		if e.spNames[i] == name {
			return i
		}
	}
	return -1
}

func (e *Engine) execSetTransaction(st *sqlast.SetTransactionStmt) (*Result, error) {
	e.hit(pTxnIsolation)
	switch st.Mode {
	case "READ COMMITTED", "READ UNCOMMITTED", "REPEATABLE READ", "SERIALIZABLE":
		e.sess.isolation = st.Mode
		return e.ok("SET TRANSACTION")
	default:
		return nil, e.errValue("unknown isolation level %q", st.Mode)
	}
}

func (e *Engine) execLockTable(st *sqlast.LockTableStmt) (*Result, error) {
	e.hit(pLockTable)
	t, err := e.lookTable(st.Table)
	if err != nil {
		return nil, err
	}
	if t.locked != "" {
		e.hit(pLockConflict)
	}
	mode := st.Mode
	if mode == "" {
		mode = "EXCLUSIVE"
	}
	t.locked = mode
	return e.ok("LOCK")
}

// --- session -------------------------------------------------------------

func (e *Engine) execSetVar(st *sqlast.SetVarStmt) (*Result, error) {
	e.hit(pSetVar)
	v, err := e.eval(st.Value, emptyScope, 0)
	if err != nil {
		return nil, err
	}
	name := strings.ToLower(st.Name)
	if st.Global {
		e.hit(pSetVarGlobal)
		e.sess.globals[name] = v
	} else {
		e.sess.vars[name] = v
	}
	return e.ok("SET")
}

func (e *Engine) execResetVar(st *sqlast.ResetVarStmt) (*Result, error) {
	e.hit(pResetVar)
	delete(e.sess.vars, strings.ToLower(st.Name))
	return e.ok("RESET")
}

func (e *Engine) execPragma(st *sqlast.PragmaStmt) (*Result, error) {
	e.hit(pPragma)
	name := strings.ToLower(st.Name)
	if st.Value == nil {
		v, exists := e.sess.vars["pragma."+name]
		if !exists {
			v = Null()
		}
		return e.result(Result{Cols: []string{name}, Rows: [][]Value{{v}}}), nil
	}
	v, err := e.eval(st.Value, emptyScope, 0)
	if err != nil {
		return nil, err
	}
	e.sess.vars["pragma."+name] = v
	return e.ok("PRAGMA")
}

func (e *Engine) execUse(st *sqlast.UseStmt) (*Result, error) {
	e.hit(pUseDB)
	if !e.cat.Databases[st.DB] {
		return nil, e.errValue("database %q does not exist", st.DB)
	}
	e.sess.curDB = st.DB
	return e.ok("USE")
}

func (e *Engine) execAnalyze(st *sqlast.AnalyzeStmt) (*Result, error) {
	e.hit(pStorageAnalyze)
	if st.Table != "" {
		t, err := e.lookTable(st.Table)
		if err != nil {
			return nil, err
		}
		t.analyzed = true
		return e.ok("ANALYZE")
	}
	for _, n := range e.cat.tableNames() {
		e.cat.Tables[n].analyzed = true
	}
	return e.ok("ANALYZE")
}

func (e *Engine) execVacuum(st *sqlast.VacuumStmt) (*Result, error) {
	e.hit(pStorageVacuum)
	if st.Full {
		e.hit(pStorageVacFull)
	}
	compact := func(t *Table) {
		if len(t.Rows) > 0 {
			e.hit(pStorageCompact)
			// re-pack rows (drops spare capacity)
			packed := make([][]Value, len(t.Rows))
			copy(packed, t.Rows)
			t.Rows = packed
		}
	}
	if st.Table != "" {
		t, err := e.lookTable(st.Table)
		if err != nil {
			return nil, err
		}
		compact(t)
		return e.ok("VACUUM")
	}
	for _, n := range e.cat.tableNames() {
		compact(e.cat.Tables[n])
	}
	return e.ok("VACUUM")
}

func (e *Engine) execMaintenance(st *sqlast.MaintenanceStmt) (*Result, error) {
	t, err := e.lookTable(st.Table)
	if err != nil {
		return nil, err
	}
	if st.What == sqlt.OptimizeTable {
		e.hit(pStorageOptimize)
		packed := make([][]Value, len(t.Rows))
		copy(packed, t.Rows)
		t.Rows = packed
		t.analyzed = true
		return e.ok("OPTIMIZE")
	}
	e.hit(pStorageCheck)
	// CHECK TABLE verifies unique invariants.
	for ci := range t.Cols {
		if !t.Cols[ci].Unique {
			continue
		}
		seen := map[string]bool{}
		for _, row := range t.Rows {
			if row[ci].IsNull() {
				continue
			}
			k := row[ci].Key()
			if seen[k] {
				return e.result(Result{Msg: "CHECK: corrupt"}), nil
			}
			seen[k] = true
		}
	}
	return e.result(Result{Msg: "CHECK: OK"}), nil
}

func (e *Engine) execFlush(st *sqlast.FlushStmt) (*Result, error) {
	e.hit(pStorageFlush)
	switch st.What {
	case "TABLES", "LOGS", "PRIVILEGES", "STATUS":
		return e.ok("FLUSH")
	default:
		return nil, e.errValue("unknown FLUSH target %q", st.What)
	}
}

func (e *Engine) execCheckpoint(*sqlast.CheckpointStmt) (*Result, error) {
	e.hit(pStorageCheckpoint)
	return e.ok("CHECKPOINT")
}

func (e *Engine) execDiscard(st *sqlast.DiscardStmt) (*Result, error) {
	e.hit(pDiscard)
	switch st.What {
	case "ALL":
		clear(e.sess.vars)
		clear(e.sess.prepared)
		clear(e.sess.cursors)
		for n, t := range e.cat.Tables {
			if t.Temp {
				delete(e.cat.Tables, n)
			}
		}
	case "PLANS":
		// plan cache is virtual; nothing to do
	case "TEMP":
		for n, t := range e.cat.Tables {
			if t.Temp {
				delete(e.cat.Tables, n)
			}
		}
	case "SEQUENCES":
		for _, s := range e.cat.Sequences {
			s.Val = 0
		}
	default:
		return nil, e.errValue("unknown DISCARD target %q", st.What)
	}
	return e.ok("DISCARD")
}

func (e *Engine) execPrepare(st *sqlast.PrepareStmt) (*Result, error) {
	e.hit(pPrepare)
	if _, exists := e.sess.prepared[st.Name]; exists {
		return nil, e.errValue("prepared statement %q already exists", st.Name)
	}
	e.sess.prepared[st.Name] = st.Stmt
	return e.ok("PREPARE")
}

func (e *Engine) execExecute(st *sqlast.ExecuteStmt) (*Result, error) {
	e.hit(pExecPrepared)
	s, exists := e.sess.prepared[st.Name]
	if !exists {
		return nil, e.errValue("prepared statement %q does not exist", st.Name)
	}
	if e.triggerDepth >= e.limits.MaxTriggerDepth {
		e.hit(pTriggerDepthCap)
		return e.ok("EXECUTE (depth cap)")
	}
	e.triggerDepth++
	defer func() { e.triggerDepth-- }()
	return e.dispatch(s)
}

func (e *Engine) execDeallocate(st *sqlast.DeallocateStmt) (*Result, error) {
	e.hit(pDeallocate)
	if _, exists := e.sess.prepared[st.Name]; !exists {
		return nil, e.errValue("prepared statement %q does not exist", st.Name)
	}
	delete(e.sess.prepared, st.Name)
	return e.ok("DEALLOCATE")
}

func (e *Engine) execDeclareCursor(st *sqlast.DeclareCursorStmt) (*Result, error) {
	e.hit(pDeclareCursor)
	if _, exists := e.sess.cursors[st.Name]; exists {
		return nil, e.errValue("cursor %q already exists", st.Name)
	}
	rows, _, err := e.execSelect(st.Query, nil, 0)
	if err != nil {
		return nil, err
	}
	e.sess.cursors[st.Name] = &cursor{name: st.Name, rows: rows}
	return e.ok("DECLARE CURSOR")
}

func (e *Engine) execFetch(st *sqlast.FetchStmt) (*Result, error) {
	e.hit(pFetch)
	c, exists := e.sess.cursors[st.Cursor]
	if !exists {
		return nil, e.errValue("cursor %q does not exist", st.Cursor)
	}
	n := int(st.Count)
	if n <= 0 {
		n = 1
	}
	var rows [][]Value
	for i := 0; i < n && c.pos < len(c.rows); i++ {
		rows = append(rows, c.rows[c.pos])
		c.pos++
	}
	if c.pos >= len(c.rows) {
		e.hit(pFetchExhaust)
	}
	return e.result(Result{Rows: rows, Msg: "FETCH"}), nil
}

func (e *Engine) execCloseCursor(st *sqlast.CloseCursorStmt) (*Result, error) {
	e.hit(pCloseCursor)
	if _, exists := e.sess.cursors[st.Name]; !exists {
		return nil, e.errValue("cursor %q does not exist", st.Name)
	}
	delete(e.sess.cursors, st.Name)
	return e.ok("CLOSE")
}

func (e *Engine) execListen(st *sqlast.ListenStmt) (*Result, error) {
	e.hit(pListen)
	e.sess.listening[st.Channel] = true
	return e.ok("LISTEN")
}

func (e *Engine) execNotify(st *sqlast.NotifyStmt) (*Result, error) {
	e.hit(pNotify)
	if e.sess.listening[st.Channel] {
		e.hit(pNotifyDeliver)
		e.sess.notices = append(e.sess.notices, st.Channel+":"+st.Payload)
	}
	return e.ok("NOTIFY")
}

func (e *Engine) execUnlisten(st *sqlast.UnlistenStmt) (*Result, error) {
	e.hit(pUnlisten)
	if st.Channel == "*" {
		clear(e.sess.listening)
	} else {
		delete(e.sess.listening, st.Channel)
	}
	return e.ok("UNLISTEN")
}

func (e *Engine) execCluster(st *sqlast.ClusterStmt) (*Result, error) {
	e.hit(pStorageCluster)
	t, err := e.lookTable(st.Table)
	if err != nil {
		return nil, err
	}
	var cols []string
	if st.Index != "" {
		ix, exists := e.cat.Indexes[st.Index]
		if !exists || ix.Table != st.Table {
			return nil, e.errValue("index %q does not exist on %q", st.Index, st.Table)
		}
		cols = ix.Cols
		t.clusteredBy = st.Index
	} else if t.clusteredBy != "" {
		if ix, exists := e.cat.Indexes[t.clusteredBy]; exists {
			cols = ix.Cols
		}
	} else {
		return nil, e.errValue("table %q has no clustering index", st.Table)
	}
	// physically sort rows by the index columns
	cidx := make([]int, 0, len(cols))
	for _, cn := range cols {
		ci := t.colIndex(cn)
		if ci >= 0 {
			cidx = append(cidx, ci)
		}
	}
	sort.SliceStable(t.Rows, func(a, b int) bool {
		for _, ci := range cidx {
			c := Compare(t.Rows[a][ci], t.Rows[b][ci])
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return e.ok("CLUSTER")
}
