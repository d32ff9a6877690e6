package instantiate

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Fixer repairs cross-statement dependencies in a test case: it walks the
// statements in order, simulating the schema they build, and rewrites
// dangling object references (tables, columns, indexes, prepared statements,
// cursors, ...) to objects that exist at that point. This is the
// "validation" step of paper §III-B: "the dependencies between different
// data are analyzed, and the AST will be filled with concrete values that
// satisfy all dependencies."
//
// The fix is best-effort by design: a fraction of semantic errors is useful
// to fuzzing (error-handling paths are code too), so unresolvable
// references are left in place rather than deleted.
//
// Fix never writes a statement its caller does not own. Every repair calls
// own before it draws from Rng, takes a fresh name or writes a field; on a
// shared statement own abandons the pass, and Fix repeats it on a clone.
// The abandoned pass drew nothing and recorded nothing in the simulated
// schema, so the repeat makes exactly the draws and repairs the first pass
// would have made.
type Fixer struct {
	Rng *rand.Rand

	sch    simSchema // reset by every Fix
	shared bool      // the statement being fixed is not the caller's to write
}

// NewFixer returns a fixer.
func NewFixer(rng *rand.Rand) *Fixer { return &Fixer{Rng: rng} }

// simSchema is the simulated catalog built while walking the test case.
type simSchema struct {
	tables  map[string][]string // table -> columns
	names   []string            // the keys of tables, sorted: pickTable's draw order
	views   []string
	indexes []string
	trigs   []string
	seqs    []string
	funcs   []string
	procs   []string
	rules   []string
	roles   []string
	preps   []string
	cursors []string
	saves   []string
	fresh   int
}

// reset empties the schema in place, keeping its storage.
func (s *simSchema) reset() {
	if s.tables == nil {
		s.tables = map[string][]string{}
	}
	clear(s.tables)
	s.names = s.names[:0]
	s.views = s.views[:0]
	s.indexes = s.indexes[:0]
	s.trigs = s.trigs[:0]
	s.seqs = s.seqs[:0]
	s.funcs = s.funcs[:0]
	s.procs = s.procs[:0]
	s.rules = s.rules[:0]
	s.roles = s.roles[:0]
	s.preps = s.preps[:0]
	s.cursors = s.cursors[:0]
	s.saves = s.saves[:0]
	s.fresh = 0
}

// setTable records a table's columns, adding its name to names when new.
func (s *simSchema) setTable(name string, cols []string) {
	if _, exists := s.tables[name]; !exists {
		i := sort.SearchStrings(s.names, name)
		s.names = slices.Insert(s.names, i, name)
	}
	s.tables[name] = cols
}

// dropTable forgets a table, if it exists.
func (s *simSchema) dropTable(name string) {
	if _, exists := s.tables[name]; exists {
		delete(s.tables, name)
		i := sort.SearchStrings(s.names, name)
		s.names = slices.Delete(s.names, i, i+1)
	}
}

// renameTable moves a table's columns to a new name, if it exists.
func (s *simSchema) renameTable(from, to string) {
	if c, exists := s.tables[from]; exists {
		s.dropTable(from)
		s.setTable(to, c)
	}
}

// colsOf returns the simulated columns of a table ("" yields nil).
func (s *simSchema) colsOf(name string) []string { return s.tables[name] }

func hasStr(ss []string, v string) bool {
	for _, s := range ss {
		if s == v {
			return true
		}
	}
	return false
}

func dropStr(ss []string, v string) []string {
	out := ss[:0]
	for _, s := range ss {
		if s != v {
			out = append(out, s)
		}
	}
	return out
}

// Fix repairs the test case. owned lists the indexes of the statements the
// caller owns, which Fix repairs in place. Every other statement is shared
// (a pool seed's or a library entry's) and frozen: when one needs a repair,
// Fix puts a clone in its slot of tc and repairs the clone.
func (f *Fixer) Fix(tc sqlast.TestCase, owned ...int) {
	f.sch.reset()
	for i, s := range tc {
		if slices.Contains(owned, i) {
			f.shared = false
			f.fixStmt(s)
		} else if !f.fixShared(s) {
			tc[i] = s.Clone()
			f.shared = false
			f.fixStmt(tc[i])
		}
	}
}

// abandon is the panic value by which own stops a pass over a shared
// statement; fixShared recovers it.
type abandon struct{}

// own must precede every RNG draw, fresh name and field write of a repair.
// On a shared statement it abandons the pass before any of them happens.
func (f *Fixer) own() {
	if f.shared {
		panic(abandon{})
	}
}

// fixShared runs the pass over a shared statement and reports whether it
// finished, which it does only when the statement needs no repair.
func (f *Fixer) fixShared(s sqlast.Statement) (finished bool) {
	f.shared = true
	defer func() {
		if !finished {
			if r := recover(); r != (abandon{}) {
				panic(r)
			}
		}
	}()
	f.fixStmt(s)
	return true
}

// pick draws one of ss, or returns "" without drawing when ss is empty.
func (f *Fixer) pick(ss []string) string {
	if len(ss) == 0 {
		return ""
	}
	f.own()
	return ss[f.Rng.Intn(len(ss))]
}

// freshName returns a name no earlier fresh name has.
func (f *Fixer) freshName(prefix string) string {
	f.own()
	f.sch.fresh++
	return prefix + "_" + strconv.Itoa(f.sch.fresh)
}

// pickTable returns an existing table (preferring tables, falling back to
// views), or "" when none exist.
func (f *Fixer) pickTable() string {
	if len(f.sch.names) > 0 {
		return f.pick(f.sch.names)
	}
	return f.pick(f.sch.views)
}

// fixTableRef repairs a table name reference that names no table, view or
// extra (CTE) name, leaving it when no table exists to repair to.
func (f *Fixer) fixTableRef(name *string, extra []string) {
	if _, ok := f.sch.tables[*name]; ok || hasStr(f.sch.views, *name) || hasStr(extra, *name) {
		return
	}
	if t := f.pickTable(); t != "" {
		*name = t
	}
}

// fixCols rewrites column references in *x that are not in allowed to
// random allowed columns, recursing into scalar subqueries.
func (f *Fixer) fixCols(x *sqlast.Expr, allowed, ctes []string) {
	n := sqlast.RewriteExpr(*x, func(n sqlast.Expr) sqlast.Expr {
		switch v := n.(type) {
		case *sqlast.ColRef:
			if v.Name == "VALUE" { // domain pseudo-column
				return v
			}
			if hasStr(allowed, v.Name) {
				return v
			}
			if len(allowed) > 0 {
				return &sqlast.ColRef{Name: f.pick(allowed)}
			}
			return v
		case *sqlast.Subquery:
			f.fixSelect(v.Query, ctes)
		case *sqlast.ExistsExpr:
			f.fixSelect(v.Query, ctes)
		case *sqlast.InExpr:
			if v.Query != nil {
				f.fixSelect(v.Query, ctes)
			}
		}
		return n
	})
	if n != *x { // a new root passed own
		*x = n
	}
}

// fixSelect repairs a query: FROM references first, then column references
// against the union of referenced tables' columns.
func (f *Fixer) fixSelect(q *sqlast.SelectStmt, ctes []string) []string {
	if q == nil {
		return nil
	}
	var allowed []string
	var fixRef func(r sqlast.TableRef)
	fixRef = func(r sqlast.TableRef) {
		switch v := r.(type) {
		case *sqlast.BaseTable:
			f.fixTableRef(&v.Name, ctes)
			allowed = append(allowed, f.sch.colsOf(v.Name)...)
		case *sqlast.JoinRef:
			fixRef(v.L)
			fixRef(v.R)
		case *sqlast.SubqueryRef:
			inner := f.fixSelect(v.Query, ctes)
			allowed = append(allowed, inner...)
		}
	}
	for _, r := range q.From {
		fixRef(r)
	}
	// join ON conditions may reference alias-qualified columns; fix after
	// collecting allowed columns
	var fixOn func(r sqlast.TableRef)
	fixOn = func(r sqlast.TableRef) {
		if j, ok := r.(*sqlast.JoinRef); ok {
			fixOn(j.L)
			fixOn(j.R)
			if j.On != nil {
				f.fixQualifiedCols(&j.On, allowed)
			}
		}
	}
	for _, r := range q.From {
		fixOn(r)
	}

	for i := range q.Items {
		if _, isStar := q.Items[i].X.(*sqlast.Star); isStar {
			continue
		}
		f.fixCols(&q.Items[i].X, allowed, ctes)
	}
	f.fixCols(&q.Where, allowed, ctes)
	for i := range q.GroupBy {
		f.fixCols(&q.GroupBy[i], allowed, ctes)
	}
	f.fixCols(&q.Having, allowed, ctes)
	for i := range q.OrderBy {
		f.fixCols(&q.OrderBy[i].X, allowed, ctes)
	}
	if q.Right != nil {
		f.fixSelect(q.Right, ctes)
	}
	// result columns: projection names (approximate: allowed columns)
	return allowed
}

// fixQualifiedCols keeps valid alias-qualified refs in *x and repairs the
// rest.
func (f *Fixer) fixQualifiedCols(x *sqlast.Expr, allowed []string) {
	n := sqlast.RewriteExpr(*x, func(n sqlast.Expr) sqlast.Expr {
		if v, ok := n.(*sqlast.ColRef); ok {
			if hasStr(allowed, v.Name) {
				return v
			}
			if len(allowed) > 0 {
				return &sqlast.ColRef{Table: v.Table, Name: f.pick(allowed)}
			}
		}
		return n
	})
	if n != *x { // a new root passed own
		*x = n
	}
}

// fixStmt repairs one statement against the schema the statements before
// it built, then records what the statement creates, drops or renames.
// Within a pass, nothing is recorded before a step that may still call own
// (WITH owns up front when a CTE body may record).
func (f *Fixer) fixStmt(stmt sqlast.Statement) {
	sch := &f.sch
	switch st := stmt.(type) {
	case *sqlast.CreateTableStmt:
		if hasForeignKey(st) {
			f.own() // every REFERENCES and FOREIGN KEY is rewritten
		}
		if _, exists := sch.tables[st.Name]; exists && !st.IfNotExists {
			st.Name = f.freshName("t")
		}
		cols := make([]string, 0, len(st.Cols))
		for i := range st.Cols {
			c := &st.Cols[i]
			cols = append(cols, c.Name)
			if c.References != nil {
				if ref := f.pickTable(); ref == "" {
					c.References = nil
				} else {
					c.References.Table = ref
					c.References.Column = ""
					if refCols := sch.colsOf(ref); len(refCols) > 0 {
						c.References.Column = refCols[0]
					}
				}
			}
			if c.Check != nil {
				f.fixCols(&c.Check, cols, nil)
			}
		}
		for i := range st.Constraints {
			c := &st.Constraints[i]
			if len(cols) > 0 { // a table without columns leaves them be
				for j := range c.Columns {
					if !hasStr(cols, c.Columns[j]) {
						c.Columns[j] = f.pick(cols)
					}
				}
			}
			if c.Check != nil {
				f.fixCols(&c.Check, cols, nil)
			}
			if c.Kind == "FOREIGN KEY" {
				c.RefTab = st.Name
				if ref := f.pickTable(); ref != "" {
					c.RefTab = ref
				}
				c.RefCols = nil
			}
		}
		sch.setTable(st.Name, cols)

	case *sqlast.CreateViewStmt:
		if hasStr(sch.views, st.Name) && !st.OrReplace {
			st.Name = f.freshName("w")
		}
		f.fixSelect(st.Query, nil)
		if !hasStr(sch.views, st.Name) {
			sch.views = append(sch.views, st.Name)
		}

	case *sqlast.CreateIndexStmt:
		if hasStr(sch.indexes, st.Name) {
			st.Name = f.freshName("i")
		}
		f.fixTableRef(&st.Table, nil)
		if cols := sch.colsOf(st.Table); len(cols) > 0 {
			for i := range st.Cols {
				if !hasStr(cols, st.Cols[i]) {
					st.Cols[i] = f.pick(cols)
				}
			}
		}
		sch.indexes = append(sch.indexes, st.Name)

	case *sqlast.CreateTriggerStmt:
		if hasStr(sch.trigs, st.Name) {
			st.Name = f.freshName("tg")
		}
		f.fixTableRef(&st.Table, nil)
		f.fixStmt(st.Body)
		sch.trigs = append(sch.trigs, st.Name)

	case *sqlast.CreateSequenceStmt:
		if hasStr(sch.seqs, st.Name) {
			st.Name = f.freshName("s")
		}
		sch.seqs = append(sch.seqs, st.Name)

	case *sqlast.CreateFunctionStmt:
		if hasStr(sch.funcs, st.Name) {
			st.Name = f.freshName("f")
		}
		f.fixCols(&st.Body, st.Params, nil)
		sch.funcs = append(sch.funcs, st.Name)

	case *sqlast.CreateProcedureStmt:
		if hasStr(sch.procs, st.Name) {
			st.Name = f.freshName("pr")
		}
		f.fixStmt(st.Body)
		sch.procs = append(sch.procs, st.Name)

	case *sqlast.CreateRuleStmt:
		if hasStr(sch.rules, st.Name) && !st.OrReplace {
			st.Name = f.freshName("r")
		}
		f.fixTableRef(&st.Table, nil)
		if st.Action != nil {
			f.fixStmt(st.Action)
		}
		if !hasStr(sch.rules, st.Name) {
			sch.rules = append(sch.rules, st.Name)
		}

	case *sqlast.CreateRoleStmt:
		if hasStr(sch.roles, st.Name) {
			st.Name = f.freshName("u")
		}
		sch.roles = append(sch.roles, st.Name)

	case *sqlast.AlterTableStmt:
		f.fixTableRef(&st.Table, nil)
		cols := sch.colsOf(st.Table)
		switch st.Action {
		case sqlast.AlterAddColumn:
			if hasStr(cols, st.Col.Name) {
				st.Col.Name = f.freshName("c")
			}
			if st.Col.NotNull { // avoid guaranteed failure on non-empty tables
				f.own()
				st.Col.NotNull = false
			}
			if _, exists := sch.tables[st.Table]; exists {
				sch.tables[st.Table] = append(cols, st.Col.Name)
			}
		case sqlast.AlterDropColumn:
			if len(cols) > 1 {
				if !hasStr(cols, st.OldName) {
					st.OldName = f.pick(cols)
				}
				sch.tables[st.Table] = dropStr(append([]string{}, cols...), st.OldName)
			}
		case sqlast.AlterRenameColumn:
			if len(cols) > 0 {
				if !hasStr(cols, st.OldName) {
					st.OldName = f.pick(cols)
				}
				if hasStr(cols, st.NewName) {
					st.NewName = f.freshName("c")
				}
				nc := append([]string{}, cols...)
				for i := range nc {
					if nc[i] == st.OldName {
						nc[i] = st.NewName
					}
				}
				sch.tables[st.Table] = nc
			}
		case sqlast.AlterRenameTable:
			if _, exists := sch.tables[st.NewName]; exists {
				st.NewName = f.freshName("t")
			}
			sch.renameTable(st.Table, st.NewName)
		case sqlast.AlterColumnType, sqlast.AlterColumnDefault:
			if len(cols) > 0 && !hasStr(cols, st.Col.Name) {
				st.Col.Name = f.pick(cols)
			}
		}

	case *sqlast.AlterSimpleStmt:
		switch st.What {
		case sqlt.AlterView:
			if n := f.pick(sch.views); n != "" {
				st.Name = n
			}
			if hasStr(sch.views, st.NewName) {
				st.NewName = f.freshName("w")
			}
		case sqlt.AlterIndex:
			if n := f.pick(sch.indexes); n != "" {
				st.Name = n
			}
			if hasStr(sch.indexes, st.NewName) {
				st.NewName = f.freshName("i")
			}
		case sqlt.AlterSequence:
			if n := f.pick(sch.seqs); n != "" {
				st.Name = n
			}
		case sqlt.AlterRole:
			if n := f.pick(sch.roles); n != "" {
				st.Name = n
			}
		}

	case *sqlast.DropStmt:
		switch st.What {
		case sqlt.DropTable:
			if len(sch.names) > 0 {
				if _, exists := sch.tables[st.Name]; !exists {
					st.Name = f.pick(sch.names)
				}
				sch.dropTable(st.Name)
			}
		case sqlt.DropView, sqlt.DropMaterializedView:
			f.fixDropName(&st.Name, sch.views)
			sch.views = dropStr(sch.views, st.Name)
		case sqlt.DropIndex:
			f.fixDropName(&st.Name, sch.indexes)
			sch.indexes = dropStr(sch.indexes, st.Name)
		case sqlt.DropTrigger:
			f.fixDropName(&st.Name, sch.trigs)
			sch.trigs = dropStr(sch.trigs, st.Name)
		case sqlt.DropSequence:
			f.fixDropName(&st.Name, sch.seqs)
			sch.seqs = dropStr(sch.seqs, st.Name)
		case sqlt.DropFunction:
			f.fixDropName(&st.Name, sch.funcs)
			sch.funcs = dropStr(sch.funcs, st.Name)
		case sqlt.DropProcedure:
			f.fixDropName(&st.Name, sch.procs)
			sch.procs = dropStr(sch.procs, st.Name)
		case sqlt.DropRule:
			f.fixDropName(&st.Name, sch.rules)
			sch.rules = dropStr(sch.rules, st.Name)
		case sqlt.DropRole, sqlt.DropUser:
			f.fixDropName(&st.Name, sch.roles)
			sch.roles = dropStr(sch.roles, st.Name)
		}

	case *sqlast.RenameTableStmt:
		f.fixTableRef(&st.From, nil)
		if _, exists := sch.tables[st.To]; exists {
			st.To = f.freshName("t")
		}
		sch.renameTable(st.From, st.To)

	case *sqlast.TruncateStmt:
		f.fixTableRef(&st.Table, nil)

	case *sqlast.CommentOnStmt:
		if st.ObjectKind == "TABLE" {
			f.fixTableRef(&st.Name, nil)
		}

	case *sqlast.ReindexStmt:
		if st.Kind == "INDEX" {
			if n := f.pick(sch.indexes); n != "" {
				st.Name = n
			}
		} else {
			f.fixTableRef(&st.Name, nil)
		}

	case *sqlast.RefreshMatViewStmt:
		if n := f.pick(sch.views); n != "" {
			st.Name = n
		}

	case *sqlast.InsertStmt:
		f.fixTableRef(&st.Table, nil)
		cols := sch.colsOf(st.Table)
		if len(cols) > 0 {
			// drop the explicit column list and repair row arity
			if st.Cols != nil {
				f.own()
				st.Cols = nil
			}
			for i, row := range st.Rows {
				if len(row) == len(cols) {
					continue
				}
				f.own()
				for len(row) < len(cols) {
					row = append(row, sqlast.NullLit())
				}
				st.Rows[i] = row[:len(cols)]
			}
		}
		if st.Query != nil {
			f.fixSelect(st.Query, nil)
		}
		for i := range st.Returning {
			f.fixCols(&st.Returning[i], cols, nil)
		}

	case *sqlast.UpdateStmt:
		f.fixTableRef(&st.Table, nil)
		cols := sch.colsOf(st.Table)
		if len(cols) > 0 {
			for i := range st.Sets {
				if !hasStr(cols, st.Sets[i].Col) {
					st.Sets[i].Col = f.pick(cols)
				}
				f.fixCols(&st.Sets[i].Value, cols, nil)
			}
		}
		f.fixCols(&st.Where, cols, nil)
		for i := range st.OrderBy {
			f.fixCols(&st.OrderBy[i].X, cols, nil)
		}

	case *sqlast.DeleteStmt:
		f.fixTableRef(&st.Table, nil)
		cols := sch.colsOf(st.Table)
		f.fixCols(&st.Where, cols, nil)
		for i := range st.OrderBy {
			f.fixCols(&st.OrderBy[i].X, cols, nil)
		}
		for i := range st.Returning {
			f.fixCols(&st.Returning[i], cols, nil)
		}

	case *sqlast.MergeStmt:
		f.fixTableRef(&st.Target, nil)
		f.fixTableRef(&st.Source, nil)
		tcols := sch.colsOf(st.Target)
		allowed := append(append([]string{}, tcols...), sch.colsOf(st.Source)...)
		f.fixCols(&st.On, allowed, nil)
		for i := range st.MatchedSet {
			if len(tcols) > 0 && !hasStr(tcols, st.MatchedSet[i].Col) {
				st.MatchedSet[i].Col = f.pick(tcols)
			}
			f.fixCols(&st.MatchedSet[i].Value, allowed, nil)
		}
		if st.NotMatchedVals != nil && len(tcols) > 0 && len(st.NotMatchedVals) != len(tcols) {
			f.own()
			for len(st.NotMatchedVals) < len(tcols) {
				st.NotMatchedVals = append(st.NotMatchedVals, sqlast.NullLit())
			}
			st.NotMatchedVals = st.NotMatchedVals[:len(tcols)]
		}

	case *sqlast.CopyStmt:
		if st.Query != nil {
			f.fixSelect(st.Query, nil)
		} else {
			f.fixTableRef(&st.Table, nil)
		}

	case *sqlast.LoadDataStmt:
		f.fixTableRef(&st.Table, nil)

	case *sqlast.CallStmt:
		if n := f.pick(sch.procs); n != "" {
			st.Name = n
		}

	case *sqlast.SelectStmt:
		f.fixSelect(st, nil)
		if st.Into != "" {
			if _, exists := sch.tables[st.Into]; exists {
				st.Into = f.freshName("t")
			}
			sch.setTable(st.Into, nil)
		}

	case *sqlast.TableStmtNode:
		f.fixTableRef(&st.Name, nil)

	case *sqlast.WithStmt:
		var ctes []string
		for i := range st.CTEs {
			if _, isSel := st.CTEs[i].Body.(*sqlast.SelectStmt); !isSel {
				f.own() // a writable CTE's fix may record before a later repair
				break
			}
		}
		for i := range st.CTEs {
			if sel, isSel := st.CTEs[i].Body.(*sqlast.SelectStmt); isSel {
				f.fixSelect(sel, ctes)
			} else {
				f.fixStmt(st.CTEs[i].Body)
			}
			ctes = append(ctes, st.CTEs[i].Name)
		}
		if sel, isSel := st.Body.(*sqlast.SelectStmt); isSel {
			f.fixSelect(sel, ctes)
		} else {
			f.fixStmt(st.Body)
		}

	case *sqlast.ExplainStmt:
		f.fixStmt(st.Stmt)

	case *sqlast.DescribeStmt:
		f.fixTableRef(&st.Table, nil)

	case *sqlast.GrantStmt:
		f.fixTableRef(&st.Table, nil)
		if n := f.pick(sch.roles); n != "" {
			st.Role = n
		}

	case *sqlast.SetRoleStmt:
		if st.Role != "NONE" {
			f.own() // the role is always rewritten
			st.Role = "NONE"
			if n := f.pick(sch.roles); n != "" {
				st.Role = n
			}
		}

	case *sqlast.TxnStmt:
		switch st.What {
		case sqlt.Savepoint:
			sch.saves = append(sch.saves, st.Name)
		case sqlt.ReleaseSavepoint, sqlt.RollbackToSavepoint:
			if n := f.pick(sch.saves); n != "" {
				st.Name = n
			}
		}

	case *sqlast.LockTableStmt:
		f.fixTableRef(&st.Table, nil)

	case *sqlast.AnalyzeStmt:
		if st.Table != "" {
			f.fixTableRef(&st.Table, nil)
		}

	case *sqlast.VacuumStmt:
		if st.Table != "" {
			f.fixTableRef(&st.Table, nil)
		}

	case *sqlast.MaintenanceStmt:
		f.fixTableRef(&st.Table, nil)

	case *sqlast.PrepareStmt:
		if hasStr(sch.preps, st.Name) {
			st.Name = f.freshName("q")
		}
		f.fixStmt(st.Stmt)
		sch.preps = append(sch.preps, st.Name)

	case *sqlast.ExecuteStmt:
		if n := f.pick(sch.preps); n != "" {
			st.Name = n
		}

	case *sqlast.DeallocateStmt:
		if n := f.pick(sch.preps); n != "" {
			st.Name = n
		}
		sch.preps = dropStr(sch.preps, st.Name)

	case *sqlast.DeclareCursorStmt:
		if hasStr(sch.cursors, st.Name) {
			st.Name = f.freshName("cur")
		}
		f.fixSelect(st.Query, nil)
		sch.cursors = append(sch.cursors, st.Name)

	case *sqlast.FetchStmt:
		if n := f.pick(sch.cursors); n != "" {
			st.Cursor = n
		}

	case *sqlast.CloseCursorStmt:
		if n := f.pick(sch.cursors); n != "" {
			st.Name = n
		}
		sch.cursors = dropStr(sch.cursors, st.Name)

	case *sqlast.ClusterStmt:
		f.fixTableRef(&st.Table, nil)
		if n := f.pick(sch.indexes); n != "" {
			st.Index = n
		} else if st.Index != "" {
			f.own()
			st.Index = ""
		}
	}
}

// hasForeignKey reports whether a CREATE TABLE names another table, by a
// column's REFERENCES or a FOREIGN KEY constraint.
func hasForeignKey(st *sqlast.CreateTableStmt) bool {
	for i := range st.Cols {
		if st.Cols[i].References != nil {
			return true
		}
	}
	for i := range st.Constraints {
		if st.Constraints[i].Kind == "FOREIGN KEY" {
			return true
		}
	}
	return false
}

// fixDropName repairs the name a DROP names: the draw from live always
// happens when live has names, and the name changes only when it names
// none of them.
func (f *Fixer) fixDropName(name *string, live []string) {
	if n := f.pick(live); n != "" && !hasStr(live, *name) {
		*name = n
	}
}
