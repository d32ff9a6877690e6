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
// Fix never writes a statement its caller does not own, and fixes it in
// one pass all the same. A repair to a shared statement copies each node
// from the statement's root down to the field it writes (sqlast.Own), once
// per node, and links each copy into its parent's copy; subtrees the pass
// does not write, such as VALUES rows and unrepaired expressions, stay
// shared with the frozen original. The pass makes the same draws, repairs
// and schema records as fixing a full clone of the statement would.
type Fixer struct {
	Rng *rand.Rand

	sch    simSchema // reset by every Fix
	shared bool      // the statement being fixed is frozen: copy, don't write
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
// (a pool seed's or a library entry's) and frozen: a repair to one copies
// the nodes from the statement's root down to the field it writes, and Fix
// puts the copied root in the statement's slot of tc. The copy shares every
// subtree the pass did not write with the frozen original.
func (f *Fixer) Fix(tc sqlast.TestCase, owned ...int) {
	f.sch.reset()
	for i, s := range tc {
		f.shared = !slices.Contains(owned, i)
		tc[i] = f.fixStmt(s)
	}
}

// pick draws one of ss, or returns "" without drawing when ss is empty.
func (f *Fixer) pick(ss []string) string {
	if len(ss) == 0 {
		return ""
	}
	return ss[f.Rng.Intn(len(ss))]
}

// freshName returns a name no earlier fresh name has.
func (f *Fixer) freshName(prefix string) string {
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

// tableRef returns the repair of a table name reference: name itself when
// it names a table, view or extra (CTE) name, or when no table exists to
// repair to, else an existing table.
func (f *Fixer) tableRef(name string, extra []string) string {
	if _, ok := f.sch.tables[name]; ok || hasStr(f.sch.views, name) || hasStr(extra, name) {
		return name
	}
	if t := f.pickTable(); t != "" {
		return t
	}
	return name
}

// fixCols returns x with the column references that are not in allowed
// rewritten to random allowed columns, recursing into subqueries.
func (f *Fixer) fixCols(x sqlast.Expr, allowed, ctes []string) sqlast.Expr {
	if x == nil {
		return nil
	}
	query := func(q *sqlast.SelectStmt) *sqlast.SelectStmt {
		q, _ = f.fixSelect(q, ctes)
		return q
	}
	return sqlast.RewriteExprCopy(x, f.shared, query, func(n sqlast.Expr) sqlast.Expr {
		if v, ok := n.(*sqlast.ColRef); ok && v.Name != "VALUE" && // VALUE: the domain pseudo-column
			!hasStr(allowed, v.Name) && len(allowed) > 0 {
			return &sqlast.ColRef{Name: f.pick(allowed)}
		}
		return n
	})
}

// fixExprs applies fixCols to each expression of xs. On a shared
// statement the first repair copies xs, and fixExprs returns the copy and
// true; otherwise it repairs xs in place and returns false.
func (f *Fixer) fixExprs(xs []sqlast.Expr, allowed, ctes []string) ([]sqlast.Expr, bool) {
	return sqlast.OwnEach(xs, f.shared, func(x sqlast.Expr) sqlast.Expr {
		return f.fixCols(x, allowed, ctes)
	})
}

// fixOrder is fixExprs for ORDER BY items.
func (f *Fixer) fixOrder(os []sqlast.OrderItem, allowed, ctes []string) ([]sqlast.OrderItem, bool) {
	return sqlast.OwnEach(os, f.shared, func(o sqlast.OrderItem) sqlast.OrderItem {
		o.X = f.fixCols(o.X, allowed, ctes)
		return o
	})
}

// fixSets is fixExprs for SET assignments: a column that targets has not
// is repaired to one of them (when there are any), and each value is
// fixed against allowed.
func (f *Fixer) fixSets(as []sqlast.Assignment, targets, allowed []string) ([]sqlast.Assignment, bool) {
	return sqlast.OwnEach(as, f.shared, func(a sqlast.Assignment) sqlast.Assignment {
		if len(targets) > 0 && !hasStr(targets, a.Col) {
			a.Col = f.pick(targets)
		}
		a.Value = f.fixCols(a.Value, allowed, nil)
		return a
	})
}

// fixSelect repairs a query: FROM references first, then column references
// against the union of referenced tables' columns. It returns the query,
// or the copy it wrote of a shared one, and the columns it allowed.
func (f *Fixer) fixSelect(q *sqlast.SelectStmt, ctes []string) (*sqlast.SelectStmt, []string) {
	if q == nil {
		return nil, nil
	}
	fz := f.shared
	var allowed []string
	from := q.From // the references before any repair, for fixOn
	rs, fromCopied := sqlast.OwnEach(from, f.shared, func(r sqlast.TableRef) sqlast.TableRef {
		return f.fixRef(r, ctes, &allowed)
	})
	// join ON conditions may reference alias-qualified columns; fix after
	// collecting allowed columns
	i := -1
	rs, onCopied := sqlast.OwnEach(rs, f.shared && !fromCopied, func(r sqlast.TableRef) sqlast.TableRef {
		i++
		return f.fixOn(r, from[i], allowed)
	})
	if fromCopied || onCopied {
		sqlast.Own(&q, &fz).From = rs
	}

	if items, copied := sqlast.OwnEach(q.Items, f.shared, func(it sqlast.SelectItem) sqlast.SelectItem {
		if _, isStar := it.X.(*sqlast.Star); !isStar {
			it.X = f.fixCols(it.X, allowed, ctes)
		}
		return it
	}); copied {
		sqlast.Own(&q, &fz).Items = items
	}
	if n := f.fixCols(q.Where, allowed, ctes); n != q.Where {
		sqlast.Own(&q, &fz).Where = n
	}
	if xs, copied := f.fixExprs(q.GroupBy, allowed, ctes); copied {
		sqlast.Own(&q, &fz).GroupBy = xs
	}
	if n := f.fixCols(q.Having, allowed, ctes); n != q.Having {
		sqlast.Own(&q, &fz).Having = n
	}
	if os, copied := f.fixOrder(q.OrderBy, allowed, ctes); copied {
		sqlast.Own(&q, &fz).OrderBy = os
	}
	if r, _ := f.fixSelect(q.Right, ctes); r != q.Right {
		sqlast.Own(&q, &fz).Right = r
	}
	// result columns: projection names (approximate: allowed columns)
	return q, allowed
}

// fixRef repairs a FROM reference and adds the columns it brings to
// *allowed. It returns r, or the copy it wrote of a shared one.
func (f *Fixer) fixRef(r sqlast.TableRef, ctes []string, allowed *[]string) sqlast.TableRef {
	fz := f.shared
	//lego:exhaustive TableRef
	switch v := r.(type) {
	case *sqlast.BaseTable:
		if t := f.tableRef(v.Name, ctes); t != v.Name {
			sqlast.Own(&v, &fz).Name = t
		}
		if cols := f.sch.colsOf(v.Name); len(*allowed) == 0 {
			*allowed = slices.Clip(cols) // read-only; an append copies it
		} else {
			*allowed = append(*allowed, cols...)
		}
		return v
	case *sqlast.JoinRef:
		if n := f.fixRef(v.L, ctes, allowed); n != v.L {
			sqlast.Own(&v, &fz).L = n
		}
		if n := f.fixRef(v.R, ctes, allowed); n != v.R {
			sqlast.Own(&v, &fz).R = n
		}
		return v
	case *sqlast.SubqueryRef:
		q, inner := f.fixSelect(v.Query, ctes)
		*allowed = append(*allowed, inner...)
		if q != v.Query {
			sqlast.Own(&v, &fz).Query = q
		}
		return v
	}
	return r
}

// fixOn repairs the ON conditions of the joins in r, which fixRef returned
// for orig. A join node of a shared statement is the pass's own copy when
// fixRef replaced it, and frozen when it is still orig's node.
func (f *Fixer) fixOn(r, orig sqlast.TableRef, allowed []string) sqlast.TableRef {
	j, ok := r.(*sqlast.JoinRef)
	if !ok {
		return r
	}
	o := orig.(*sqlast.JoinRef) // fixRef replaces a node only by its copy
	fz := f.shared && j == o
	if n := f.fixOn(j.L, o.L, allowed); n != j.L {
		sqlast.Own(&j, &fz).L = n
	}
	if n := f.fixOn(j.R, o.R, allowed); n != j.R {
		sqlast.Own(&j, &fz).R = n
	}
	if n := f.fixQualifiedCols(j.On, allowed); n != j.On {
		sqlast.Own(&j, &fz).On = n
	}
	return j
}

// fixQualifiedCols returns x with valid alias-qualified refs kept and the
// rest repaired.
func (f *Fixer) fixQualifiedCols(x sqlast.Expr, allowed []string) sqlast.Expr {
	return sqlast.RewriteExprCopy(x, f.shared, nil, func(n sqlast.Expr) sqlast.Expr {
		if v, ok := n.(*sqlast.ColRef); ok && !hasStr(allowed, v.Name) && len(allowed) > 0 {
			return &sqlast.ColRef{Table: v.Table, Name: f.pick(allowed)}
		}
		return n
	})
}

// fixStmt repairs one statement against the schema the statements before
// it built, then records what the statement creates, drops or renames. It
// returns stmt, or the copy it wrote of a shared one. Each case starts with
// its node frozen when the statement is shared (fz), and writes it only
// through sqlast.Own, so the records after a write read the copy.
func (f *Fixer) fixStmt(stmt sqlast.Statement) sqlast.Statement {
	sch := &f.sch
	fz := f.shared
	switch st := stmt.(type) {
	case *sqlast.CreateTableStmt:
		if _, exists := sch.tables[st.Name]; exists && !st.IfNotExists {
			sqlast.Own(&st, &fz).Name = f.freshName("t")
		}
		colsFz, consFz := f.shared, f.shared
		cols := make([]string, 0, len(st.Cols))
		for i := range st.Cols {
			cols = append(cols, st.Cols[i].Name)
			if st.Cols[i].References == nil && st.Cols[i].Check == nil {
				continue // nothing to repair, and a ColumnDef is large to copy
			}
			c := st.Cols[i]
			if c.References != nil {
				if ref := f.pickTable(); ref == "" {
					c.References = nil
				} else if fk := f.foreignKey(ref); fk != *c.References {
					c.References = &fk
				}
			}
			c.Check = f.fixCols(c.Check, cols, nil)
			if c != st.Cols[i] {
				sqlast.Own(&st, &fz)
				sqlast.OwnSlice(&st.Cols, &colsFz)[i] = c
			}
		}
		for i := range st.Constraints {
			c := st.Constraints[i]
			changed := false
			if len(cols) > 0 { // a table without columns leaves them be
				cfz := f.shared
				for j := range c.Columns {
					if !hasStr(cols, c.Columns[j]) {
						sqlast.OwnSlice(&c.Columns, &cfz)[j] = f.pick(cols)
						changed = true
					}
				}
			}
			if n := f.fixCols(c.Check, cols, nil); n != c.Check {
				c.Check, changed = n, true
			}
			if c.Kind == "FOREIGN KEY" {
				ref := st.Name
				if t := f.pickTable(); t != "" {
					ref = t
				}
				if ref != c.RefTab || c.RefCols != nil {
					c.RefTab, c.RefCols, changed = ref, nil, true
				}
			}
			if changed {
				sqlast.Own(&st, &fz)
				sqlast.OwnSlice(&st.Constraints, &consFz)[i] = c
			}
		}
		sch.setTable(st.Name, cols)
		return st

	case *sqlast.CreateViewStmt:
		if hasStr(sch.views, st.Name) && !st.OrReplace {
			sqlast.Own(&st, &fz).Name = f.freshName("w")
		}
		if q, _ := f.fixSelect(st.Query, nil); q != st.Query {
			sqlast.Own(&st, &fz).Query = q
		}
		if !hasStr(sch.views, st.Name) {
			sch.views = append(sch.views, st.Name)
		}
		return st

	case *sqlast.CreateIndexStmt:
		if hasStr(sch.indexes, st.Name) {
			sqlast.Own(&st, &fz).Name = f.freshName("i")
		}
		if t := f.tableRef(st.Table, nil); t != st.Table {
			sqlast.Own(&st, &fz).Table = t
		}
		if cols := sch.colsOf(st.Table); len(cols) > 0 {
			if cs, copied := sqlast.OwnEach(st.Cols, f.shared, func(c string) string {
				if !hasStr(cols, c) {
					return f.pick(cols)
				}
				return c
			}); copied {
				sqlast.Own(&st, &fz).Cols = cs
			}
		}
		sch.indexes = append(sch.indexes, st.Name)
		return st

	case *sqlast.CreateTriggerStmt:
		if hasStr(sch.trigs, st.Name) {
			sqlast.Own(&st, &fz).Name = f.freshName("tg")
		}
		if t := f.tableRef(st.Table, nil); t != st.Table {
			sqlast.Own(&st, &fz).Table = t
		}
		if b := f.fixStmt(st.Body); b != st.Body {
			sqlast.Own(&st, &fz).Body = b
		}
		sch.trigs = append(sch.trigs, st.Name)
		return st

	case *sqlast.CreateSequenceStmt:
		if hasStr(sch.seqs, st.Name) {
			sqlast.Own(&st, &fz).Name = f.freshName("s")
		}
		sch.seqs = append(sch.seqs, st.Name)
		return st

	case *sqlast.CreateFunctionStmt:
		if hasStr(sch.funcs, st.Name) {
			sqlast.Own(&st, &fz).Name = f.freshName("f")
		}
		if b := f.fixCols(st.Body, st.Params, nil); b != st.Body {
			sqlast.Own(&st, &fz).Body = b
		}
		sch.funcs = append(sch.funcs, st.Name)
		return st

	case *sqlast.CreateProcedureStmt:
		if hasStr(sch.procs, st.Name) {
			sqlast.Own(&st, &fz).Name = f.freshName("pr")
		}
		if b := f.fixStmt(st.Body); b != st.Body {
			sqlast.Own(&st, &fz).Body = b
		}
		sch.procs = append(sch.procs, st.Name)
		return st

	case *sqlast.CreateRuleStmt:
		if hasStr(sch.rules, st.Name) && !st.OrReplace {
			sqlast.Own(&st, &fz).Name = f.freshName("r")
		}
		if t := f.tableRef(st.Table, nil); t != st.Table {
			sqlast.Own(&st, &fz).Table = t
		}
		if st.Action != nil {
			if a := f.fixStmt(st.Action); a != st.Action {
				sqlast.Own(&st, &fz).Action = a
			}
		}
		if !hasStr(sch.rules, st.Name) {
			sch.rules = append(sch.rules, st.Name)
		}
		return st

	case *sqlast.CreateRoleStmt:
		if hasStr(sch.roles, st.Name) {
			sqlast.Own(&st, &fz).Name = f.freshName("u")
		}
		sch.roles = append(sch.roles, st.Name)
		return st

	case *sqlast.AlterTableStmt:
		if t := f.tableRef(st.Table, nil); t != st.Table {
			sqlast.Own(&st, &fz).Table = t
		}
		cols := sch.colsOf(st.Table)
		switch st.Action {
		case sqlast.AlterAddColumn:
			if hasStr(cols, st.Col.Name) {
				sqlast.Own(&st, &fz).Col.Name = f.freshName("c")
			}
			if st.Col.NotNull { // avoid guaranteed failure on non-empty tables
				sqlast.Own(&st, &fz).Col.NotNull = false
			}
			if _, exists := sch.tables[st.Table]; exists {
				sch.tables[st.Table] = append(cols, st.Col.Name)
			}
		case sqlast.AlterDropColumn:
			if len(cols) > 1 {
				if !hasStr(cols, st.OldName) {
					sqlast.Own(&st, &fz).OldName = f.pick(cols)
				}
				sch.tables[st.Table] = dropStr(append([]string{}, cols...), st.OldName)
			}
		case sqlast.AlterRenameColumn:
			if len(cols) > 0 {
				if !hasStr(cols, st.OldName) {
					sqlast.Own(&st, &fz).OldName = f.pick(cols)
				}
				if hasStr(cols, st.NewName) {
					sqlast.Own(&st, &fz).NewName = f.freshName("c")
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
				sqlast.Own(&st, &fz).NewName = f.freshName("t")
			}
			sch.renameTable(st.Table, st.NewName)
		case sqlast.AlterColumnType, sqlast.AlterColumnDefault:
			if len(cols) > 0 && !hasStr(cols, st.Col.Name) {
				sqlast.Own(&st, &fz).Col.Name = f.pick(cols)
			}
		}
		return st

	case *sqlast.AlterSimpleStmt:
		var live []string
		var prefix string
		switch st.What {
		case sqlt.AlterView:
			live, prefix = sch.views, "w"
		case sqlt.AlterIndex:
			live, prefix = sch.indexes, "i"
		case sqlt.AlterSequence:
			live = sch.seqs
		case sqlt.AlterRole:
			live = sch.roles
		default:
			return st
		}
		if n := f.pick(live); n != "" && n != st.Name {
			sqlast.Own(&st, &fz).Name = n
		}
		if prefix != "" && hasStr(live, st.NewName) {
			sqlast.Own(&st, &fz).NewName = f.freshName(prefix)
		}
		return st

	case *sqlast.DropStmt:
		var live *[]string
		switch st.What {
		case sqlt.DropTable:
			if len(sch.names) > 0 {
				if _, exists := sch.tables[st.Name]; !exists {
					sqlast.Own(&st, &fz).Name = f.pick(sch.names)
				}
				sch.dropTable(st.Name)
			}
			return st
		case sqlt.DropView, sqlt.DropMaterializedView:
			live = &sch.views
		case sqlt.DropIndex:
			live = &sch.indexes
		case sqlt.DropTrigger:
			live = &sch.trigs
		case sqlt.DropSequence:
			live = &sch.seqs
		case sqlt.DropFunction:
			live = &sch.funcs
		case sqlt.DropProcedure:
			live = &sch.procs
		case sqlt.DropRule:
			live = &sch.rules
		case sqlt.DropRole, sqlt.DropUser:
			live = &sch.roles
		default:
			return st
		}
		// the draw from live always happens when live has names, and the
		// name changes only when it names none of them
		if n := f.pick(*live); n != "" && !hasStr(*live, st.Name) {
			sqlast.Own(&st, &fz).Name = n
		}
		*live = dropStr(*live, st.Name)
		return st

	case *sqlast.RenameTableStmt:
		if t := f.tableRef(st.From, nil); t != st.From {
			sqlast.Own(&st, &fz).From = t
		}
		if _, exists := sch.tables[st.To]; exists {
			sqlast.Own(&st, &fz).To = f.freshName("t")
		}
		sch.renameTable(st.From, st.To)
		return st

	case *sqlast.TruncateStmt:
		if t := f.tableRef(st.Table, nil); t != st.Table {
			sqlast.Own(&st, &fz).Table = t
		}
		return st

	case *sqlast.CommentOnStmt:
		if st.ObjectKind == "TABLE" {
			if t := f.tableRef(st.Name, nil); t != st.Name {
				sqlast.Own(&st, &fz).Name = t
			}
		}
		return st

	case *sqlast.ReindexStmt:
		n := st.Name
		if st.Kind == "INDEX" {
			if i := f.pick(sch.indexes); i != "" {
				n = i
			}
		} else {
			n = f.tableRef(n, nil)
		}
		if n != st.Name {
			sqlast.Own(&st, &fz).Name = n
		}
		return st

	case *sqlast.RefreshMatViewStmt:
		if n := f.pick(sch.views); n != "" && n != st.Name {
			sqlast.Own(&st, &fz).Name = n
		}
		return st

	case *sqlast.InsertStmt:
		if t := f.tableRef(st.Table, nil); t != st.Table {
			sqlast.Own(&st, &fz).Table = t
		}
		cols := sch.colsOf(st.Table)
		if len(cols) > 0 {
			// drop the explicit column list and repair row arity
			if st.Cols != nil {
				sqlast.Own(&st, &fz).Cols = nil
			}
			rowsFz := f.shared
			for i, row := range st.Rows {
				if len(row) == len(cols) {
					continue
				}
				row = slices.Clip(row) // the row may be shared: its spare capacity is not ours
				for len(row) < len(cols) {
					row = append(row, sqlast.NullLit())
				}
				sqlast.Own(&st, &fz)
				sqlast.OwnSlice(&st.Rows, &rowsFz)[i] = row[:len(cols)]
			}
		}
		if q, _ := f.fixSelect(st.Query, nil); q != st.Query {
			sqlast.Own(&st, &fz).Query = q
		}
		if xs, copied := f.fixExprs(st.Returning, cols, nil); copied {
			sqlast.Own(&st, &fz).Returning = xs
		}
		return st

	case *sqlast.UpdateStmt:
		if t := f.tableRef(st.Table, nil); t != st.Table {
			sqlast.Own(&st, &fz).Table = t
		}
		cols := sch.colsOf(st.Table)
		if len(cols) > 0 {
			if as, copied := f.fixSets(st.Sets, cols, cols); copied {
				sqlast.Own(&st, &fz).Sets = as
			}
		}
		if n := f.fixCols(st.Where, cols, nil); n != st.Where {
			sqlast.Own(&st, &fz).Where = n
		}
		if os, copied := f.fixOrder(st.OrderBy, cols, nil); copied {
			sqlast.Own(&st, &fz).OrderBy = os
		}
		return st

	case *sqlast.DeleteStmt:
		if t := f.tableRef(st.Table, nil); t != st.Table {
			sqlast.Own(&st, &fz).Table = t
		}
		cols := sch.colsOf(st.Table)
		if n := f.fixCols(st.Where, cols, nil); n != st.Where {
			sqlast.Own(&st, &fz).Where = n
		}
		if os, copied := f.fixOrder(st.OrderBy, cols, nil); copied {
			sqlast.Own(&st, &fz).OrderBy = os
		}
		if xs, copied := f.fixExprs(st.Returning, cols, nil); copied {
			sqlast.Own(&st, &fz).Returning = xs
		}
		return st

	case *sqlast.MergeStmt:
		if t := f.tableRef(st.Target, nil); t != st.Target {
			sqlast.Own(&st, &fz).Target = t
		}
		if t := f.tableRef(st.Source, nil); t != st.Source {
			sqlast.Own(&st, &fz).Source = t
		}
		tcols := sch.colsOf(st.Target)
		allowed := append(append([]string{}, tcols...), sch.colsOf(st.Source)...)
		if n := f.fixCols(st.On, allowed, nil); n != st.On {
			sqlast.Own(&st, &fz).On = n
		}
		if as, copied := f.fixSets(st.MatchedSet, tcols, allowed); copied {
			sqlast.Own(&st, &fz).MatchedSet = as
		}
		if vals := st.NotMatchedVals; vals != nil && len(tcols) > 0 && len(vals) != len(tcols) {
			vals = slices.Clip(vals) // the list may be shared: its spare capacity is not ours
			for len(vals) < len(tcols) {
				vals = append(vals, sqlast.NullLit())
			}
			sqlast.Own(&st, &fz).NotMatchedVals = vals[:len(tcols)]
		}
		return st

	case *sqlast.CopyStmt:
		if st.Query != nil {
			if q, _ := f.fixSelect(st.Query, nil); q != st.Query {
				sqlast.Own(&st, &fz).Query = q
			}
		} else if t := f.tableRef(st.Table, nil); t != st.Table {
			sqlast.Own(&st, &fz).Table = t
		}
		return st

	case *sqlast.LoadDataStmt:
		if t := f.tableRef(st.Table, nil); t != st.Table {
			sqlast.Own(&st, &fz).Table = t
		}
		return st

	case *sqlast.CallStmt:
		if n := f.pick(sch.procs); n != "" && n != st.Name {
			sqlast.Own(&st, &fz).Name = n
		}
		return st

	case *sqlast.SelectStmt:
		st, _ = f.fixSelect(st, nil)
		if st.Into != "" {
			if _, exists := sch.tables[st.Into]; exists {
				// fixSelect left a copy only if it wrote one
				fz = f.shared && st == stmt
				sqlast.Own(&st, &fz).Into = f.freshName("t")
			}
			sch.setTable(st.Into, nil)
		}
		return st

	case *sqlast.TableStmtNode:
		if t := f.tableRef(st.Name, nil); t != st.Name {
			sqlast.Own(&st, &fz).Name = t
		}
		return st

	case *sqlast.WithStmt:
		var ctes []string
		ctesFz := f.shared
		for i := range st.CTEs {
			if b := f.fixBody(st.CTEs[i].Body, ctes); b != st.CTEs[i].Body {
				sqlast.Own(&st, &fz)
				sqlast.OwnSlice(&st.CTEs, &ctesFz)[i].Body = b
			}
			ctes = append(ctes, st.CTEs[i].Name)
		}
		if b := f.fixBody(st.Body, ctes); b != st.Body {
			sqlast.Own(&st, &fz).Body = b
		}
		return st

	case *sqlast.ExplainStmt:
		if s := f.fixStmt(st.Stmt); s != st.Stmt {
			sqlast.Own(&st, &fz).Stmt = s
		}
		return st

	case *sqlast.DescribeStmt:
		if t := f.tableRef(st.Table, nil); t != st.Table {
			sqlast.Own(&st, &fz).Table = t
		}
		return st

	case *sqlast.GrantStmt:
		if t := f.tableRef(st.Table, nil); t != st.Table {
			sqlast.Own(&st, &fz).Table = t
		}
		if n := f.pick(sch.roles); n != "" && n != st.Role {
			sqlast.Own(&st, &fz).Role = n
		}
		return st

	case *sqlast.SetRoleStmt:
		if st.Role != "NONE" {
			role := "NONE"
			if n := f.pick(sch.roles); n != "" {
				role = n
			}
			if role != st.Role {
				sqlast.Own(&st, &fz).Role = role
			}
		}
		return st

	case *sqlast.TxnStmt:
		switch st.What {
		case sqlt.Savepoint:
			sch.saves = append(sch.saves, st.Name)
		case sqlt.ReleaseSavepoint, sqlt.RollbackToSavepoint:
			if n := f.pick(sch.saves); n != "" && n != st.Name {
				sqlast.Own(&st, &fz).Name = n
			}
		}
		return st

	case *sqlast.LockTableStmt:
		if t := f.tableRef(st.Table, nil); t != st.Table {
			sqlast.Own(&st, &fz).Table = t
		}
		return st

	case *sqlast.AnalyzeStmt:
		if st.Table != "" {
			if t := f.tableRef(st.Table, nil); t != st.Table {
				sqlast.Own(&st, &fz).Table = t
			}
		}
		return st

	case *sqlast.VacuumStmt:
		if st.Table != "" {
			if t := f.tableRef(st.Table, nil); t != st.Table {
				sqlast.Own(&st, &fz).Table = t
			}
		}
		return st

	case *sqlast.MaintenanceStmt:
		if t := f.tableRef(st.Table, nil); t != st.Table {
			sqlast.Own(&st, &fz).Table = t
		}
		return st

	case *sqlast.PrepareStmt:
		if hasStr(sch.preps, st.Name) {
			sqlast.Own(&st, &fz).Name = f.freshName("q")
		}
		if s := f.fixStmt(st.Stmt); s != st.Stmt {
			sqlast.Own(&st, &fz).Stmt = s
		}
		sch.preps = append(sch.preps, st.Name)
		return st

	case *sqlast.ExecuteStmt:
		if n := f.pick(sch.preps); n != "" && n != st.Name {
			sqlast.Own(&st, &fz).Name = n
		}
		return st

	case *sqlast.DeallocateStmt:
		if n := f.pick(sch.preps); n != "" && n != st.Name {
			sqlast.Own(&st, &fz).Name = n
		}
		sch.preps = dropStr(sch.preps, st.Name)
		return st

	case *sqlast.DeclareCursorStmt:
		if hasStr(sch.cursors, st.Name) {
			sqlast.Own(&st, &fz).Name = f.freshName("cur")
		}
		if q, _ := f.fixSelect(st.Query, nil); q != st.Query {
			sqlast.Own(&st, &fz).Query = q
		}
		sch.cursors = append(sch.cursors, st.Name)
		return st

	case *sqlast.FetchStmt:
		if n := f.pick(sch.cursors); n != "" && n != st.Cursor {
			sqlast.Own(&st, &fz).Cursor = n
		}
		return st

	case *sqlast.CloseCursorStmt:
		if n := f.pick(sch.cursors); n != "" && n != st.Name {
			sqlast.Own(&st, &fz).Name = n
		}
		sch.cursors = dropStr(sch.cursors, st.Name)
		return st

	case *sqlast.ClusterStmt:
		if t := f.tableRef(st.Table, nil); t != st.Table {
			sqlast.Own(&st, &fz).Table = t
		}
		if n := f.pick(sch.indexes); n != st.Index {
			sqlast.Own(&st, &fz).Index = n
		}
		return st
	}
	return stmt
}

// fixBody repairs a WITH's CTE body or main body: a query sees the CTE
// names before it, and any other statement is fixed as a statement.
func (f *Fixer) fixBody(s sqlast.Statement, ctes []string) sqlast.Statement {
	if sel, isSel := s.(*sqlast.SelectStmt); isSel {
		q, _ := f.fixSelect(sel, ctes)
		return q
	}
	return f.fixStmt(s)
}

// foreignKey returns a REFERENCES clause naming ref and its first column,
// if it has any.
func (f *Fixer) foreignKey(ref string) sqlast.FKRef {
	fk := sqlast.FKRef{Table: ref}
	if refCols := f.sch.colsOf(ref); len(refCols) > 0 {
		fk.Column = refCols[0]
	}
	return fk
}
