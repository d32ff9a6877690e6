// Package instantiate turns SQL Type Sequences into executable test cases
// (paper §III-B, "Instantiation"): for each entry of a synthesized sequence
// it picks a type-matched AST structure from the global library (harvested
// from parsed seeds) or generates a fresh one, concatenates the statements,
// and fixes cross-statement dependencies so the result is semantically
// plausible.
package instantiate

import (
	"math/rand"
	"strconv"

	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Vocabulary of object names shared by generation and fixing. Small name
// pools maximize the chance that independently generated statements refer to
// the same objects.
var (
	tableNames  = []string{"t0", "t1", "t2", "v0", "v1"}
	viewNames   = []string{"w0", "w1"}
	colNames    = []string{"c0", "c1", "c2", "c3"}
	indexNames  = []string{"i0", "i1"}
	trigNames   = []string{"tg0", "tg1"}
	seqNames    = []string{"s0", "s1"}
	funcNames   = []string{"f0", "f1"}
	procNames   = []string{"pr0"}
	ruleNames   = []string{"r0", "r1"}
	roleNames   = []string{"u0", "u1"}
	schemaNames = []string{"sch0"}
	domainNames = []string{"d0"}
	enumNames   = []string{"e0"}
	extNames    = []string{"ext0"}
	dbNames     = []string{"db0"}
	chanNames   = []string{"ch0", "ch1"}
	cursorNames = []string{"cur0"}
	prepNames   = []string{"q0", "q1"}
	spNames     = []string{"sp0"}
	typeNames   = []string{"INT", "BIGINT", "FLOAT", "TEXT", "VARCHAR(100)", "BOOLEAN"}
	varNames    = []string{"sql_mode", "max_heap", "explicit_for_timestamp", "opt_level"}
)

// Generator builds fresh statements of any requested type, with structures
// randomized within a small budget.
type Generator struct {
	Rng     *rand.Rand
	Dialect sqlt.Dialect
}

// NewGenerator returns a generator seeded deterministically.
func NewGenerator(rng *rand.Rand, d sqlt.Dialect) *Generator {
	return &Generator{Rng: rng, Dialect: d}
}

func (g *Generator) pick(ss []string) string { return ss[g.Rng.Intn(len(ss))] }

func (g *Generator) table() string  { return g.pick(tableNames) }
func (g *Generator) column() string { return g.pick(colNames) }

// literal produces a random literal value.
func (g *Generator) literal() sqlast.Expr {
	switch g.Rng.Intn(6) {
	case 0:
		return sqlast.IntLit(int64(g.Rng.Intn(200) - 50))
	case 1:
		return sqlast.IntLit(int64(g.Rng.Int31()))
	case 2:
		return sqlast.FloatLit(float64(g.Rng.Intn(1000)) / 8.0)
	case 3:
		return sqlast.StringLit(g.pick([]string{"name1", "x", "Water", "abc%", ""}))
	case 4:
		return sqlast.BoolLit(g.Rng.Intn(2) == 0)
	default:
		return sqlast.NullLit()
	}
}

// expr produces a random scalar expression of bounded depth.
func (g *Generator) expr(depth int) sqlast.Expr {
	if depth <= 0 || g.Rng.Intn(3) == 0 {
		if g.Rng.Intn(2) == 0 {
			return &sqlast.ColRef{Name: g.column()}
		}
		return g.literal()
	}
	switch g.Rng.Intn(8) {
	case 0, 1:
		op := g.pick([]string{"+", "-", "*", "/", "%"})
		return &sqlast.Binary{Op: op, L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 2:
		op := g.pick([]string{"=", "<>", "<", "<=", ">", ">="})
		return &sqlast.Binary{Op: op, L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 3:
		return &sqlast.FuncCall{
			Name: g.pick([]string{"ABS", "LENGTH", "UPPER", "LOWER", "COALESCE", "ROUND"}),
			Args: []sqlast.Expr{g.expr(depth - 1)},
		}
	case 4:
		return &sqlast.CaseExpr{
			Whens: []sqlast.CaseWhen{{Cond: g.boolExpr(depth - 1), Result: g.expr(depth - 1)}},
			Else:  g.literal(),
		}
	case 5:
		return &sqlast.CastExpr{X: g.expr(depth - 1), TypeName: g.pick([]string{"INT", "TEXT", "FLOAT"})}
	case 6:
		// negation over literals must be folded into the literal (the
		// parser canonicalizes it that way, and the structure library
		// requires print/parse fixed points)
		x := g.expr(depth - 1)
		if lit, isLit := x.(*sqlast.Literal); isLit {
			switch lit.Kind {
			case sqlast.LitInt:
				return sqlast.IntLit(-lit.Int)
			case sqlast.LitFloat:
				return sqlast.FloatLit(-lit.Float)
			default:
				return lit
			}
		}
		return &sqlast.Unary{Op: "-", X: x}
	default:
		return &sqlast.Binary{Op: "||", L: g.expr(depth - 1), R: g.expr(depth - 1)}
	}
}

// boolExpr produces a random predicate.
func (g *Generator) boolExpr(depth int) sqlast.Expr {
	if depth <= 0 {
		return &sqlast.Binary{Op: "=", L: &sqlast.ColRef{Name: g.column()}, R: g.literal()}
	}
	switch g.Rng.Intn(7) {
	case 0:
		return &sqlast.Binary{Op: "AND", L: g.boolExpr(depth - 1), R: g.boolExpr(depth - 1)}
	case 1:
		return &sqlast.Binary{Op: "OR", L: g.boolExpr(depth - 1), R: g.boolExpr(depth - 1)}
	case 2:
		return &sqlast.IsNullExpr{X: &sqlast.ColRef{Name: g.column()}, Not: g.Rng.Intn(2) == 0}
	case 3:
		return &sqlast.BetweenExpr{X: &sqlast.ColRef{Name: g.column()}, Lo: g.literal(), Hi: g.literal()}
	case 4:
		return &sqlast.LikeExpr{X: &sqlast.ColRef{Name: g.column()}, Pattern: sqlast.StringLit(g.pick([]string{"a%", "%1", "_x%"}))}
	case 5:
		return &sqlast.InExpr{X: &sqlast.ColRef{Name: g.column()}, List: []sqlast.Expr{g.literal(), g.literal()}}
	default:
		op := g.pick([]string{"=", "<>", "<", ">"})
		return &sqlast.Binary{Op: op, L: &sqlast.ColRef{Name: g.column()}, R: g.literal()}
	}
}

// selectStmt generates a random query of bounded complexity.
func (g *Generator) selectStmt(depth int) *sqlast.SelectStmt {
	q := &sqlast.SelectStmt{}
	switch g.Rng.Intn(4) {
	case 0:
		q.Items = []sqlast.SelectItem{{X: &sqlast.Star{}}}
	case 1:
		q.Items = []sqlast.SelectItem{{X: &sqlast.ColRef{Name: g.column()}}}
	case 2:
		q.Items = []sqlast.SelectItem{
			{X: &sqlast.ColRef{Name: g.column()}},
			{X: g.expr(1)},
		}
	default:
		q.Items = []sqlast.SelectItem{{X: &sqlast.FuncCall{Name: "COUNT", Star: true}}}
	}
	q.From = []sqlast.TableRef{&sqlast.BaseTable{Name: g.table()}}
	if depth > 0 && g.Rng.Intn(4) == 0 {
		q.From = []sqlast.TableRef{&sqlast.JoinRef{
			Kind: sqlast.JoinKind(g.Rng.Intn(3)),
			L:    &sqlast.BaseTable{Name: g.table()},
			R:    &sqlast.BaseTable{Name: g.table(), Alias: "j1"},
			On: &sqlast.Binary{Op: "=",
				L: &sqlast.ColRef{Name: g.column()},
				R: &sqlast.ColRef{Table: "j1", Name: g.column()}},
		}}
	}
	if g.Rng.Intn(2) == 0 {
		q.Where = g.boolExpr(depth)
	}
	if g.Rng.Intn(4) == 0 {
		q.GroupBy = []sqlast.Expr{&sqlast.ColRef{Name: g.column()}}
		q.Items = []sqlast.SelectItem{
			{X: &sqlast.ColRef{Name: g.column()}},
			{X: &sqlast.FuncCall{Name: "COUNT", Star: true}},
		}
	}
	if g.Rng.Intn(3) == 0 {
		q.OrderBy = []sqlast.OrderItem{{X: &sqlast.ColRef{Name: g.column()}, Desc: g.Rng.Intn(2) == 0}}
	}
	if g.Rng.Intn(4) == 0 {
		q.Limit = sqlast.IntLit(int64(1 + g.Rng.Intn(10)))
	}
	if g.Rng.Intn(3) == 0 {
		q.Distinct = true
	}
	return q
}

func (g *Generator) columnDefs() []sqlast.ColumnDef {
	n := 2 + g.Rng.Intn(3)
	defs := make([]sqlast.ColumnDef, 0, n)
	for i := 0; i < n; i++ {
		cd := sqlast.ColumnDef{Name: colNames[i%len(colNames)], TypeName: g.pick(typeNames)}
		switch g.Rng.Intn(8) {
		case 0:
			cd.PrimaryKey = i == 0
		case 1:
			cd.Unique = true
		case 2:
			cd.NotNull = true
		case 3:
			cd.Default = g.literal()
		}
		defs = append(defs, cd)
	}
	return defs
}

func (g *Generator) dmlBody() sqlast.Statement {
	switch g.Rng.Intn(3) {
	case 0:
		return g.insertStmt()
	case 1:
		return &sqlast.UpdateStmt{
			Table: g.table(),
			Sets:  []sqlast.Assignment{{Col: g.column(), Value: g.expr(1)}},
			Where: g.boolExpr(1),
		}
	default:
		return &sqlast.DeleteStmt{Table: g.table(), Where: g.boolExpr(1)}
	}
}

func (g *Generator) insertStmt() *sqlast.InsertStmt {
	rows := make([][]sqlast.Expr, 1+g.Rng.Intn(2))
	width := 1 + g.Rng.Intn(3)
	for i := range rows {
		row := make([]sqlast.Expr, width)
		for j := range row {
			row[j] = g.literal()
		}
		rows[i] = row
	}
	return &sqlast.InsertStmt{Table: g.table(), Rows: rows, Ignore: g.Rng.Intn(4) == 0}
}

// Gen builds a fresh statement of the requested type. The result is
// syntactically valid; semantic validity is the Fixer's job.
func (g *Generator) Gen(t sqlt.Type) sqlast.Statement {
	switch t {
	case sqlt.CreateTable:
		return &sqlast.CreateTableStmt{
			Name: g.table(), Temp: g.Rng.Intn(8) == 0, IfNotExists: g.Rng.Intn(4) == 0,
			Cols: g.columnDefs(),
		}
	case sqlt.CreateView:
		return &sqlast.CreateViewStmt{Name: g.pick(viewNames), OrReplace: g.Rng.Intn(3) == 0, Query: g.selectStmt(1)}
	case sqlt.CreateMaterializedView:
		return &sqlast.CreateViewStmt{Name: g.pick(viewNames), Materialized: true, Query: g.selectStmt(1)}
	case sqlt.CreateIndex:
		return &sqlast.CreateIndexStmt{Name: g.pick(indexNames), Unique: g.Rng.Intn(3) == 0, Table: g.table(), Cols: []string{g.column()}}
	case sqlt.CreateTrigger:
		return &sqlast.CreateTriggerStmt{
			Name: g.pick(trigNames), Time: sqlast.TriggerTime(g.Rng.Intn(2)),
			Event: sqlast.TriggerEvent(g.Rng.Intn(3)), Table: g.table(), Body: g.dmlBody(),
		}
	case sqlt.CreateSequence:
		return &sqlast.CreateSequenceStmt{Name: g.pick(seqNames), Start: int64(g.Rng.Intn(10)), Inc: 1}
	case sqlt.CreateSchema:
		return &sqlast.CreateSchemaStmt{Name: g.pick(schemaNames)}
	case sqlt.CreateFunction:
		return &sqlast.CreateFunctionStmt{
			Name: g.pick(funcNames), Params: []string{"x"}, Returns: "INT",
			Body: &sqlast.Binary{Op: "+", L: &sqlast.ColRef{Name: "x"}, R: sqlast.IntLit(int64(g.Rng.Intn(10)))},
		}
	case sqlt.CreateProcedure:
		return &sqlast.CreateProcedureStmt{Name: g.pick(procNames), Body: g.dmlBody()}
	case sqlt.CreateRule:
		var action sqlast.Statement
		switch g.Rng.Intn(3) {
		case 0:
			action = nil // DO INSTEAD NOTHING
		case 1:
			action = &sqlast.NotifyStmt{Channel: g.pick(chanNames)}
		default:
			action = g.dmlBody()
		}
		return &sqlast.CreateRuleStmt{
			Name: g.pick(ruleNames), OrReplace: true,
			Event: sqlast.TriggerEvent(g.Rng.Intn(3)), Table: g.table(),
			Instead: g.Rng.Intn(2) == 0, Action: action,
		}
	case sqlt.CreateDomain:
		return &sqlast.CreateDomainStmt{Name: g.pick(domainNames), Base: "INT",
			Check: &sqlast.Binary{Op: ">", L: &sqlast.ColRef{Name: "VALUE"}, R: sqlast.IntLit(0)}}
	case sqlt.CreateType:
		return &sqlast.CreateTypeStmt{Name: g.pick(enumNames), Values: []string{"a", "b", "c"}}
	case sqlt.CreateExtension:
		return &sqlast.CreateExtensionStmt{Name: g.pick(extNames)}
	case sqlt.CreateRole:
		return &sqlast.CreateRoleStmt{Name: g.pick(roleNames), Option: "LOGIN"}
	case sqlt.CreateUser:
		return &sqlast.CreateRoleStmt{Name: g.pick(roleNames), IsUser: true}
	case sqlt.CreateDatabase:
		return &sqlast.CreateDatabaseStmt{Name: g.pick(dbNames)}

	case sqlt.AlterTable:
		st := &sqlast.AlterTableStmt{Table: g.table()}
		switch g.Rng.Intn(5) {
		case 0:
			st.Action = sqlast.AlterAddColumn
			st.Col = sqlast.ColumnDef{Name: "c" + strconv.Itoa(4+g.Rng.Intn(4)), TypeName: g.pick(typeNames)}
		case 1:
			st.Action = sqlast.AlterDropColumn
			st.OldName = g.column()
		case 2:
			st.Action = sqlast.AlterRenameColumn
			st.OldName, st.NewName = g.column(), "c"+strconv.Itoa(4+g.Rng.Intn(4))
		case 3:
			st.Action = sqlast.AlterColumnType
			st.Col = sqlast.ColumnDef{Name: g.column(), TypeName: g.pick(typeNames)}
		default:
			st.Action = sqlast.AlterColumnDefault
			st.Col = sqlast.ColumnDef{Name: g.column(), Default: g.literal()}
		}
		return st
	case sqlt.AlterView:
		return &sqlast.AlterSimpleStmt{What: t, Name: g.pick(viewNames), NewName: g.pick(viewNames)}
	case sqlt.AlterIndex:
		return &sqlast.AlterSimpleStmt{What: t, Name: g.pick(indexNames), NewName: g.pick(indexNames)}
	case sqlt.AlterSequence:
		return &sqlast.AlterSimpleStmt{What: t, Name: g.pick(seqNames), Restart: int64(g.Rng.Intn(100))}
	case sqlt.AlterRole:
		return &sqlast.AlterSimpleStmt{What: t, Name: g.pick(roleNames), Option: "NOLOGIN"}
	case sqlt.AlterDatabase:
		return &sqlast.AlterSimpleStmt{What: t, Name: g.pick(dbNames), Option: "OPT"}
	case sqlt.AlterSystem:
		return &sqlast.AlterSystemStmt{Setting: g.pick(varNames), Value: g.literal()}

	case sqlt.DropTable, sqlt.DropView, sqlt.DropMaterializedView, sqlt.DropIndex,
		sqlt.DropTrigger, sqlt.DropSequence, sqlt.DropSchema, sqlt.DropFunction,
		sqlt.DropProcedure, sqlt.DropRule, sqlt.DropDomain, sqlt.DropType,
		sqlt.DropExtension, sqlt.DropRole, sqlt.DropUser, sqlt.DropDatabase:
		return &sqlast.DropStmt{What: t, Name: g.dropTarget(t), IfExists: g.Rng.Intn(3) == 0}

	case sqlt.RenameTable:
		return &sqlast.RenameTableStmt{From: g.table(), To: g.table()}
	case sqlt.Truncate:
		return &sqlast.TruncateStmt{Table: g.table()}
	case sqlt.CommentOn:
		return &sqlast.CommentOnStmt{ObjectKind: "TABLE", Name: g.table(), Comment: "c"}
	case sqlt.Reindex:
		return &sqlast.ReindexStmt{Kind: "TABLE", Name: g.table()}
	case sqlt.RefreshMaterializedView:
		return &sqlast.RefreshMatViewStmt{Name: g.pick(viewNames)}

	case sqlt.Insert:
		return g.insertStmt()
	case sqlt.Replace:
		st := g.insertStmt()
		st.IsReplace = true
		st.Ignore = false
		return st
	case sqlt.Update:
		return &sqlast.UpdateStmt{
			Table: g.table(),
			Sets:  []sqlast.Assignment{{Col: g.column(), Value: g.expr(1)}},
			Where: g.boolExpr(1),
		}
	case sqlt.Delete:
		st := &sqlast.DeleteStmt{Table: g.table()}
		if g.Rng.Intn(3) != 0 {
			st.Where = g.boolExpr(1)
		}
		return st
	case sqlt.Merge:
		return &sqlast.MergeStmt{
			Target: g.table(), Source: g.table(),
			On: &sqlast.Binary{Op: "=",
				L: &sqlast.ColRef{Name: g.column()}, R: &sqlast.ColRef{Name: g.column()}},
			MatchedSet: []sqlast.Assignment{{Col: g.column(), Value: g.literal()}},
		}
	case sqlt.CopyTo:
		if g.Rng.Intn(2) == 0 {
			return &sqlast.CopyStmt{Query: g.selectStmt(1), CSV: true}
		}
		return &sqlast.CopyStmt{Table: g.table(), CSV: g.Rng.Intn(2) == 0}
	case sqlt.CopyFrom:
		return &sqlast.CopyStmt{Table: g.table(), From: true}
	case sqlt.LoadData:
		return &sqlast.LoadDataStmt{File: "data.csv", Table: g.table()}
	case sqlt.Call:
		return &sqlast.CallStmt{Name: g.pick(procNames)}
	case sqlt.Do:
		return &sqlast.DoStmt{Body: g.expr(2)}

	case sqlt.Select:
		return g.selectStmt(2)
	case sqlt.SelectInto:
		q := g.selectStmt(1)
		q.Into = "t" + strconv.Itoa(5+g.Rng.Intn(3))
		return q
	case sqlt.TableStmt:
		return &sqlast.TableStmtNode{Name: g.table()}
	case sqlt.ValuesStmt:
		return &sqlast.ValuesStmtNode{Rows: [][]sqlast.Expr{{g.literal(), g.literal()}}}
	case sqlt.WithSelect:
		return &sqlast.WithStmt{
			CTEs: []sqlast.CTE{{Name: "cte0", Body: g.selectStmt(1)}},
			Body: &sqlast.SelectStmt{
				Items: []sqlast.SelectItem{{X: &sqlast.Star{}}},
				From:  []sqlast.TableRef{&sqlast.BaseTable{Name: "cte0"}},
			},
		}
	case sqlt.WithDML:
		return &sqlast.WithStmt{
			CTEs: []sqlast.CTE{{Name: "cte0", Body: g.insertStmt()}},
			Body: &sqlast.DeleteStmt{Table: g.table(), Where: g.boolExpr(1)},
		}
	case sqlt.Explain:
		inner := g.selectStmt(1)
		return &sqlast.ExplainStmt{Analyze: g.Rng.Intn(3) == 0, Stmt: inner}
	case sqlt.Show:
		return &sqlast.ShowStmt{Name: g.pick([]string{"TABLES", "DATABASES", "sql_mode"})}
	case sqlt.Describe:
		return &sqlast.DescribeStmt{Table: g.table()}

	case sqlt.Grant:
		return &sqlast.GrantStmt{Privs: []string{g.pick([]string{"SELECT", "INSERT", "UPDATE", "DELETE", "ALL"})}, Table: g.table(), Role: g.pick(roleNames)}
	case sqlt.Revoke:
		return &sqlast.GrantStmt{Revoke: true, Privs: []string{"ALL"}, Table: g.table(), Role: g.pick(roleNames)}
	case sqlt.SetRole:
		if g.Rng.Intn(3) == 0 {
			return &sqlast.SetRoleStmt{Role: "NONE"}
		}
		return &sqlast.SetRoleStmt{Role: g.pick(roleNames)}

	case sqlt.Begin:
		return &sqlast.TxnStmt{What: sqlt.Begin}
	case sqlt.Commit:
		return &sqlast.TxnStmt{What: sqlt.Commit}
	case sqlt.Rollback:
		return &sqlast.TxnStmt{What: sqlt.Rollback}
	case sqlt.Savepoint:
		return &sqlast.TxnStmt{What: sqlt.Savepoint, Name: g.pick(spNames)}
	case sqlt.ReleaseSavepoint:
		return &sqlast.TxnStmt{What: sqlt.ReleaseSavepoint, Name: g.pick(spNames)}
	case sqlt.RollbackToSavepoint:
		return &sqlast.TxnStmt{What: sqlt.RollbackToSavepoint, Name: g.pick(spNames)}
	case sqlt.SetTransaction:
		return &sqlast.SetTransactionStmt{Mode: g.pick([]string{"READ COMMITTED", "SERIALIZABLE", "REPEATABLE READ"})}
	case sqlt.LockTable:
		return &sqlast.LockTableStmt{Table: g.table(), Mode: g.pick([]string{"SHARE", "EXCLUSIVE"})}

	case sqlt.SetVar:
		return &sqlast.SetVarStmt{Global: g.Rng.Intn(4) == 0, Name: g.pick(varNames), Value: g.literal()}
	case sqlt.ResetVar:
		return &sqlast.ResetVarStmt{Name: g.pick(varNames)}
	case sqlt.Pragma:
		if g.Rng.Intn(2) == 0 {
			return &sqlast.PragmaStmt{Name: "foreign_keys", Value: sqlast.IntLit(int64(g.Rng.Intn(2)))}
		}
		return &sqlast.PragmaStmt{Name: "cache_info"}
	case sqlt.Use:
		return &sqlast.UseStmt{DB: "main"}
	case sqlt.Analyze:
		if g.Rng.Intn(2) == 0 {
			return &sqlast.AnalyzeStmt{}
		}
		return &sqlast.AnalyzeStmt{Table: g.table()}
	case sqlt.Vacuum:
		return &sqlast.VacuumStmt{Full: g.Rng.Intn(3) == 0, Table: g.table()}
	case sqlt.OptimizeTable:
		return &sqlast.MaintenanceStmt{What: t, Table: g.table()}
	case sqlt.CheckTable:
		return &sqlast.MaintenanceStmt{What: t, Table: g.table()}
	case sqlt.Flush:
		return &sqlast.FlushStmt{What: g.pick([]string{"TABLES", "LOGS", "PRIVILEGES"})}
	case sqlt.Checkpoint:
		return &sqlast.CheckpointStmt{}
	case sqlt.Discard:
		return &sqlast.DiscardStmt{What: g.pick([]string{"ALL", "PLANS", "TEMP", "SEQUENCES"})}
	case sqlt.Prepare:
		return &sqlast.PrepareStmt{Name: g.pick(prepNames), Stmt: g.selectStmt(1)}
	case sqlt.Execute:
		return &sqlast.ExecuteStmt{Name: g.pick(prepNames)}
	case sqlt.Deallocate:
		return &sqlast.DeallocateStmt{Name: g.pick(prepNames)}
	case sqlt.DeclareCursor:
		return &sqlast.DeclareCursorStmt{Name: g.pick(cursorNames), Query: g.selectStmt(1)}
	case sqlt.Fetch:
		return &sqlast.FetchStmt{Count: int64(g.Rng.Intn(5)), Cursor: g.pick(cursorNames)}
	case sqlt.CloseCursor:
		return &sqlast.CloseCursorStmt{Name: g.pick(cursorNames)}
	case sqlt.Listen:
		return &sqlast.ListenStmt{Channel: g.pick(chanNames)}
	case sqlt.Notify:
		return &sqlast.NotifyStmt{Channel: g.pick(chanNames), Payload: "p"}
	case sqlt.Unlisten:
		return &sqlast.UnlistenStmt{Channel: g.pick(chanNames)}
	case sqlt.Cluster:
		return &sqlast.ClusterStmt{Table: g.table(), Index: g.pick(indexNames)}
	default:
		// fall back to a harmless query so callers always get a statement
		return g.selectStmt(0)
	}
}

func (g *Generator) dropTarget(t sqlt.Type) string {
	switch t {
	case sqlt.DropTable:
		return g.table()
	case sqlt.DropView, sqlt.DropMaterializedView:
		return g.pick(viewNames)
	case sqlt.DropIndex:
		return g.pick(indexNames)
	case sqlt.DropTrigger:
		return g.pick(trigNames)
	case sqlt.DropSequence:
		return g.pick(seqNames)
	case sqlt.DropSchema:
		return g.pick(schemaNames)
	case sqlt.DropFunction:
		return g.pick(funcNames)
	case sqlt.DropProcedure:
		return g.pick(procNames)
	case sqlt.DropRule:
		return g.pick(ruleNames)
	case sqlt.DropDomain:
		return g.pick(domainNames)
	case sqlt.DropType:
		return g.pick(enumNames)
	case sqlt.DropExtension:
		return g.pick(extNames)
	case sqlt.DropRole, sqlt.DropUser:
		return g.pick(roleNames)
	default:
		return g.pick(dbNames)
	}
}

// RandomType picks a random statement type from the generator's dialect.
func (g *Generator) RandomType() sqlt.Type {
	ts := g.Dialect.Types()
	return ts[g.Rng.Intn(len(ts))]
}
