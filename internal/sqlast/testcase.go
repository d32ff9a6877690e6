package sqlast

import (
	"strings"

	"github.com/seqfuzz/lego/internal/sqlt"
)

// TestCase is a fuzzing input: an ordered sequence of SQL statements
// (paper §II — "a test case always consists of a sequence of SQL
// statements").
type TestCase []Statement

// SQL renders the test case as a semicolon-terminated script. Each
// statement is rendered once and the builder is sized exactly; the renders
// are held in a stack array for test cases of up to eight statements.
func (tc TestCase) SQL() string {
	var buf [8]string
	parts := buf[:0]
	n := 0
	for _, s := range tc {
		r := s.SQL()
		parts = append(parts, r)
		n += len(r) + len(";\n")
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, r := range parts {
		sb.WriteString(r)
		sb.WriteString(";\n")
	}
	return sb.String()
}

// Types returns the test case's SQL Type Sequence.
func (tc TestCase) Types() sqlt.Sequence {
	seq := make(sqlt.Sequence, len(tc))
	for i, s := range tc {
		seq[i] = s.Type()
	}
	return seq
}

// StatementTables extracts the table/view names a statement reads or
// writes. It is a conservative over-approximation used by the dependency
// fixer and by seed-structure harvesting; expressions' scalar subqueries are
// included.
func StatementTables(s Statement) []string {
	var out []string
	add := func(name string) {
		if name == "" {
			return
		}
		for _, n := range out {
			if n == name {
				return
			}
		}
		out = append(out, name)
	}
	var fromRef func(r TableRef)
	var fromSelect func(q *SelectStmt)
	fromExpr := func(e Expr) {
		WalkExpr(e, func(x Expr) {
			//lego:exhaustive Expr statements
			switch v := x.(type) {
			case *Subquery:
				fromSelect(v.Query)
			case *ExistsExpr:
				fromSelect(v.Query)
			case *InExpr:
				if v.Query != nil {
					fromSelect(v.Query)
				}
			}
		})
	}
	fromRef = func(r TableRef) {
		//lego:exhaustive TableRef
		switch v := r.(type) {
		case *BaseTable:
			add(v.Name)
		case *JoinRef:
			fromRef(v.L)
			fromRef(v.R)
			fromExpr(v.On)
		case *SubqueryRef:
			fromSelect(v.Query)
		}
	}
	fromSelect = func(q *SelectStmt) {
		if q == nil {
			return
		}
		for _, it := range q.Items {
			fromExpr(it.X)
		}
		for _, f := range q.From {
			fromRef(f)
		}
		fromExpr(q.Where)
		for _, g := range q.GroupBy {
			fromExpr(g)
		}
		fromExpr(q.Having)
		for _, o := range q.OrderBy {
			fromExpr(o.X)
		}
		fromSelect(q.Right)
	}

	//lego:exhaustive Statement children
	switch v := s.(type) {
	case *CreateTableStmt:
		add(v.Name)
	case *CreateViewStmt:
		add(v.Name)
		fromSelect(v.Query)
	case *CreateIndexStmt:
		add(v.Table)
	case *CreateTriggerStmt:
		add(v.Table)
		for _, t := range StatementTables(v.Body) {
			add(t)
		}
	case *CreateRuleStmt:
		add(v.Table)
		if v.Action != nil {
			for _, t := range StatementTables(v.Action) {
				add(t)
			}
		}
	case *AlterTableStmt:
		add(v.Table)
	case *DropStmt:
		switch v.What {
		case sqlt.DropTable, sqlt.DropView, sqlt.DropMaterializedView:
			add(v.Name)
		}
		add(v.OnTable)
	case *RenameTableStmt:
		add(v.From)
	case *TruncateStmt:
		add(v.Table)
	case *RefreshMatViewStmt:
		add(v.Name)
	case *InsertStmt:
		add(v.Table)
		for _, row := range v.Rows {
			for _, e := range row {
				fromExpr(e)
			}
		}
		fromSelect(v.Query)
	case *UpdateStmt:
		add(v.Table)
		for _, a := range v.Sets {
			fromExpr(a.Value)
		}
		fromExpr(v.Where)
	case *DeleteStmt:
		add(v.Table)
		fromExpr(v.Where)
	case *MergeStmt:
		add(v.Target)
		add(v.Source)
		fromExpr(v.On)
	case *CopyStmt:
		add(v.Table)
		fromSelect(v.Query)
	case *LoadDataStmt:
		add(v.Table)
	case *SelectStmt:
		fromSelect(v)
	case *TableStmtNode:
		add(v.Name)
	case *WithStmt:
		for _, c := range v.CTEs {
			for _, t := range StatementTables(c.Body) {
				add(t)
			}
		}
		for _, t := range StatementTables(v.Body) {
			add(t)
		}
	case *ExplainStmt:
		for _, t := range StatementTables(v.Stmt) {
			add(t)
		}
	case *DescribeStmt:
		add(v.Table)
	case *GrantStmt:
		add(v.Table)
	case *LockTableStmt:
		add(v.Table)
	case *AnalyzeStmt:
		add(v.Table)
	case *VacuumStmt:
		add(v.Table)
	case *MaintenanceStmt:
		add(v.Table)
	case *DeclareCursorStmt:
		fromSelect(v.Query)
	case *ClusterStmt:
		add(v.Table)
	case *PrepareStmt:
		for _, t := range StatementTables(v.Stmt) {
			add(t)
		}
	case *CreateFunctionStmt:
		fromExpr(v.Body)
	case *CreateProcedureStmt:
		for _, t := range StatementTables(v.Body) {
			add(t)
		}
	case *CreateDomainStmt:
		fromExpr(v.Check)
	case *AlterSystemStmt:
		fromExpr(v.Value)
	case *SetVarStmt:
		fromExpr(v.Value)
	case *PragmaStmt:
		fromExpr(v.Value)
	case *CallStmt:
		for _, a := range v.Args {
			fromExpr(a)
		}
	case *DoStmt:
		fromExpr(v.Body)
	case *ExecuteStmt:
		for _, a := range v.Args {
			fromExpr(a)
		}
	case *ValuesStmtNode:
		for _, row := range v.Rows {
			for _, e := range row {
				fromExpr(e)
			}
		}
	}
	return out
}
