package sqlast

import (
	"slices"
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
	return tc.AppendTypes(make(sqlt.Sequence, 0, len(tc)))
}

// AppendTypes appends the test case's SQL Type Sequence to seq.
func (tc TestCase) AppendTypes(seq sqlt.Sequence) sqlt.Sequence {
	for _, s := range tc {
		seq = append(seq, s.Type())
	}
	return seq
}

// SelectTables returns the tables and views a query reads, each once, in
// the order met: those in FROM and its joins, in derived tables, in the
// right arm of a set operation, and in subqueries anywhere in its
// expressions. DROP TABLE ... CASCADE uses it to find the views that depend
// on a table.
func SelectTables(q *SelectStmt) []string {
	var out []string
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
				fromSelect(v.Query)
			}
		})
	}
	fromRef = func(r TableRef) {
		//lego:exhaustive TableRef
		switch v := r.(type) {
		case *BaseTable:
			if v.Name != "" && !slices.Contains(out, v.Name) {
				out = append(out, v.Name)
			}
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
	fromSelect(q)
	return out
}
