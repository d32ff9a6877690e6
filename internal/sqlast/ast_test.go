package sqlast

import (
	"reflect"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/sqlt"
)

func TestLiteralSQL(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{NullLit(), "NULL"},
		{IntLit(42), "42"},
		{IntLit(-7), "-7"},
		{FloatLit(2.5), "2.5"},
		{FloatLit(4), "4.0"}, // integral floats keep a decimal marker
		{StringLit("a"), "'a'"},
		{StringLit("it's"), "'it''s'"},
		{BoolLit(true), "TRUE"},
		{BoolLit(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.e.SQL(); got != c.want {
			t.Errorf("SQL() = %q, want %q", got, c.want)
		}
	}
}

func TestExprSQL(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&ColRef{Name: "a"}, "a"},
		{&ColRef{Table: "t", Name: "a"}, "t.a"},
		{&Star{}, "*"},
		{&Star{Table: "t"}, "t.*"},
		{&Binary{Op: "+", L: IntLit(1), R: IntLit(2)}, "(1 + 2)"},
		{&Unary{Op: "-", X: &ColRef{Name: "a"}}, "- a"},
		{&Unary{Op: "NOT", X: BoolLit(true)}, "NOT (TRUE)"},
		{&FuncCall{Name: "COUNT", Star: true}, "COUNT(*)"},
		{&FuncCall{Name: "SUM", Args: []Expr{&ColRef{Name: "a"}}, Distinct: true}, "SUM(DISTINCT a)"},
		{&IsNullExpr{X: &ColRef{Name: "a"}}, "a IS NULL"},
		{&IsNullExpr{X: &ColRef{Name: "a"}, Not: true}, "a IS NOT NULL"},
		{&LikeExpr{X: &ColRef{Name: "a"}, Pattern: StringLit("x%")}, "a LIKE 'x%'"},
		{&BetweenExpr{X: &ColRef{Name: "a"}, Lo: IntLit(1), Hi: IntLit(2)}, "a BETWEEN 1 AND 2"},
		{&InExpr{X: &ColRef{Name: "a"}, List: []Expr{IntLit(1), IntLit(2)}}, "a IN (1, 2)"},
		{&CastExpr{X: IntLit(1), TypeName: "TEXT"}, "CAST(1 AS TEXT)"},
		{&CaseExpr{Whens: []CaseWhen{{Cond: BoolLit(true), Result: IntLit(1)}}, Else: IntLit(0)},
			"CASE WHEN TRUE THEN 1 ELSE 0 END"},
	}
	for _, c := range cases {
		if got := c.e.SQL(); got != c.want {
			t.Errorf("SQL() = %q, want %q", got, c.want)
		}
	}
}

func TestWindowSpecSQL(t *testing.T) {
	fc := &FuncCall{
		Name: "SUM",
		Args: []Expr{&ColRef{Name: "v"}},
		Over: &WindowSpec{
			PartitionBy: []Expr{&ColRef{Name: "g"}},
			OrderBy:     []OrderItem{{X: &ColRef{Name: "v"}, Desc: true}},
		},
	}
	want := "SUM(v) OVER (PARTITION BY g ORDER BY v DESC)"
	if fc.SQL() != want {
		t.Fatalf("got %q, want %q", fc.SQL(), want)
	}
}

func TestStatementTypes(t *testing.T) {
	cases := []struct {
		s    Statement
		want sqlt.Type
	}{
		{&CreateViewStmt{Name: "v", Query: &SelectStmt{}}, sqlt.CreateView},
		{&CreateViewStmt{Name: "v", Materialized: true, Query: &SelectStmt{}}, sqlt.CreateMaterializedView},
		{&InsertStmt{Table: "t"}, sqlt.Insert},
		{&InsertStmt{Table: "t", IsReplace: true}, sqlt.Replace},
		{&SelectStmt{}, sqlt.Select},
		{&SelectStmt{Into: "t"}, sqlt.SelectInto},
		{&DropStmt{What: sqlt.DropDomain, Name: "d"}, sqlt.DropDomain},
		{&CreateRoleStmt{Name: "r"}, sqlt.CreateRole},
		{&CreateRoleStmt{Name: "u", IsUser: true}, sqlt.CreateUser},
		{&GrantStmt{}, sqlt.Grant},
		{&GrantStmt{Revoke: true}, sqlt.Revoke},
		{&TxnStmt{What: sqlt.Savepoint, Name: "s"}, sqlt.Savepoint},
	}
	for _, c := range cases {
		if got := c.s.Type(); got != c.want {
			t.Errorf("%T.Type() = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestWithStmtTypeClassification(t *testing.T) {
	sel := &SelectStmt{Items: []SelectItem{{X: IntLit(1)}}}
	ins := &InsertStmt{Table: "t", Rows: [][]Expr{{IntLit(1)}}}

	pureSelect := &WithStmt{CTEs: []CTE{{Name: "c", Body: sel}}, Body: sel}
	if pureSelect.Type() != sqlt.WithSelect {
		t.Error("pure-select WITH must be WithSelect")
	}
	writableCTE := &WithStmt{CTEs: []CTE{{Name: "c", Body: ins}}, Body: sel}
	if writableCTE.Type() != sqlt.WithDML {
		t.Error("writable CTE must be WithDML")
	}
	dmlBody := &WithStmt{CTEs: []CTE{{Name: "c", Body: sel}}, Body: ins}
	if dmlBody.Type() != sqlt.WithDML {
		t.Error("DML body must be WithDML")
	}
}

func TestTestCaseTypesAndSQL(t *testing.T) {
	tc := TestCase{
		&CreateTableStmt{Name: "t", Cols: []ColumnDef{{Name: "a", TypeName: "INT"}}},
		&InsertStmt{Table: "t", Rows: [][]Expr{{IntLit(1)}}},
		&SelectStmt{Items: []SelectItem{{X: &Star{}}}, From: []TableRef{&BaseTable{Name: "t"}}},
	}
	seq := tc.Types()
	want := sqlt.Sequence{sqlt.CreateTable, sqlt.Insert, sqlt.Select}
	if !seq.Equal(want) {
		t.Fatalf("types = %v", seq)
	}
	sql := tc.SQL()
	if strings.Count(sql, ";") != 3 {
		t.Fatalf("script must terminate each statement: %q", sql)
	}
}

// TestStatementTables pins SelectTables: tables in FROM and joins, derived
// tables, subqueries in expressions and a set operation's right arm, each
// named once.
func TestStatementTables(t *testing.T) {
	from := func(name string) *SelectStmt { return &SelectStmt{From: []TableRef{&BaseTable{Name: name}}} }
	cases := []struct {
		q    *SelectStmt
		want []string
	}{
		{&SelectStmt{From: []TableRef{&BaseTable{Name: "a"}, &BaseTable{Name: "b"}}}, []string{"a", "b"}},
		{&SelectStmt{From: []TableRef{&JoinRef{
			L: &BaseTable{Name: "x"}, R: &BaseTable{Name: "y"},
			On: &Binary{Op: "=", L: &ColRef{Name: "c"}, R: &ColRef{Name: "c"}},
		}}}, []string{"x", "y"}},
		{&SelectStmt{From: []TableRef{&SubqueryRef{Query: from("d"), Alias: "s"}}}, []string{"d"}},
		{&SelectStmt{From: []TableRef{&BaseTable{Name: "u"}}, Where: &ExistsExpr{Query: from("sub")}}, []string{"u", "sub"}},
		{&SelectStmt{Items: []SelectItem{{X: &Subquery{Query: from("s")}}}, Where: &InExpr{X: &ColRef{Name: "c"}, Query: from("i")}}, []string{"s", "i"}},
		{&SelectStmt{From: []TableRef{&BaseTable{Name: "l"}}, Op: SetUnion, Right: from("r")}, []string{"l", "r"}},
		{&SelectStmt{From: []TableRef{&BaseTable{Name: "t"}}, Op: SetUnion, Right: from("t")}, []string{"t"}},
		{&SelectStmt{Items: []SelectItem{{X: IntLit(1)}}}, nil},
	}
	for _, c := range cases {
		got := SelectTables(c.q)
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("%s: tables = %v, want %v", c.q.SQL(), got, c.want)
		}
	}
}

func TestRewriteExprReplacesLeaves(t *testing.T) {
	e := &Binary{Op: "+",
		L: &ColRef{Name: "a"},
		R: &Binary{Op: "*", L: IntLit(2), R: &ColRef{Name: "b"}},
	}
	got := RewriteExpr(e, func(x Expr) Expr {
		if _, isCol := x.(*ColRef); isCol {
			return IntLit(0)
		}
		return x
	})
	if got.SQL() != "(0 + (2 * 0))" {
		t.Fatalf("rewrite produced %q", got.SQL())
	}
}

func TestWalkExprVisitsAll(t *testing.T) {
	e := &CaseExpr{
		Operand: &ColRef{Name: "x"},
		Whens: []CaseWhen{{
			Cond:   &InExpr{X: &ColRef{Name: "y"}, List: []Expr{IntLit(1)}},
			Result: &BetweenExpr{X: &ColRef{Name: "z"}, Lo: IntLit(0), Hi: IntLit(9)},
		}},
		Else: &LikeExpr{X: &ColRef{Name: "w"}, Pattern: StringLit("%")},
	}
	var cols []string
	WalkExpr(e, func(x Expr) {
		if c, isCol := x.(*ColRef); isCol {
			cols = append(cols, c.Name)
		}
	})
	if len(cols) != 4 {
		t.Fatalf("visited cols = %v, want 4 refs", cols)
	}
}

// TestRewriteExprCopySharesUntouched: on a shared tree the copying rewrite
// writes no node, copies only the path from the root to a changed node
// (once per node, even when two of its children change), and shares every
// other subtree; a changed subquery is linked the same way. Without
// sharing it writes in place, as RewriteExpr does.
func TestRewriteExprCopySharesUntouched(t *testing.T) {
	build := func() (*Binary, *Binary, *Binary, *Subquery) {
		left := &Binary{Op: "=", L: &ColRef{Name: "a"}, R: IntLit(1)}
		right := &Binary{Op: ">", L: &ColRef{Name: "b"}, R: &ColRef{Name: "c"}}
		sub := &Subquery{Query: &SelectStmt{Items: []SelectItem{{X: &Star{}}}}}
		return &Binary{Op: "AND", L: left, R: &Binary{Op: "OR", L: right, R: sub}}, left, right, sub
	}
	renamed := &SelectStmt{Items: []SelectItem{{X: &ColRef{Name: "q"}}}}
	query := func(*SelectStmt) *SelectStmt { return renamed }
	renames := map[string]string{"b": "b2", "c": "c2"}
	rename := func(x Expr) Expr {
		if c, ok := x.(*ColRef); ok && renames[c.Name] != "" {
			return &ColRef{Name: renames[c.Name]}
		}
		return x
	}

	e, left, right, sub := build()
	before, _, _, _ := build()
	got := RewriteExprCopy(e, true, query, rename).(*Binary)
	if !reflect.DeepEqual(e, before) {
		t.Fatalf("the shared tree was written: %s", e.SQL())
	}
	if want := "((a = 1) AND ((b2 > c2) OR (SELECT q)))"; got.SQL() != want {
		t.Fatalf("rewrite rendered %q, want %q", got.SQL(), want)
	}
	or := got.R.(*Binary)
	switch {
	case got == e || or == e.R:
		t.Fatal("a node on a changed path was not copied")
	case got.L != left:
		t.Fatal("an unchanged subtree was copied")
	case or.L == right || or.R == sub:
		t.Fatal("a changed child was not copied")
	}
	// Two new column references and one copy each of right, the
	// subquery, OR and AND.
	if n := testing.AllocsPerRun(10, func() { RewriteExprCopy(e, true, query, rename) }); n != 6 {
		t.Fatalf("the rewrite allocated %v times, want 6", n)
	}

	e, _, right, _ = build()
	if got := RewriteExprCopy(e, false, nil, rename); got != e || e.R.(*Binary).L != right || right.L.(*ColRef).Name != "b2" {
		t.Fatalf("an owned tree was not rewritten in place: %s", e.SQL())
	}
}

func TestRewriteExprNil(t *testing.T) {
	if RewriteExpr(nil, func(x Expr) Expr { return x }) != nil {
		t.Fatal("nil in, nil out")
	}
	WalkExpr(nil, func(Expr) { t.Fatal("must not visit") })
}

func TestDropStmtRendering(t *testing.T) {
	cases := []struct {
		s    *DropStmt
		want string
	}{
		{&DropStmt{What: sqlt.DropTable, Name: "t"}, "DROP TABLE t"},
		{&DropStmt{What: sqlt.DropTable, Name: "t", IfExists: true, Cascade: true}, "DROP TABLE IF EXISTS t CASCADE"},
		{&DropStmt{What: sqlt.DropTrigger, Name: "tg", OnTable: "t"}, "DROP TRIGGER tg ON t"},
		{&DropStmt{What: sqlt.DropMaterializedView, Name: "m"}, "DROP MATERIALIZED VIEW m"},
	}
	for _, c := range cases {
		if got := c.s.SQL(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}
