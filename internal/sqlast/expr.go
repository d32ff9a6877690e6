// Package sqlast defines the abstract syntax tree shared by the parser, the
// minidb engine, and the fuzzer's instantiation machinery.
//
// The AST is the intermediate representation the paper describes (§III-B):
// statement structures are harvested from parsed seeds into a library, and
// synthesized SQL Type Sequences are instantiated by picking type-matched
// structures, concatenating them, and fixing cross-statement dependencies.
package sqlast

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Expr is any SQL scalar expression.
type Expr interface {
	exprNode()
	// SQL renders the expression as parseable SQL text.
	SQL() string
	// Clone returns a deep, aliasing-free copy of the expression.
	Clone() Expr
}

// LitKind discriminates literal values.
type LitKind uint8

// Literal kinds.
const (
	LitNull LitKind = iota
	LitInt
	LitFloat
	LitString
	LitBool
)

// Literal is a constant value.
type Literal struct {
	Kind  LitKind
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

// Convenience constructors for literals.
func NullLit() *Literal           { return &Literal{Kind: LitNull} }
func IntLit(v int64) *Literal     { return &Literal{Kind: LitInt, Int: v} }
func FloatLit(v float64) *Literal { return &Literal{Kind: LitFloat, Float: v} }
func StringLit(s string) *Literal { return &Literal{Kind: LitString, Str: s} }
func BoolLit(b bool) *Literal     { return &Literal{Kind: LitBool, Bool: b} }

func (*Literal) exprNode() {}

// SQL renders the literal.
func (l *Literal) SQL() string {
	switch l.Kind {
	case LitNull:
		return "NULL"
	case LitInt:
		return strconv.FormatInt(l.Int, 10)
	case LitFloat:
		s := strconv.FormatFloat(l.Float, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case LitString:
		return "'" + strings.ReplaceAll(l.Str, "'", "''") + "'"
	case LitBool:
		if l.Bool {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "NULL"
	}
}

// ColRef references a column, optionally qualified by table name.
type ColRef struct {
	Table string // optional qualifier
	Name  string
}

func (*ColRef) exprNode() {}

// SQL renders the column reference.
func (c *ColRef) SQL() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Star is the `*` (or `t.*`) projection item.
type Star struct {
	Table string // optional qualifier
}

func (*Star) exprNode() {}

// SQL renders the star item.
func (s *Star) SQL() string {
	if s.Table != "" {
		return s.Table + ".*"
	}
	return "*"
}

// Unary is a prefix operator application: -, +, NOT.
type Unary struct {
	Op string
	X  Expr
}

func (*Unary) exprNode() {}

// SQL renders the unary expression.
func (u *Unary) SQL() string {
	if u.Op == "NOT" {
		return "NOT (" + u.X.SQL() + ")"
	}
	return u.Op + " " + maybeParen(u.X)
}

// Binary is an infix operator application.
type Binary struct {
	Op string // +, -, *, /, %, ||, =, <>, <, <=, >, >=, AND, OR
	L  Expr
	R  Expr
}

func (*Binary) exprNode() {}

// SQL renders the binary expression with defensive parenthesisation.
func (b *Binary) SQL() string {
	return "(" + b.L.SQL() + " " + b.Op + " " + b.R.SQL() + ")"
}

// FuncCall is a (possibly aggregate or windowed) function invocation.
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
	Over     *WindowSpec
}

func (*FuncCall) exprNode() {}

// SQL renders the call.
func (f *FuncCall) SQL() string {
	var sb strings.Builder
	sb.WriteString(f.Name)
	sb.WriteByte('(')
	if f.Star {
		sb.WriteByte('*')
	} else {
		if f.Distinct {
			sb.WriteString("DISTINCT ")
		}
		for i, a := range f.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.SQL())
		}
	}
	sb.WriteByte(')')
	if f.Over != nil {
		sb.WriteString(" OVER (")
		sb.WriteString(f.Over.SQL())
		sb.WriteByte(')')
	}
	return sb.String()
}

// WindowSpec is a minimal window definition (PARTITION BY / ORDER BY).
type WindowSpec struct {
	PartitionBy []Expr
	OrderBy     []OrderItem
}

// SQL renders the window body (without the OVER wrapper).
func (w *WindowSpec) SQL() string {
	var parts []string
	if len(w.PartitionBy) > 0 {
		ps := make([]string, len(w.PartitionBy))
		for i, e := range w.PartitionBy {
			ps[i] = e.SQL()
		}
		parts = append(parts, "PARTITION BY "+strings.Join(ps, ", "))
	}
	if len(w.OrderBy) > 0 {
		os := make([]string, len(w.OrderBy))
		for i, o := range w.OrderBy {
			os[i] = o.SQL()
		}
		parts = append(parts, "ORDER BY "+strings.Join(os, ", "))
	}
	return strings.Join(parts, " ")
}

// CaseWhen is one WHEN cond THEN result arm.
type CaseWhen struct {
	Cond   Expr
	Result Expr
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // optional
	Whens   []CaseWhen
	Else    Expr // optional
}

func (*CaseExpr) exprNode() {}

// SQL renders the case expression.
func (c *CaseExpr) SQL() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if c.Operand != nil {
		sb.WriteByte(' ')
		sb.WriteString(c.Operand.SQL())
	}
	for _, w := range c.Whens {
		sb.WriteString(" WHEN ")
		sb.WriteString(w.Cond.SQL())
		sb.WriteString(" THEN ")
		sb.WriteString(w.Result.SQL())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE ")
		sb.WriteString(c.Else.SQL())
	}
	sb.WriteString(" END")
	return sb.String()
}

// InExpr is x [NOT] IN (list) or x [NOT] IN (subquery).
type InExpr struct {
	X     Expr
	Not   bool
	List  []Expr      // one of List / Query
	Query *SelectStmt // subquery form
}

func (*InExpr) exprNode() {}

// SQL renders the IN expression.
func (e *InExpr) SQL() string {
	var sb strings.Builder
	sb.WriteString(maybeParen(e.X))
	if e.Not {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	if e.Query != nil {
		sb.WriteString(e.Query.SQL())
	} else {
		for i, x := range e.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(x.SQL())
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X   Expr
	Not bool
	Lo  Expr
	Hi  Expr
}

func (*BetweenExpr) exprNode() {}

// SQL renders the BETWEEN expression.
func (e *BetweenExpr) SQL() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return maybeParen(e.X) + " " + not + "BETWEEN " + maybeParen(e.Lo) + " AND " + maybeParen(e.Hi)
}

// LikeExpr is x [NOT] LIKE pattern.
type LikeExpr struct {
	X       Expr
	Not     bool
	Pattern Expr
}

func (*LikeExpr) exprNode() {}

// SQL renders the LIKE expression.
func (e *LikeExpr) SQL() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return maybeParen(e.X) + " " + not + "LIKE " + maybeParen(e.Pattern)
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*IsNullExpr) exprNode() {}

// SQL renders the IS NULL test.
func (e *IsNullExpr) SQL() string {
	if e.Not {
		return maybeParen(e.X) + " IS NOT NULL"
	}
	return maybeParen(e.X) + " IS NULL"
}

// CastExpr is CAST(x AS type).
type CastExpr struct {
	X        Expr
	TypeName string
}

func (*CastExpr) exprNode() {}

// SQL renders the cast.
func (e *CastExpr) SQL() string {
	return "CAST(" + e.X.SQL() + " AS " + e.TypeName + ")"
}

// Subquery is a scalar subquery.
type Subquery struct {
	Query *SelectStmt
}

func (*Subquery) exprNode() {}

// SQL renders the scalar subquery.
func (e *Subquery) SQL() string { return "(" + e.Query.SQL() + ")" }

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Not   bool
	Query *SelectStmt
}

func (*ExistsExpr) exprNode() {}

// SQL renders the EXISTS test.
func (e *ExistsExpr) SQL() string {
	if e.Not {
		return "NOT EXISTS (" + e.Query.SQL() + ")"
	}
	return "EXISTS (" + e.Query.SQL() + ")"
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	X    Expr
	Desc bool
}

// SQL renders the order item.
func (o OrderItem) SQL() string {
	if o.Desc {
		return o.X.SQL() + " DESC"
	}
	return o.X.SQL()
}

func maybeParen(e Expr) string {
	switch e.(type) {
	case *Literal, *ColRef, *FuncCall, *Star, *Subquery, *CastExpr:
		return e.SQL()
	default:
		return "(" + e.SQL() + ")"
	}
}

// RewriteExpr applies f bottom-up over e, replacing each node with f's
// result. It is the workhorse of dependency fixing during instantiation.
// A nil input yields nil. A child pointer is written only when f changed
// the child, so a rewrite that changes nothing only reads the tree: shared,
// frozen statements can be walked by several goroutines at once.
func RewriteExpr(e Expr, f func(Expr) Expr) Expr {
	return (&rewriter{f: f}).expr(e)
}

// RewriteExprCopy is RewriteExpr for a tree that may be shared. With shared
// set, e is frozen and the rewrite writes none of its nodes: where a child's
// rewrite differs, it links the new child into a shallow copy of the
// parent, made at most once per node, and so on up to the root. The result
// shares every unchanged subtree with e. f must not write the nodes it is
// given either; it returns a replacement instead. Without shared, e is the
// caller's own and is written in place, as RewriteExpr writes it.
//
// query, when not nil, is called on the query of each scalar subquery,
// EXISTS and IN subquery, after the node's children and before f; a query
// it returns that differs is linked in like a rewritten child.
func RewriteExprCopy(e Expr, shared bool, query func(*SelectStmt) *SelectStmt, f func(Expr) Expr) Expr {
	return (&rewriter{shared: shared, query: query, f: f}).expr(e)
}

// rewriter is one RewriteExprCopy call's settings.
type rewriter struct {
	shared bool
	query  func(*SelectStmt) *SelectStmt
	f      func(Expr) Expr
}

// expr rewrites e's children, then e. Each case starts with e's node frozen
// when the tree is shared (fz), and writes it only through Own.
func (r *rewriter) expr(e Expr) Expr {
	if e == nil {
		return nil
	}
	fz := r.shared
	//lego:exhaustive Expr
	switch x := e.(type) {
	case *Literal, *ColRef, *Star:
		// leaves
	case *Unary:
		if c := r.expr(x.X); c != x.X {
			Own(&x, &fz).X = c
		}
		e = x
	case *Binary:
		if c := r.expr(x.L); c != x.L {
			Own(&x, &fz).L = c
		}
		if c := r.expr(x.R); c != x.R {
			Own(&x, &fz).R = c
		}
		e = x
	case *FuncCall:
		if xs, copied := OwnEach(x.Args, r.shared, r.expr); copied {
			Own(&x, &fz).Args = xs
		}
		if x.Over != nil {
			w, wfz := x.Over, r.shared
			if xs, copied := OwnEach(w.PartitionBy, r.shared, r.expr); copied {
				Own(&w, &wfz).PartitionBy = xs
			}
			if os, copied := OwnEach(w.OrderBy, r.shared, func(o OrderItem) OrderItem {
				o.X = r.expr(o.X)
				return o
			}); copied {
				Own(&w, &wfz).OrderBy = os
			}
			if w != x.Over {
				Own(&x, &fz).Over = w
			}
		}
		e = x
	case *CaseExpr:
		if c := r.expr(x.Operand); c != x.Operand {
			Own(&x, &fz).Operand = c
		}
		if ws, copied := OwnEach(x.Whens, r.shared, func(w CaseWhen) CaseWhen {
			w.Cond = r.expr(w.Cond)
			w.Result = r.expr(w.Result)
			return w
		}); copied {
			Own(&x, &fz).Whens = ws
		}
		if c := r.expr(x.Else); c != x.Else {
			Own(&x, &fz).Else = c
		}
		e = x
	case *InExpr:
		if c := r.expr(x.X); c != x.X {
			Own(&x, &fz).X = c
		}
		if xs, copied := OwnEach(x.List, r.shared, r.expr); copied {
			Own(&x, &fz).List = xs
		}
		if q := r.subquery(x.Query); q != x.Query {
			Own(&x, &fz).Query = q
		}
		e = x
	case *BetweenExpr:
		if c := r.expr(x.X); c != x.X {
			Own(&x, &fz).X = c
		}
		if c := r.expr(x.Lo); c != x.Lo {
			Own(&x, &fz).Lo = c
		}
		if c := r.expr(x.Hi); c != x.Hi {
			Own(&x, &fz).Hi = c
		}
		e = x
	case *LikeExpr:
		if c := r.expr(x.X); c != x.X {
			Own(&x, &fz).X = c
		}
		if c := r.expr(x.Pattern); c != x.Pattern {
			Own(&x, &fz).Pattern = c
		}
		e = x
	case *IsNullExpr:
		if c := r.expr(x.X); c != x.X {
			Own(&x, &fz).X = c
		}
		e = x
	case *CastExpr:
		if c := r.expr(x.X); c != x.X {
			Own(&x, &fz).X = c
		}
		e = x
	case *Subquery:
		if q := r.subquery(x.Query); q != x.Query {
			Own(&x, &fz).Query = q
		}
		e = x
	case *ExistsExpr:
		if q := r.subquery(x.Query); q != x.Query {
			Own(&x, &fz).Query = q
		}
		e = x
	default:
		panic(fmt.Sprintf("sqlast: RewriteExpr: unknown node %T", e))
	}
	return r.f(e)
}

// subquery hands a subquery expression's query to the query callback, if
// there is one; the statement-level walker that set it owns the query's
// internals.
func (r *rewriter) subquery(q *SelectStmt) *SelectStmt {
	if q == nil || r.query == nil {
		return q
	}
	return r.query(q)
}

// Own readies the node *n for a write and returns it. While *frozen, *n is
// a node of a shared, frozen tree: Own points *n at a shallow copy and
// clears *frozen, so each node is copied at most once; the caller then
// links *n into the node's parent in place of the original. A node's
// slices and pointed-to parts stay shared with the original until OwnSlice
// or Own copies them in turn.
func Own[T any](n **T, frozen *bool) *T {
	if *frozen {
		c := **n
		*n = &c
		*frozen = false
	}
	return *n
}

// OwnSlice is Own for the elements of a slice: while *frozen, it points *s
// at a copy of the slice and clears *frozen.
func OwnSlice[E any](s *[]E, frozen *bool) []E {
	if *frozen {
		*s = slices.Clone(*s)
		*frozen = false
	}
	return *s
}

// OwnEach replaces each element of s with fix's result, calling fix on the
// elements in order. With shared set, s is frozen: the first element fix
// changes copies s, and OwnEach returns the copy, with every change in it,
// and true. Otherwise it writes the changes into s and returns s and false.
func OwnEach[E comparable](s []E, shared bool, fix func(E) E) ([]E, bool) {
	copied := false
	for i, x := range s {
		if n := fix(x); n != x {
			if shared && !copied {
				s, copied = slices.Clone(s), true
			}
			s[i] = n
		}
	}
	return s, copied
}

// WalkExpr calls f on every node of e in depth-first order, descending into
// scalar subqueries' expressions is the caller's responsibility.
func WalkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	RewriteExpr(e, func(x Expr) Expr { f(x); return x })
}
