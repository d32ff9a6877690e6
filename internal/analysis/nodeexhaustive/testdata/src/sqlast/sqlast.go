// Package sqlast is a miniature node inventory for the nodeexhaustive
// fixtures: three node interfaces, a handful of implementors with varied
// reachability, and annotated switches in both modes.
package sqlast

// Statement is the statement node interface.
type Statement interface{ SQL() string }

// Expr is the expression node interface.
type Expr interface{ ExprSQL() string }

// TableRef is the table-reference node interface.
type TableRef interface{ RefSQL() string }

// SelectStmt reaches Exprs, TableRefs, and (via Right) a Statement.
type SelectStmt struct {
	Items []Expr
	From  []TableRef
	Right *SelectStmt
}

// SQL implements Statement.
func (*SelectStmt) SQL() string { return "SELECT" }

// InsertStmt reaches Exprs only.
type InsertStmt struct {
	Table string
	Rows  [][]Expr
}

// SQL implements Statement.
func (*InsertStmt) SQL() string { return "INSERT" }

// ExplainStmt directly carries a nested Statement.
type ExplainStmt struct{ Stmt Statement }

// SQL implements Statement.
func (*ExplainStmt) SQL() string { return "EXPLAIN" }

// BeginStmt is a leaf: no children at all.
type BeginStmt struct{}

// SQL implements Statement.
func (*BeginStmt) SQL() string { return "BEGIN" }

// Literal is a leaf expression.
type Literal struct{ Val int64 }

// ExprSQL implements Expr.
func (*Literal) ExprSQL() string { return "1" }

// Subquery carries a Statement node behind an Expr.
type Subquery struct{ Query *SelectStmt }

// ExprSQL implements Expr.
func (*Subquery) ExprSQL() string { return "(SELECT)" }

// BaseTable is a leaf table reference.
type BaseTable struct{ Name string }

// RefSQL implements TableRef.
func (*BaseTable) RefSQL() string { return "t" }

// JoinRef reaches further TableRefs and an Expr.
type JoinRef struct {
	L, R TableRef
	On   Expr
}

// RefSQL implements TableRef.
func (*JoinRef) RefSQL() string { return "join" }

// walkAll must cover every Statement but misses the leaf.
func walkAll(s Statement) {
	//lego:exhaustive Statement
	switch s.(type) { // want `type switch is not exhaustive over sqlast\.Statement \(all mode\): missing BeginStmt`
	case *SelectStmt, *InsertStmt, *ExplainStmt:
	}
}

// walkStatements must re-enter the walker for every statement-carrying node
// but misses ExplainStmt.
func walkStatements(s Statement) {
	//lego:exhaustive Statement statements
	switch s.(type) { // want `type switch is not exhaustive over sqlast\.Statement \(statements mode\): missing ExplainStmt`
	case *SelectStmt:
	}
}

// walkExprs is a complete Expr switch: clean.
func walkExprs(e Expr) {
	//lego:exhaustive Expr
	switch e.(type) {
	case *Literal, *Subquery:
	}
}

// walkRefs misses JoinRef.
func walkRefs(r TableRef) {
	//lego:exhaustive TableRef
	switch r.(type) { // want `type switch is not exhaustive over sqlast\.TableRef \(all mode\): missing JoinRef`
	case *BaseTable:
	}
}

// badDirective exercises the malformed-directive diagnostic ("Node" is not
// one of the three node interfaces; the trailing want marker also pushes the
// field count past the limit, either alone suffices).
func badDirective(s Statement) {
	//lego:exhaustive Node // want `malformed //lego:exhaustive`
	switch s.(type) {
	case *SelectStmt:
	}
}
