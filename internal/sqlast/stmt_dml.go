package sqlast

import (
	"strings"

	"github.com/seqfuzz/lego/internal/sqlt"
)

// ---------------------------------------------------------------------------
// DML

// InsertStmt is INSERT [IGNORE] INTO table [(cols)] VALUES (...) | query,
// and its REPLACE variant.
type InsertStmt struct {
	Table               string
	Cols                []string
	Rows                [][]Expr    // one of Rows / Query
	Query               *SelectStmt // INSERT ... SELECT
	IsReplace           bool        // REPLACE INTO (MySQL family)
	Ignore              bool        // INSERT IGNORE (MySQL family)
	Returning           []Expr      // RETURNING (PostgreSQL)
	OnConflictDoNothing bool
}

// Type implements Statement.
func (s *InsertStmt) Type() sqlt.Type {
	if s.IsReplace {
		return sqlt.Replace
	}
	return sqlt.Insert
}

// SQL implements Statement.
func (s *InsertStmt) SQL() string {
	var sb strings.Builder
	sb.Grow(64)
	if s.IsReplace {
		sb.WriteString("REPLACE")
	} else {
		sb.WriteString("INSERT")
		if s.Ignore {
			sb.WriteString(" IGNORE")
		}
	}
	sb.WriteString(" INTO ")
	sb.WriteString(s.Table)
	if len(s.Cols) > 0 {
		sb.WriteString(" (" + strings.Join(s.Cols, ", ") + ")")
	}
	if s.Query != nil {
		sb.WriteByte(' ')
		sb.WriteString(s.Query.SQL())
	} else {
		sb.WriteString(" VALUES ")
		for i, row := range s.Rows {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteByte('(')
			for j, e := range row {
				if j > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(e.SQL())
			}
			sb.WriteByte(')')
		}
	}
	if s.OnConflictDoNothing {
		sb.WriteString(" ON CONFLICT DO NOTHING")
	}
	if len(s.Returning) > 0 {
		sb.WriteString(" RETURNING ")
		for i, e := range s.Returning {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.SQL())
		}
	}
	return sb.String()
}

// Assignment is one SET col = expr element.
type Assignment struct {
	Col   string
	Value Expr
}

// SQL renders the assignment.
func (a Assignment) SQL() string { return a.Col + " = " + a.Value.SQL() }

// UpdateStmt is UPDATE table SET ... [WHERE ...] [ORDER BY ...] [LIMIT n].
type UpdateStmt struct {
	Table   string
	Sets    []Assignment
	Where   Expr
	OrderBy []OrderItem
	Limit   Expr
}

// Type implements Statement.
func (*UpdateStmt) Type() sqlt.Type { return sqlt.Update }

// SQL implements Statement.
func (s *UpdateStmt) SQL() string {
	var sb strings.Builder
	sb.Grow(48)
	sb.WriteString("UPDATE " + s.Table + " SET ")
	for i, a := range s.Sets {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.SQL())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.SQL())
	}
	writeOrderLimit(&sb, s.OrderBy, s.Limit, nil)
	return sb.String()
}

// DeleteStmt is DELETE FROM table [WHERE ...] [ORDER BY ...] [LIMIT n].
type DeleteStmt struct {
	Table     string
	Where     Expr
	OrderBy   []OrderItem
	Limit     Expr
	Returning []Expr
}

// Type implements Statement.
func (*DeleteStmt) Type() sqlt.Type { return sqlt.Delete }

// SQL implements Statement.
func (s *DeleteStmt) SQL() string {
	var sb strings.Builder
	sb.Grow(48)
	sb.WriteString("DELETE FROM " + s.Table)
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.SQL())
	}
	writeOrderLimit(&sb, s.OrderBy, s.Limit, nil)
	if len(s.Returning) > 0 {
		sb.WriteString(" RETURNING ")
		for i, e := range s.Returning {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.SQL())
		}
	}
	return sb.String()
}

// MergeStmt is a simplified MERGE INTO target USING source ON cond
// WHEN MATCHED THEN UPDATE SET ... WHEN NOT MATCHED THEN INSERT VALUES (...).
type MergeStmt struct {
	Target         string
	Source         string
	On             Expr
	MatchedSet     []Assignment // empty means WHEN MATCHED THEN DELETE
	NotMatchedVals []Expr       // nil means no WHEN NOT MATCHED arm
}

// Type implements Statement.
func (*MergeStmt) Type() sqlt.Type { return sqlt.Merge }

// SQL implements Statement.
func (s *MergeStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("MERGE INTO " + s.Target + " USING " + s.Source + " ON " + s.On.SQL())
	if len(s.MatchedSet) > 0 {
		sb.WriteString(" WHEN MATCHED THEN UPDATE SET ")
		for i, a := range s.MatchedSet {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.SQL())
		}
	} else {
		sb.WriteString(" WHEN MATCHED THEN DELETE")
	}
	if s.NotMatchedVals != nil {
		sb.WriteString(" WHEN NOT MATCHED THEN INSERT VALUES (")
		for i, e := range s.NotMatchedVals {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.SQL())
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// CopyStmt is COPY table TO STDOUT / COPY table FROM STDIN [WITH CSV].
// The query form COPY (SELECT ...) TO STDOUT is also supported.
type CopyStmt struct {
	Table string
	Query *SelectStmt // query form; exclusive with Table
	From  bool        // FROM STDIN (load) vs TO STDOUT (dump)
	CSV   bool
	Data  string // inline payload for COPY FROM
}

// Type implements Statement.
func (s *CopyStmt) Type() sqlt.Type {
	if s.From {
		return sqlt.CopyFrom
	}
	return sqlt.CopyTo
}

// SQL implements Statement.
func (s *CopyStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("COPY ")
	if s.Query != nil {
		sb.WriteString("(" + s.Query.SQL() + ")")
	} else {
		sb.WriteString(s.Table)
	}
	if s.From {
		sb.WriteString(" FROM STDIN")
	} else {
		sb.WriteString(" TO STDOUT")
	}
	if s.CSV {
		sb.WriteString(" CSV")
	}
	return sb.String()
}

// LoadDataStmt is a simplified LOAD DATA INFILE 'src' INTO TABLE t.
type LoadDataStmt struct {
	File  string
	Table string
}

// Type implements Statement.
func (*LoadDataStmt) Type() sqlt.Type { return sqlt.LoadData }

// SQL implements Statement.
func (s *LoadDataStmt) SQL() string {
	return "LOAD DATA INFILE '" + strings.ReplaceAll(s.File, "'", "''") + "' INTO TABLE " + s.Table
}

// CallStmt is CALL proc(args).
type CallStmt struct {
	Name string
	Args []Expr
}

// Type implements Statement.
func (*CallStmt) Type() sqlt.Type { return sqlt.Call }

// SQL implements Statement.
func (s *CallStmt) SQL() string {
	args := make([]string, len(s.Args))
	for i, a := range s.Args {
		args[i] = a.SQL()
	}
	return "CALL " + s.Name + "(" + strings.Join(args, ", ") + ")"
}

// DoStmt is DO expr — evaluate and discard.
type DoStmt struct{ Body Expr }

// Type implements Statement.
func (*DoStmt) Type() sqlt.Type { return sqlt.Do }

// SQL implements Statement.
func (s *DoStmt) SQL() string { return "DO " + maybeParen(s.Body) }

func writeOrderLimit(sb *strings.Builder, order []OrderItem, limit, offset Expr) {
	if len(order) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range order {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.SQL())
		}
	}
	if limit != nil {
		sb.WriteString(" LIMIT " + limit.SQL())
	}
	if offset != nil {
		sb.WriteString(" OFFSET " + offset.SQL())
	}
}

// ---------------------------------------------------------------------------
// DQL

// SelectItem is one projection element.
type SelectItem struct {
	X     Expr
	Alias string
}

// SQL renders the projection element.
func (s SelectItem) SQL() string {
	if s.Alias != "" {
		return s.X.SQL() + " AS " + s.Alias
	}
	return s.X.SQL()
}

// JoinKind is the join flavour.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinRight
	JoinCross
)

// String renders the join keywords.
func (k JoinKind) String() string {
	switch k {
	case JoinLeft:
		return "LEFT JOIN"
	case JoinRight:
		return "RIGHT JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return "JOIN"
	}
}

// TableRef is a FROM-clause source.
type TableRef interface {
	tableRefNode()
	// SQL renders the reference.
	SQL() string
	// Clone returns a deep, aliasing-free copy of the reference.
	Clone() TableRef
}

// BaseTable names a table or view.
type BaseTable struct {
	Name  string
	Alias string
}

func (*BaseTable) tableRefNode() {}

// SQL renders the base-table reference.
func (t *BaseTable) SQL() string {
	if t.Alias != "" {
		return t.Name + " AS " + t.Alias
	}
	return t.Name
}

// JoinRef is L <join kind> R [ON cond].
type JoinRef struct {
	Kind JoinKind
	L, R TableRef
	On   Expr // nil for CROSS JOIN
}

func (*JoinRef) tableRefNode() {}

// SQL renders the join.
func (t *JoinRef) SQL() string {
	s := t.L.SQL() + " " + t.Kind.String() + " " + t.R.SQL()
	if t.On != nil {
		s += " ON " + t.On.SQL()
	}
	return s
}

// SubqueryRef is (SELECT ...) AS alias.
type SubqueryRef struct {
	Query *SelectStmt
	Alias string
}

func (*SubqueryRef) tableRefNode() {}

// SQL renders the derived table.
func (t *SubqueryRef) SQL() string {
	return "(" + t.Query.SQL() + ") AS " + t.Alias
}

// SetOp is a set operation linking two SELECT bodies.
type SetOp uint8

// Set operations.
const (
	SetNone SetOp = iota
	SetUnion
	SetUnionAll
	SetExcept
	SetIntersect
)

// String renders the set-operation keywords.
func (s SetOp) String() string {
	switch s {
	case SetUnion:
		return "UNION"
	case SetUnionAll:
		return "UNION ALL"
	case SetExcept:
		return "EXCEPT"
	case SetIntersect:
		return "INTERSECT"
	default:
		return ""
	}
}

// SelectStmt is the full query form, including optional trailing set
// operation and SELECT INTO.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	Into     string // SELECT ... INTO newtable
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr
	Offset   Expr
	Op       SetOp
	Right    *SelectStmt // rhs of the set operation
}

// Type implements Statement.
func (s *SelectStmt) Type() sqlt.Type {
	if s.Into != "" {
		return sqlt.SelectInto
	}
	return sqlt.Select
}

// SQL implements Statement.
//
//lego:hotpath
func (s *SelectStmt) SQL() string {
	var sb strings.Builder
	sb.Grow(64)
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.SQL())
	}
	if s.Into != "" {
		sb.WriteString(" INTO " + s.Into)
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, f := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(f.SQL())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.SQL())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.SQL())
	}
	if s.Op != SetNone && s.Right != nil {
		sb.WriteString(" " + s.Op.String() + " " + s.Right.SQL())
	}
	writeOrderLimit(&sb, s.OrderBy, s.Limit, s.Offset)
	return sb.String()
}

// TableStmtNode is the PostgreSQL shorthand `TABLE name`.
type TableStmtNode struct{ Name string }

// Type implements Statement.
func (*TableStmtNode) Type() sqlt.Type { return sqlt.TableStmt }

// SQL implements Statement.
func (s *TableStmtNode) SQL() string { return "TABLE " + s.Name }

// ValuesStmtNode is a standalone VALUES (...), (...) statement.
type ValuesStmtNode struct{ Rows [][]Expr }

// Type implements Statement.
func (*ValuesStmtNode) Type() sqlt.Type { return sqlt.ValuesStmt }

// SQL implements Statement.
func (s *ValuesStmtNode) SQL() string {
	var sb strings.Builder
	sb.WriteString("VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		for j, e := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.SQL())
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// CTE is one WITH-clause element.
type CTE struct {
	Name string
	Cols []string
	Body Statement // SELECT or DML (writable CTE)
}

// SQL renders the CTE.
func (c CTE) SQL() string {
	s := c.Name
	if len(c.Cols) > 0 {
		s += " (" + strings.Join(c.Cols, ", ") + ")"
	}
	return s + " AS (" + c.Body.SQL() + ")"
}

// WithStmt is WITH ctes body. Its statement type is WithSelect when both the
// body and all CTEs are queries, and WithDML when any part manipulates data
// (the writable-CTE form at the centre of the paper's case study).
type WithStmt struct {
	CTEs []CTE
	Body Statement
}

// Type implements Statement.
func (s *WithStmt) Type() sqlt.Type {
	if isDML(s.Body) {
		return sqlt.WithDML
	}
	for _, c := range s.CTEs {
		if isDML(c.Body) {
			return sqlt.WithDML
		}
	}
	return sqlt.WithSelect
}

func isDML(s Statement) bool {
	switch s.(type) {
	case *InsertStmt, *UpdateStmt, *DeleteStmt, *MergeStmt:
		return true
	}
	return false
}

// SQL implements Statement.
func (s *WithStmt) SQL() string {
	var sb strings.Builder
	sb.Grow(64)
	sb.WriteString("WITH ")
	for i, c := range s.CTEs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.SQL())
	}
	sb.WriteByte(' ')
	sb.WriteString(s.Body.SQL())
	return sb.String()
}

// ExplainStmt is EXPLAIN [ANALYZE] stmt.
type ExplainStmt struct {
	Analyze bool
	Stmt    Statement
}

// Type implements Statement.
func (*ExplainStmt) Type() sqlt.Type { return sqlt.Explain }

// SQL implements Statement.
func (s *ExplainStmt) SQL() string {
	if s.Analyze {
		return "EXPLAIN ANALYZE " + s.Stmt.SQL()
	}
	return "EXPLAIN " + s.Stmt.SQL()
}

// ShowStmt is SHOW name (TABLES, DATABASES, or a variable).
type ShowStmt struct{ Name string }

// Type implements Statement.
func (*ShowStmt) Type() sqlt.Type { return sqlt.Show }

// SQL implements Statement.
func (s *ShowStmt) SQL() string { return "SHOW " + s.Name }

// DescribeStmt is DESCRIBE table.
type DescribeStmt struct{ Table string }

// Type implements Statement.
func (*DescribeStmt) Type() sqlt.Type { return sqlt.Describe }

// SQL implements Statement.
func (s *DescribeStmt) SQL() string { return "DESCRIBE " + s.Table }

// ---------------------------------------------------------------------------
// Helpers

// LimitLit builds the integer literal used for LIMIT/OFFSET clauses.
func LimitLit(n int64) Expr { return IntLit(n) }
