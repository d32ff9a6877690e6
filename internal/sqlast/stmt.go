package sqlast

import (
	"strconv"
	"strings"

	"github.com/seqfuzz/lego/internal/sqlt"
)

// Statement is any executable SQL statement.
type Statement interface {
	// Type is the statement's SQL type (paper §II); it drives Algorithm 2.
	Type() sqlt.Type
	// SQL renders the statement as parseable SQL text, without the
	// trailing semicolon.
	SQL() string
	// Clone returns a deep, aliasing-free copy of the statement that
	// renders byte-identical SQL (see clone.go).
	Clone() Statement
}

// ---------------------------------------------------------------------------
// DDL: CREATE

// FKRef is a REFERENCES clause on a column.
type FKRef struct {
	Table  string
	Column string // optional
}

// ColumnDef is one column in CREATE TABLE / ALTER TABLE ADD COLUMN.
type ColumnDef struct {
	Name       string
	TypeName   string // INT, BIGINT, FLOAT, TEXT, VARCHAR(n), BOOLEAN, ...
	NotNull    bool
	PrimaryKey bool
	Unique     bool
	Default    Expr   // optional
	Check      Expr   // optional
	References *FKRef // optional
}

// SQL renders the column definition.
func (c *ColumnDef) SQL() string {
	var sb strings.Builder
	sb.WriteString(c.Name)
	sb.WriteByte(' ')
	sb.WriteString(c.TypeName)
	if c.PrimaryKey {
		sb.WriteString(" PRIMARY KEY")
	}
	if c.Unique {
		sb.WriteString(" UNIQUE")
	}
	if c.NotNull {
		sb.WriteString(" NOT NULL")
	}
	if c.Default != nil {
		sb.WriteString(" DEFAULT ")
		sb.WriteString(maybeParen(c.Default))
	}
	if c.Check != nil {
		sb.WriteString(" CHECK (")
		sb.WriteString(c.Check.SQL())
		sb.WriteByte(')')
	}
	if c.References != nil {
		sb.WriteString(" REFERENCES ")
		sb.WriteString(c.References.Table)
		if c.References.Column != "" {
			sb.WriteString("(" + c.References.Column + ")")
		}
	}
	return sb.String()
}

// TableConstraint is a table-level constraint in CREATE TABLE.
type TableConstraint struct {
	Kind    string // "PRIMARY KEY", "UNIQUE", "CHECK", "FOREIGN KEY"
	Columns []string
	Check   Expr   // for CHECK
	RefTab  string // for FOREIGN KEY
	RefCols []string
}

// SQL renders the constraint.
func (t *TableConstraint) SQL() string {
	switch t.Kind {
	case "CHECK":
		return "CHECK (" + t.Check.SQL() + ")"
	case "FOREIGN KEY":
		s := "FOREIGN KEY (" + strings.Join(t.Columns, ", ") + ") REFERENCES " + t.RefTab
		if len(t.RefCols) > 0 {
			s += "(" + strings.Join(t.RefCols, ", ") + ")"
		}
		return s
	default:
		return t.Kind + " (" + strings.Join(t.Columns, ", ") + ")"
	}
}

// CreateTableStmt is CREATE [TEMPORARY] TABLE [IF NOT EXISTS] name (...).
type CreateTableStmt struct {
	Name        string
	Temp        bool
	IfNotExists bool
	Cols        []ColumnDef
	Constraints []TableConstraint
}

// Type implements Statement.
func (*CreateTableStmt) Type() sqlt.Type { return sqlt.CreateTable }

// SQL implements Statement.
func (s *CreateTableStmt) SQL() string {
	var sb strings.Builder
	sb.Grow(64)
	sb.WriteString("CREATE ")
	if s.Temp {
		sb.WriteString("TEMPORARY ")
	}
	sb.WriteString("TABLE ")
	if s.IfNotExists {
		sb.WriteString("IF NOT EXISTS ")
	}
	sb.WriteString(s.Name)
	sb.WriteString(" (")
	for i := range s.Cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(s.Cols[i].SQL())
	}
	for i := range s.Constraints {
		sb.WriteString(", ")
		sb.WriteString(s.Constraints[i].SQL())
	}
	sb.WriteByte(')')
	return sb.String()
}

// CreateViewStmt is CREATE [OR REPLACE] [MATERIALIZED] VIEW name AS query.
type CreateViewStmt struct {
	Name         string
	OrReplace    bool
	Materialized bool
	Cols         []string
	Query        *SelectStmt
}

// Type implements Statement.
func (s *CreateViewStmt) Type() sqlt.Type {
	if s.Materialized {
		return sqlt.CreateMaterializedView
	}
	return sqlt.CreateView
}

// SQL implements Statement.
func (s *CreateViewStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("CREATE ")
	if s.OrReplace {
		sb.WriteString("OR REPLACE ")
	}
	if s.Materialized {
		sb.WriteString("MATERIALIZED ")
	}
	sb.WriteString("VIEW ")
	sb.WriteString(s.Name)
	if len(s.Cols) > 0 {
		sb.WriteString(" (" + strings.Join(s.Cols, ", ") + ")")
	}
	sb.WriteString(" AS ")
	sb.WriteString(s.Query.SQL())
	return sb.String()
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX name ON table (cols).
type CreateIndexStmt struct {
	Name   string
	Unique bool
	Table  string
	Cols   []string
}

// Type implements Statement.
func (*CreateIndexStmt) Type() sqlt.Type { return sqlt.CreateIndex }

// SQL implements Statement.
func (s *CreateIndexStmt) SQL() string {
	u := ""
	if s.Unique {
		u = "UNIQUE "
	}
	return "CREATE " + u + "INDEX " + s.Name + " ON " + s.Table + " (" + strings.Join(s.Cols, ", ") + ")"
}

// TriggerTime is BEFORE or AFTER.
type TriggerTime uint8

// Trigger firing times.
const (
	TriggerBefore TriggerTime = iota
	TriggerAfter
)

// String renders the trigger time keyword.
func (t TriggerTime) String() string {
	if t == TriggerBefore {
		return "BEFORE"
	}
	return "AFTER"
}

// TriggerEvent is the statement kind the trigger fires on.
type TriggerEvent uint8

// Trigger events.
const (
	TriggerInsert TriggerEvent = iota
	TriggerUpdate
	TriggerDelete
)

// String renders the trigger event keyword.
func (e TriggerEvent) String() string {
	switch e {
	case TriggerInsert:
		return "INSERT"
	case TriggerUpdate:
		return "UPDATE"
	default:
		return "DELETE"
	}
}

// CreateTriggerStmt is CREATE TRIGGER name time event ON table
// FOR EACH ROW body.
type CreateTriggerStmt struct {
	Name  string
	Time  TriggerTime
	Event TriggerEvent
	Table string
	Body  Statement // a single DML statement
}

// Type implements Statement.
func (*CreateTriggerStmt) Type() sqlt.Type { return sqlt.CreateTrigger }

// SQL implements Statement.
func (s *CreateTriggerStmt) SQL() string {
	return "CREATE TRIGGER " + s.Name + " " + s.Time.String() + " " + s.Event.String() +
		" ON " + s.Table + " FOR EACH ROW " + s.Body.SQL()
}

// CreateSequenceStmt is CREATE SEQUENCE name [START WITH n] [INCREMENT BY n].
type CreateSequenceStmt struct {
	Name  string
	Start int64
	Inc   int64 // 0 means default 1
}

// Type implements Statement.
func (*CreateSequenceStmt) Type() sqlt.Type { return sqlt.CreateSequence }

// SQL implements Statement.
func (s *CreateSequenceStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("CREATE SEQUENCE " + s.Name)
	if s.Start != 0 {
		sb.WriteString(" START WITH " + strconv.FormatInt(s.Start, 10))
	}
	if s.Inc != 0 {
		sb.WriteString(" INCREMENT BY " + strconv.FormatInt(s.Inc, 10))
	}
	return sb.String()
}

// CreateSchemaStmt is CREATE SCHEMA name.
type CreateSchemaStmt struct{ Name string }

// Type implements Statement.
func (*CreateSchemaStmt) Type() sqlt.Type { return sqlt.CreateSchema }

// SQL implements Statement.
func (s *CreateSchemaStmt) SQL() string { return "CREATE SCHEMA " + s.Name }

// CreateFunctionStmt is CREATE FUNCTION name(params) RETURNS type AS expr.
// Functions are scalar SQL expressions over named parameters.
type CreateFunctionStmt struct {
	Name    string
	Params  []string
	Returns string
	Body    Expr
}

// Type implements Statement.
func (*CreateFunctionStmt) Type() sqlt.Type { return sqlt.CreateFunction }

// SQL implements Statement.
func (s *CreateFunctionStmt) SQL() string {
	return "CREATE FUNCTION " + s.Name + "(" + strings.Join(s.Params, ", ") + ") RETURNS " +
		s.Returns + " AS " + maybeParen(s.Body)
}

// CreateProcedureStmt is CREATE PROCEDURE name() AS stmt.
type CreateProcedureStmt struct {
	Name string
	Body Statement
}

// Type implements Statement.
func (*CreateProcedureStmt) Type() sqlt.Type { return sqlt.CreateProcedure }

// SQL implements Statement.
func (s *CreateProcedureStmt) SQL() string {
	return "CREATE PROCEDURE " + s.Name + "() AS " + s.Body.SQL()
}

// CreateRuleStmt is CREATE [OR REPLACE] RULE name AS ON event TO table
// DO [INSTEAD] action. This is the PostgreSQL rewrite-rule statement at the
// centre of the paper's case study (§V-B).
type CreateRuleStmt struct {
	Name      string
	OrReplace bool
	Event     TriggerEvent
	Table     string
	Instead   bool
	Action    Statement // DML or NOTIFY; nil means DO INSTEAD NOTHING
}

// Type implements Statement.
func (*CreateRuleStmt) Type() sqlt.Type { return sqlt.CreateRule }

// SQL implements Statement.
func (s *CreateRuleStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("CREATE ")
	if s.OrReplace {
		sb.WriteString("OR REPLACE ")
	}
	sb.WriteString("RULE " + s.Name + " AS ON " + s.Event.String() + " TO " + s.Table + " DO ")
	if s.Instead {
		sb.WriteString("INSTEAD ")
	}
	if s.Action == nil {
		sb.WriteString("NOTHING")
	} else {
		sb.WriteString(s.Action.SQL())
	}
	return sb.String()
}

// CreateDomainStmt is CREATE DOMAIN name AS base [CHECK (expr)].
type CreateDomainStmt struct {
	Name  string
	Base  string
	Check Expr // optional; VALUE refers to the domain value
}

// Type implements Statement.
func (*CreateDomainStmt) Type() sqlt.Type { return sqlt.CreateDomain }

// SQL implements Statement.
func (s *CreateDomainStmt) SQL() string {
	out := "CREATE DOMAIN " + s.Name + " AS " + s.Base
	if s.Check != nil {
		out += " CHECK (" + s.Check.SQL() + ")"
	}
	return out
}

// CreateTypeStmt is CREATE TYPE name AS ENUM ('a','b',...).
type CreateTypeStmt struct {
	Name   string
	Values []string
}

// Type implements Statement.
func (*CreateTypeStmt) Type() sqlt.Type { return sqlt.CreateType }

// SQL implements Statement.
func (s *CreateTypeStmt) SQL() string {
	vals := make([]string, len(s.Values))
	for i, v := range s.Values {
		vals[i] = "'" + strings.ReplaceAll(v, "'", "''") + "'"
	}
	return "CREATE TYPE " + s.Name + " AS ENUM (" + strings.Join(vals, ", ") + ")"
}

// CreateExtensionStmt is CREATE EXTENSION name.
type CreateExtensionStmt struct{ Name string }

// Type implements Statement.
func (*CreateExtensionStmt) Type() sqlt.Type { return sqlt.CreateExtension }

// SQL implements Statement.
func (s *CreateExtensionStmt) SQL() string { return "CREATE EXTENSION " + s.Name }

// CreateRoleStmt is CREATE ROLE/USER name [WITH option].
type CreateRoleStmt struct {
	Name   string
	IsUser bool // rendered as CREATE USER
	Option string
}

// Type implements Statement.
func (s *CreateRoleStmt) Type() sqlt.Type {
	if s.IsUser {
		return sqlt.CreateUser
	}
	return sqlt.CreateRole
}

// SQL implements Statement.
func (s *CreateRoleStmt) SQL() string {
	kw := "ROLE"
	if s.IsUser {
		kw = "USER"
	}
	out := "CREATE " + kw + " " + s.Name
	if s.Option != "" {
		out += " WITH " + s.Option
	}
	return out
}

// CreateDatabaseStmt is CREATE DATABASE name.
type CreateDatabaseStmt struct{ Name string }

// Type implements Statement.
func (*CreateDatabaseStmt) Type() sqlt.Type { return sqlt.CreateDatabase }

// SQL implements Statement.
func (s *CreateDatabaseStmt) SQL() string { return "CREATE DATABASE " + s.Name }

// ---------------------------------------------------------------------------
// DDL: ALTER

// AlterTableAction discriminates ALTER TABLE sub-commands.
type AlterTableAction uint8

// ALTER TABLE actions.
const (
	AlterAddColumn AlterTableAction = iota
	AlterDropColumn
	AlterRenameColumn
	AlterRenameTable
	AlterColumnType
	AlterColumnDefault
)

// AlterTableStmt is ALTER TABLE name <action>.
type AlterTableStmt struct {
	Table   string
	Action  AlterTableAction
	Col     ColumnDef // for AlterAddColumn / AlterColumnType / AlterColumnDefault
	OldName string    // for renames and drop column
	NewName string    // for renames
}

// Type implements Statement.
func (*AlterTableStmt) Type() sqlt.Type { return sqlt.AlterTable }

// SQL implements Statement.
func (s *AlterTableStmt) SQL() string {
	head := "ALTER TABLE " + s.Table + " "
	switch s.Action {
	case AlterAddColumn:
		return head + "ADD COLUMN " + s.Col.SQL()
	case AlterDropColumn:
		return head + "DROP COLUMN " + s.OldName
	case AlterRenameColumn:
		return head + "RENAME COLUMN " + s.OldName + " TO " + s.NewName
	case AlterRenameTable:
		return head + "RENAME TO " + s.NewName
	case AlterColumnType:
		return head + "ALTER COLUMN " + s.Col.Name + " TYPE " + s.Col.TypeName
	case AlterColumnDefault:
		if s.Col.Default == nil {
			return head + "ALTER COLUMN " + s.Col.Name + " DROP DEFAULT"
		}
		return head + "ALTER COLUMN " + s.Col.Name + " SET DEFAULT " + maybeParen(s.Col.Default)
	default:
		return head + "RENAME TO " + s.NewName
	}
}

// AlterSimpleStmt covers the single-object ALTER statements that only rename
// or set one option: ALTER VIEW/INDEX/SEQUENCE/ROLE/DATABASE.
type AlterSimpleStmt struct {
	What    sqlt.Type // one of AlterView, AlterIndex, AlterSequence, AlterRole, AlterDatabase
	Name    string
	NewName string // RENAME TO target (views, indexes)
	Restart int64  // ALTER SEQUENCE ... RESTART WITH
	Option  string // ALTER ROLE/DATABASE ... <option>
}

// Type implements Statement.
func (s *AlterSimpleStmt) Type() sqlt.Type { return s.What }

// SQL implements Statement.
func (s *AlterSimpleStmt) SQL() string {
	switch s.What {
	case sqlt.AlterView:
		return "ALTER VIEW " + s.Name + " RENAME TO " + s.NewName
	case sqlt.AlterIndex:
		return "ALTER INDEX " + s.Name + " RENAME TO " + s.NewName
	case sqlt.AlterSequence:
		return "ALTER SEQUENCE " + s.Name + " RESTART WITH " + strconv.FormatInt(s.Restart, 10)
	case sqlt.AlterRole:
		return "ALTER ROLE " + s.Name + " WITH " + s.Option
	default: // AlterDatabase
		return "ALTER DATABASE " + s.Name + " SET " + s.Option
	}
}

// AlterSystemStmt is ALTER SYSTEM SET setting = value.
type AlterSystemStmt struct {
	Setting string
	Value   Expr
}

// Type implements Statement.
func (*AlterSystemStmt) Type() sqlt.Type { return sqlt.AlterSystem }

// SQL implements Statement.
func (s *AlterSystemStmt) SQL() string {
	return "ALTER SYSTEM SET " + s.Setting + " = " + maybeParen(s.Value)
}

// ---------------------------------------------------------------------------
// DDL: DROP and friends

// DropStmt is the generic DROP <object> [IF EXISTS] name [CASCADE]. What must
// be one of the Drop* statement types.
type DropStmt struct {
	What     sqlt.Type
	Name     string
	IfExists bool
	Cascade  bool
	OnTable  string // DROP TRIGGER name ON table (PostgreSQL form)
}

// Type implements Statement.
func (s *DropStmt) Type() sqlt.Type { return s.What }

var dropKeyword = map[sqlt.Type]string{
	sqlt.DropTable:            "TABLE",
	sqlt.DropView:             "VIEW",
	sqlt.DropMaterializedView: "MATERIALIZED VIEW",
	sqlt.DropIndex:            "INDEX",
	sqlt.DropTrigger:          "TRIGGER",
	sqlt.DropSequence:         "SEQUENCE",
	sqlt.DropSchema:           "SCHEMA",
	sqlt.DropFunction:         "FUNCTION",
	sqlt.DropProcedure:        "PROCEDURE",
	sqlt.DropRule:             "RULE",
	sqlt.DropDomain:           "DOMAIN",
	sqlt.DropType:             "TYPE",
	sqlt.DropExtension:        "EXTENSION",
	sqlt.DropRole:             "ROLE",
	sqlt.DropUser:             "USER",
	sqlt.DropDatabase:         "DATABASE",
}

// SQL implements Statement.
func (s *DropStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("DROP ")
	sb.WriteString(dropKeyword[s.What])
	sb.WriteByte(' ')
	if s.IfExists {
		sb.WriteString("IF EXISTS ")
	}
	sb.WriteString(s.Name)
	if s.OnTable != "" {
		sb.WriteString(" ON " + s.OnTable)
	}
	if s.Cascade {
		sb.WriteString(" CASCADE")
	}
	return sb.String()
}

// RenameTableStmt is the MySQL-style RENAME TABLE a TO b.
type RenameTableStmt struct {
	From string
	To   string
}

// Type implements Statement.
func (*RenameTableStmt) Type() sqlt.Type { return sqlt.RenameTable }

// SQL implements Statement.
func (s *RenameTableStmt) SQL() string { return "RENAME TABLE " + s.From + " TO " + s.To }

// TruncateStmt is TRUNCATE [TABLE] name.
type TruncateStmt struct{ Table string }

// Type implements Statement.
func (*TruncateStmt) Type() sqlt.Type { return sqlt.Truncate }

// SQL implements Statement.
func (s *TruncateStmt) SQL() string { return "TRUNCATE TABLE " + s.Table }

// CommentOnStmt is COMMENT ON <kind> name IS 'text'.
type CommentOnStmt struct {
	ObjectKind string // TABLE, COLUMN, VIEW, INDEX, ...
	Name       string
	Comment    string
}

// Type implements Statement.
func (*CommentOnStmt) Type() sqlt.Type { return sqlt.CommentOn }

// SQL implements Statement.
func (s *CommentOnStmt) SQL() string {
	return "COMMENT ON " + s.ObjectKind + " " + s.Name + " IS '" +
		strings.ReplaceAll(s.Comment, "'", "''") + "'"
}

// ReindexStmt is REINDEX [TABLE|INDEX] name.
type ReindexStmt struct {
	Kind string // "TABLE" or "INDEX"
	Name string
}

// Type implements Statement.
func (*ReindexStmt) Type() sqlt.Type { return sqlt.Reindex }

// SQL implements Statement.
func (s *ReindexStmt) SQL() string {
	if s.Kind == "" {
		return "REINDEX " + s.Name
	}
	return "REINDEX " + s.Kind + " " + s.Name
}

// RefreshMatViewStmt is REFRESH MATERIALIZED VIEW name.
type RefreshMatViewStmt struct{ Name string }

// Type implements Statement.
func (*RefreshMatViewStmt) Type() sqlt.Type { return sqlt.RefreshMaterializedView }

// SQL implements Statement.
func (s *RefreshMatViewStmt) SQL() string { return "REFRESH MATERIALIZED VIEW " + s.Name }
