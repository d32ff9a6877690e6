package minidb

import (
	"slices"
	"sort"
	"strings"

	"github.com/seqfuzz/lego/internal/sqlast"
)

// Column is the stored column metadata.
type Column struct {
	Name       string
	TypeName   string
	Kind       Kind // TypeName's storage affinity, resolved with TypeName
	NotNull    bool
	PrimaryKey bool
	Unique     bool
	Default    sqlast.Expr
	Check      sqlast.Expr
	RefTable   string // foreign key target ("" if none)
	Comment    string
}

// Index is a secondary index over a table. Lookups are linear with a
// uniqueness map; the structure exists to give the planner an index-path
// branch and the catalog an object whose lifetime statements can race.
type Index struct {
	Name   string
	Table  string
	Cols   []string
	Unique bool
	// stale marks indexes invalidated by ALTER TABLE until REINDEX runs.
	stale bool
}

// Table is the stored base relation.
type Table struct {
	Name        string
	Cols        []Column
	Rows        [][]Value
	Temp        bool
	Comment     string
	Constraints []sqlast.TableConstraint
	analyzed    bool // set by ANALYZE, cleared by writes; gates planner stats paths
	locked      string
	clusteredBy string

	// names and keys are the column names and the frame keys of a
	// relation over the table qualified by keysQual (colNames, keysFor).
	// They are replaced when the columns change, never written, so a
	// relation or a result may keep them.
	names    []string
	keys     []binding
	keysQual string
}

// colNames returns the table's column names.
func (t *Table) colNames() []string {
	same := t.names != nil && len(t.names) == len(t.Cols)
	for i := 0; same && i < len(t.Cols); i++ {
		same = t.names[i] == t.Cols[i].Name
	}
	if !same {
		t.names = make([]string, len(t.Cols))
		for i := range t.Cols {
			t.names[i] = t.Cols[i].Name
		}
		t.keys = nil
	}
	return t.names
}

// keysFor returns the frame keys of a relation over the table whose
// columns are qualified by qual, as relation.keys builds them.
func (t *Table) keysFor(qual string) []binding {
	names := t.colNames()
	if t.keys == nil || t.keysQual != qual {
		keys := make([]binding, 0, 2*len(names))
		for c, n := range names {
			keys = appendKeys(keys, qual, n, c)
		}
		t.keys, t.keysQual = keys, qual
	}
	return t.keys
}

// colIndex returns the position of the named column, or -1.
func (t *Table) colIndex(name string) int {
	for i := range t.Cols {
		if t.Cols[i].Name == name {
			return i
		}
	}
	return -1
}

// View is a stored (possibly materialized) view.
type View struct {
	Name         string
	Cols         []string
	Query        *sqlast.SelectStmt
	Materialized bool
	MatCols      []string
	MatRows      [][]Value
	refreshed    bool
}

// Trigger fires a body statement around DML on a table.
type Trigger struct {
	Name  string
	Table string
	Time  sqlast.TriggerTime
	Event sqlast.TriggerEvent
	Body  sqlast.Statement
}

// Rule is a PostgreSQL-style rewrite rule: ON event TO table DO [INSTEAD]
// action. Rules participate in query rewrite (rewrite.go), which is where
// the paper's case-study bug lives.
type Rule struct {
	Name    string
	Table   string
	Event   sqlast.TriggerEvent
	Instead bool
	Action  sqlast.Statement // nil = DO INSTEAD NOTHING
}

// Sequence is a named counter.
type Sequence struct {
	Name string
	Val  int64
	Inc  int64
}

// Function is a scalar SQL function.
type Function struct {
	Name    string
	Params  []string
	Returns string
	Body    sqlast.Expr
}

// Procedure wraps one statement invocable via CALL.
type Procedure struct {
	Name string
	Body sqlast.Statement
}

// Domain is a constrained base type.
type Domain struct {
	Name  string
	Base  string
	Check sqlast.Expr
}

// EnumType is a user-defined enumeration.
type EnumType struct {
	Name   string
	Values []string
}

// Role is a principal with per-table privileges.
type Role struct {
	Name   string
	IsUser bool
	Option string
	Privs  map[string]map[string]bool // table -> privilege -> granted
}

// Catalog is the schema state of one database.
type Catalog struct {
	Tables     map[string]*Table
	Views      map[string]*View
	Indexes    map[string]*Index
	Triggers   map[string]*Trigger
	Rules      map[string]*Rule
	Sequences  map[string]*Sequence
	Functions  map[string]*Function
	Procedures map[string]*Procedure
	Domains    map[string]*Domain
	Enums      map[string]*EnumType
	Roles      map[string]*Role
	Schemas    map[string]bool
	Extensions map[string]bool
	Databases  map[string]bool
	Comments   map[string]string
}

// NewCatalog returns an empty catalog with the default database and schema.
func NewCatalog() *Catalog {
	return &Catalog{
		Tables:     map[string]*Table{},
		Views:      map[string]*View{},
		Indexes:    map[string]*Index{},
		Triggers:   map[string]*Trigger{},
		Rules:      map[string]*Rule{},
		Sequences:  map[string]*Sequence{},
		Functions:  map[string]*Function{},
		Procedures: map[string]*Procedure{},
		Domains:    map[string]*Domain{},
		Enums:      map[string]*EnumType{},
		Roles:      map[string]*Role{},
		Schemas:    map[string]bool{"public": true},
		Extensions: map[string]bool{},
		Databases:  map[string]bool{"main": true},
		Comments:   map[string]string{},
	}
}

// reset empties the catalog in place, leaving it equal to NewCatalog()'s
// result while its maps keep their storage for the next test case. Nothing
// outside the engine holds these maps, and the engine drops its
// transaction snapshots before a reset (Engine.reset), which recycles them
// through the same method.
func (c *Catalog) reset() {
	clear(c.Tables)
	clear(c.Views)
	clear(c.Indexes)
	clear(c.Triggers)
	clear(c.Rules)
	clear(c.Sequences)
	clear(c.Functions)
	clear(c.Procedures)
	clear(c.Domains)
	clear(c.Enums)
	clear(c.Roles)
	clear(c.Extensions)
	clear(c.Comments)
	resetToDefault(c.Schemas, "public")
	resetToDefault(c.Databases, "main")
}

// resetToDefault leaves m holding only name. It almost always holds just
// that already, and is then left alone: clearing a map reseeds its hash,
// and the insert after it hashes again.
func resetToDefault(m map[string]bool, name string) {
	if len(m) == 1 && m[name] {
		return
	}
	clear(m)
	m[name] = true
}

// tableNames returns table names in sorted order for deterministic
// iteration.
func (c *Catalog) tableNames() []string {
	names := make([]string, 0, len(c.Tables))
	for n := range c.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// triggersFor appends to out the triggers on a table for a given time and
// event, name-sorted for determinism.
func (c *Catalog) triggersFor(out []*Trigger, table string, tm sqlast.TriggerTime, ev sqlast.TriggerEvent) []*Trigger {
	for _, tr := range c.Triggers {
		if tr.Table == table && tr.Time == tm && tr.Event == ev {
			out = append(out, tr)
		}
	}
	slices.SortFunc(out, func(a, b *Trigger) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// rulesFor returns rewrite rules on a table for an event, name-sorted.
func (c *Catalog) rulesFor(table string, ev sqlast.TriggerEvent) []*Rule {
	if len(c.Rules) == 0 {
		return nil
	}
	var out []*Rule
	for _, r := range c.Rules {
		if r.Table == table && r.Event == ev {
			out = append(out, r)
		}
	}
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	}
	return out
}

// indexesFor appends to out the indexes on a table, name-sorted.
func (c *Catalog) indexesFor(out []*Index, table string) []*Index {
	for _, ix := range c.Indexes {
		if ix.Table == table {
			out = append(out, ix)
		}
	}
	slices.SortFunc(out, func(a, b *Index) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// hasIndexes reports whether a table has an index.
func (c *Catalog) hasIndexes(table string) bool {
	for _, ix := range c.Indexes {
		if ix.Table == table {
			return true
		}
	}
	return false
}
