package sqlt

import "sort"

// Dialect identifies one target DBMS profile. Profiles gate which statement
// types the target accepts, mirroring the four DBMSs of the paper's
// evaluation. The type counts scale the paper's 188/158/160/24 down to the
// taxonomy in this package while preserving the ordering that drives the
// Table IV correlation (more types -> more affinity headroom).
type Dialect uint8

// The four evaluated targets.
const (
	DialectPostgres Dialect = iota
	DialectMySQL
	DialectMariaDB
	DialectComdb2
	numDialects
)

// Dialects returns all dialect profiles in evaluation order.
func Dialects() []Dialect {
	return []Dialect{DialectPostgres, DialectMySQL, DialectMariaDB, DialectComdb2}
}

// String returns the display name used in the paper's tables.
func (d Dialect) String() string {
	switch d {
	case DialectPostgres:
		return "PostgreSQL"
	case DialectMySQL:
		return "MySQL"
	case DialectMariaDB:
		return "MariaDB"
	case DialectComdb2:
		return "Comdb2"
	default:
		return "Dialect(?)"
	}
}

// postgres-only and mysql-family-only feature sets. Everything not excluded
// is shared.
var pgOnly = []Type{
	CreateMaterializedView, DropMaterializedView, RefreshMaterializedView,
	CreateRule, DropRule,
	CreateDomain, DropDomain,
	CreateType, DropType,
	CreateExtension, DropExtension,
	CopyTo, CopyFrom,
	Vacuum, Cluster, Checkpoint, Discard,
	Listen, Notify, Unlisten,
	Merge, Do, TableStmt, SelectInto,
	DeclareCursor, Fetch, CloseCursor,
	SetRole, CommentOn, Reindex,
}

var mysqlFamilyOnly = []Type{
	Replace, LoadData, RenameTable, Use, Describe,
	OptimizeTable, CheckTable, Flush,
}

// mariaDBExtra are the few types MariaDB supports beyond stock MySQL in this
// taxonomy (MariaDB kept features and added some of its own).
var mariaDBExtra = []Type{Do, Merge, Reindex, SelectInto}

// comdb2Types is the deliberately small Comdb2 profile: exactly 24 types,
// matching the paper's Table IV type count for Comdb2.
var comdb2Types = []Type{
	CreateTable, AlterTable, DropTable,
	CreateIndex, DropIndex,
	CreateView, DropView,
	CreateProcedure, DropProcedure,
	Insert, Update, Delete, Truncate,
	Select, WithSelect, ValuesStmt, Explain,
	Begin, Commit, Rollback,
	SetVar, Pragma, Analyze, Grant,
}

var dialectTypes = func() [numDialects][]Type {
	var out [numDialects][]Type

	excludeFromPG := toSet(mysqlFamilyOnly)
	// PostgreSQL additionally lacks PRAGMA.
	excludeFromPG[Pragma] = true

	excludeFromMySQL := toSet(pgOnly)
	excludeFromMySQL[Pragma] = true

	for _, t := range All() {
		if !excludeFromPG[t] {
			out[DialectPostgres] = append(out[DialectPostgres], t)
		}
		if !excludeFromMySQL[t] {
			out[DialectMySQL] = append(out[DialectMySQL], t)
		}
	}
	// MariaDB = MySQL profile + extras.
	out[DialectMariaDB] = append([]Type(nil), out[DialectMySQL]...)
	for _, t := range mariaDBExtra {
		if !contains(out[DialectMariaDB], t) {
			out[DialectMariaDB] = append(out[DialectMariaDB], t)
		}
	}
	sort.Slice(out[DialectMariaDB], func(i, j int) bool {
		return out[DialectMariaDB][i] < out[DialectMariaDB][j]
	})
	out[DialectComdb2] = append([]Type(nil), comdb2Types...)
	sort.Slice(out[DialectComdb2], func(i, j int) bool {
		return out[DialectComdb2][i] < out[DialectComdb2][j]
	})
	return out
}()

// dialectSupports[d][t] reports whether dialect d accepts type t: a table
// lookup, since the engine asks once per executed statement.
var dialectSupports = func() (out [numDialects][numTypes]bool) {
	for d := Dialect(0); d < numDialects; d++ {
		for _, t := range dialectTypes[d] {
			out[d][t] = true
		}
	}
	return out
}()

func toSet(ts []Type) map[Type]bool {
	m := make(map[Type]bool, len(ts))
	for _, t := range ts {
		m[t] = true
	}
	return m
}

func contains(ts []Type, t Type) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// Types returns the statement types the dialect accepts, in stable order.
// The returned slice must not be mutated.
func (d Dialect) Types() []Type {
	if d >= numDialects {
		return nil
	}
	return dialectTypes[d]
}

// Supports reports whether the dialect accepts statement type t.
func (d Dialect) Supports(t Type) bool {
	if d >= numDialects || t >= numTypes {
		return false
	}
	return dialectSupports[d][t]
}

// NumStatementTypes is the size of the dialect's type profile (the "Types"
// column of Table IV).
func (d Dialect) NumStatementTypes() int { return len(d.Types()) }
