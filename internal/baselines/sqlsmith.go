package baselines

import (
	"math/rand"

	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// SQLsmith is the single-statement generation baseline. The real tool
// connects to an existing database and emits one deep, syntactically
// elaborate SELECT at a time, deliberately leaving the database unchanged;
// it officially supports PostgreSQL only (§V-A). Here the pre-existing
// database is modelled by a fixed schema preamble prepended to every
// generated query — the generated part of each test case is exactly one
// statement, and the SQL Type Sequence never varies.
type SQLsmith struct {
	rng      *rand.Rand
	runner   *harness.Runner
	preamble sqlast.TestCase
}

// sqlsmithSchema is the prepared database the generator queries.
const sqlsmithSchema = `
CREATE TABLE p0 (c0 INT, c1 INT, c2 VARCHAR(100));
CREATE TABLE p1 (c0 INT, c3 FLOAT);
INSERT INTO p0 VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c');
INSERT INTO p1 VALUES (1, 0.5), (2, 1.5);
CREATE VIEW w0 AS SELECT c0, c1 FROM p0;
`

// NewSQLsmith builds the baseline for the PostgreSQL profile.
func NewSQLsmith(d sqlt.Dialect, seed int64, hazards bool) *SQLsmith {
	return &SQLsmith{
		rng:      rand.New(rand.NewSource(seed)),
		runner:   harness.NewRunner(d, hazards),
		preamble: sqlparse.MustParseScript(sqlsmithSchema),
	}
}

// Runner implements harness.Fuzzer.
func (s *SQLsmith) Runner() *harness.Runner { return s.runner }

// Step implements harness.Fuzzer: one generated SELECT over the prepared
// schema.
func (s *SQLsmith) Step(exhausted func() bool) {
	if exhausted() {
		return
	}
	tc := append(s.preamble.Clone(), s.genSelect(3))
	s.runner.Execute(tc)
}

var smithTables = []struct {
	name string
	cols []string
}{
	{"p0", []string{"c0", "c1", "c2"}},
	{"p1", []string{"c0", "c3"}},
	{"w0", []string{"c0", "c1"}},
}

func (s *SQLsmith) genSelect(depth int) *sqlast.SelectStmt {
	t := smithTables[s.rng.Intn(len(smithTables))]
	q := &sqlast.SelectStmt{
		From: []sqlast.TableRef{&sqlast.BaseTable{Name: t.name}},
	}
	// deep projection expressions are SQLsmith's specialty
	n := 1 + s.rng.Intn(3)
	for i := 0; i < n; i++ {
		q.Items = append(q.Items, sqlast.SelectItem{X: s.genExpr(t.cols, depth)})
	}
	if s.rng.Intn(2) == 0 {
		q.Where = s.genExpr(t.cols, depth-1)
	}
	if depth > 0 && s.rng.Intn(3) == 0 {
		t2 := smithTables[s.rng.Intn(len(smithTables))]
		q.From = []sqlast.TableRef{&sqlast.JoinRef{
			Kind: sqlast.JoinKind(s.rng.Intn(3)),
			L:    &sqlast.BaseTable{Name: t.name},
			R:    &sqlast.BaseTable{Name: t2.name, Alias: "r"},
			On: &sqlast.Binary{Op: "=",
				L: &sqlast.ColRef{Name: "c0"},
				R: &sqlast.ColRef{Table: "r", Name: "c0"}},
		}}
	}
	if depth > 1 && s.rng.Intn(4) == 0 {
		q.Op = sqlast.SetUnionAll
		q.Right = s.genSelect(depth - 2)
	}
	if s.rng.Intn(3) == 0 {
		q.OrderBy = []sqlast.OrderItem{{X: sqlast.IntLit(1), Desc: s.rng.Intn(2) == 0}}
	}
	if s.rng.Intn(3) == 0 {
		q.Limit = sqlast.IntLit(int64(1 + s.rng.Intn(50)))
	}
	return q
}

func (s *SQLsmith) genExpr(cols []string, depth int) sqlast.Expr {
	if depth <= 0 || s.rng.Intn(3) == 0 {
		if s.rng.Intn(2) == 0 {
			return &sqlast.ColRef{Name: cols[s.rng.Intn(len(cols))]}
		}
		switch s.rng.Intn(4) {
		case 0:
			return sqlast.IntLit(int64(s.rng.Intn(1000) - 500))
		case 1:
			return sqlast.FloatLit(float64(s.rng.Intn(100)) / 3.0)
		case 2:
			return sqlast.StringLit("q")
		default:
			return sqlast.NullLit()
		}
	}
	switch s.rng.Intn(7) {
	case 0:
		return &sqlast.Binary{
			Op: []string{"+", "-", "*", "=", "<", ">", "AND", "OR", "||"}[s.rng.Intn(9)],
			L:  s.genExpr(cols, depth-1), R: s.genExpr(cols, depth-1),
		}
	case 1:
		return &sqlast.FuncCall{
			Name: []string{"ABS", "LENGTH", "LOWER", "UPPER", "COALESCE"}[s.rng.Intn(5)],
			Args: []sqlast.Expr{s.genExpr(cols, depth-1)},
		}
	case 2:
		return &sqlast.CaseExpr{
			Whens: []sqlast.CaseWhen{{Cond: s.genExpr(cols, depth-1), Result: s.genExpr(cols, depth-1)}},
			Else:  s.genExpr(cols, depth-1),
		}
	case 3:
		return &sqlast.CastExpr{X: s.genExpr(cols, depth-1), TypeName: []string{"INT", "TEXT", "FLOAT"}[s.rng.Intn(3)]}
	case 4:
		return &sqlast.Subquery{Query: s.genSelect(0)}
	case 5:
		return &sqlast.IsNullExpr{X: s.genExpr(cols, depth-1)}
	default:
		return &sqlast.InExpr{X: s.genExpr(cols, depth-1),
			List: []sqlast.Expr{sqlast.IntLit(1), sqlast.IntLit(2)}}
	}
}
