package baselines

import (
	"math/rand"
	"strconv"

	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// SQLancer is the generation-based baseline. Following the real tool's
// pivoted-query-synthesis workflow, every generated test case sets up a
// small random schema, populates it, and issues several well-formed SELECT
// variants over one pivot row. The custom pattern rules keep statements
// valid but confine the SQL Type Sequences to a handful of shapes — the
// limitation the paper's §V-C discusses.
type SQLancer struct {
	rng    *rand.Rand
	runner *harness.Runner
}

// NewSQLancer builds the baseline.
func NewSQLancer(d sqlt.Dialect, seed int64, hazards bool) *SQLancer {
	return &SQLancer{
		rng:    rand.New(rand.NewSource(seed)),
		runner: harness.NewRunner(d, hazards),
	}
}

// Runner implements harness.Fuzzer.
func (s *SQLancer) Runner() *harness.Runner { return s.runner }

// Step implements harness.Fuzzer: generate and execute one rule-based test
// case.
func (s *SQLancer) Step(exhausted func() bool) {
	if exhausted() {
		return
	}
	s.runner.Execute(s.generate())
}

func (s *SQLancer) generate() sqlast.TestCase {
	var tc sqlast.TestCase

	// schema setup: one or two tables with typed columns
	nTables := 1 + s.rng.Intn(2)
	type tinfo struct {
		name    string
		cols    []string
		indexed bool
	}
	var tables []tinfo
	for ti := 0; ti < nTables; ti++ {
		name := "t" + strconv.Itoa(ti)
		nCols := 2 + s.rng.Intn(2)
		var defs []sqlast.ColumnDef
		var cols []string
		for ci := 0; ci < nCols; ci++ {
			cn := "c" + strconv.Itoa(ci)
			cols = append(cols, cn)
			tn := []string{"INT", "FLOAT", "TEXT"}[s.rng.Intn(3)]
			defs = append(defs, sqlast.ColumnDef{Name: cn, TypeName: tn})
		}
		tc = append(tc, &sqlast.CreateTableStmt{Name: name, Cols: defs})
		tables = append(tables, tinfo{name: name, cols: cols})
	}

	randRow := func(cols []string) []sqlast.Expr {
		row := make([]sqlast.Expr, len(cols))
		for ci := range row {
			switch s.rng.Intn(3) {
			case 0:
				row[ci] = sqlast.IntLit(int64(s.rng.Intn(100)))
			case 1:
				row[ci] = sqlast.FloatLit(float64(s.rng.Intn(100)) / 4.0)
			default:
				row[ci] = sqlast.StringLit("s" + strconv.Itoa(s.rng.Intn(10)))
			}
		}
		return row
	}

	// Interleaved action phase: the real tool's generators for INSERT,
	// CREATE INDEX, UPDATE, DELETE and simple SELECT fire in random order,
	// all emitting valid SQL. This is why SQLancer's generated corpora
	// embed many type-affinities (paper Table II) while still exploring few
	// engine states.
	nActions := 4 + s.rng.Intn(8)
	for a := 0; a < nActions; a++ {
		ti := s.rng.Intn(len(tables))
		t := &tables[ti]
		switch s.rng.Intn(6) {
		case 0, 1: // insert is most common
			tc = append(tc, &sqlast.InsertStmt{Table: t.name, Rows: [][]sqlast.Expr{randRow(t.cols)}})
		case 2:
			if !t.indexed {
				t.indexed = true
				tc = append(tc, &sqlast.CreateIndexStmt{
					Name:  "idx" + strconv.Itoa(ti),
					Table: t.name,
					Cols:  []string{t.cols[s.rng.Intn(len(t.cols))]},
				})
			} else {
				tc = append(tc, &sqlast.InsertStmt{Table: t.name, Rows: [][]sqlast.Expr{randRow(t.cols)}})
			}
		case 3:
			tc = append(tc, &sqlast.UpdateStmt{
				Table: t.name,
				Sets: []sqlast.Assignment{{
					Col:   t.cols[s.rng.Intn(len(t.cols))],
					Value: sqlast.IntLit(int64(s.rng.Intn(50))),
				}},
				Where: &sqlast.Binary{Op: "<",
					L: &sqlast.ColRef{Name: t.cols[0]},
					R: sqlast.IntLit(int64(s.rng.Intn(50)))},
			})
		case 4:
			tc = append(tc, &sqlast.DeleteStmt{
				Table: t.name,
				Where: &sqlast.Binary{Op: ">",
					L: &sqlast.ColRef{Name: t.cols[0]},
					R: sqlast.IntLit(int64(90 + s.rng.Intn(20)))},
			})
		default:
			tc = append(tc, &sqlast.SelectStmt{
				Items: []sqlast.SelectItem{{X: &sqlast.Star{}}},
				From:  []sqlast.TableRef{&sqlast.BaseTable{Name: t.name}},
			})
		}
	}

	// pivoted query synthesis: p, NOT p, p IS NULL over a random predicate
	tbl := tables[s.rng.Intn(len(tables))]
	col := tbl.cols[s.rng.Intn(len(tbl.cols))]
	pred := &sqlast.Binary{
		Op: []string{"=", "<", ">", "<="}[s.rng.Intn(4)],
		L:  &sqlast.ColRef{Name: col},
		R:  sqlast.IntLit(int64(s.rng.Intn(100))),
	}
	nQueries := 2 + s.rng.Intn(3)
	for q := 0; q < nQueries; q++ {
		var where sqlast.Expr
		switch q % 3 {
		case 0:
			where = pred
		case 1:
			where = &sqlast.Unary{Op: "NOT", X: pred}
		default:
			where = &sqlast.IsNullExpr{X: pred}
		}
		sel := &sqlast.SelectStmt{
			Items: []sqlast.SelectItem{{X: &sqlast.Star{}}},
			From:  []sqlast.TableRef{&sqlast.BaseTable{Name: tbl.name}},
			Where: where,
		}
		switch s.rng.Intn(5) {
		case 0:
			sel.Items = []sqlast.SelectItem{{X: &sqlast.FuncCall{Name: "COUNT", Star: true}}}
		case 1:
			sel.Distinct = true
		case 2:
			sel.OrderBy = []sqlast.OrderItem{{X: &sqlast.ColRef{Name: tbl.cols[0]}, Desc: s.rng.Intn(2) == 0}}
		case 3:
			sel.Limit = sqlast.IntLit(int64(1 + s.rng.Intn(10)))
		}
		tc = append(tc, sel)
	}
	return tc
}
