// Allocation budgets for the fuzz loop's hottest operations. Wall-clock
// benchmarks are machine-dependent and flaky in CI; allocation counts are
// exact and stable, so this test runs unconditionally in `make ci` and
// fails the moment a change regresses per-op allocation behaviour.
//
// The ceilings are fixed numbers, not measurements: they encode the
// performance contract established by the structural-clone and
// allocation-reuse work. Lowering one after an optimization is encouraged;
// raising one is a perf regression that needs justification.
package lego_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// allocStmt is a representative hot-path statement: a join query with a
// WHERE clause and ORDER BY, the shape the mutators clone most.
const allocStmtSQL = `SELECT t1.v1, t2.v2 FROM t1 JOIN t2 ON (t1.v1 = t2.v1) WHERE (t1.v2 > 3) ORDER BY t1.v1 DESC LIMIT 10`

func TestAllocBudgets(t *testing.T) {
	stmt := sqlparse.MustParseScript(allocStmtSQL + ";")[0]
	tc := sqlparse.MustParseScript(`
CREATE TABLE t1 (v1 INT, v2 INT);
INSERT INTO t1 VALUES (1, 2);
SELECT v1 FROM t1 WHERE (v2 = 2);
`)

	check := func(name string, ceiling float64, f func()) {
		t.Helper()
		got := testing.AllocsPerRun(200, f)
		t.Logf("%-16s %5.1f allocs/op (budget %.0f)", name, got, ceiling)
		if got > ceiling {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", name, got, ceiling)
		}
	}

	// Structural clone of the join query: one allocation per node plus one
	// per non-empty slice. The reparse path this replaced cost hundreds.
	check("CloneStatement", 25, func() {
		_ = sqlparse.CloneStatement(stmt)
	})

	// Cold render of the join query: builder growth plus child renders.
	cold := stmt.(*sqlast.SelectStmt)
	check("render-cold", 20, func() {
		sqlast.InvalidateSQL(cold)
		_ = cold.SQL()
	})

	// Memoized render: zero — SQL() must return the cached string.
	_ = stmt.SQL()
	check("render-memoized", 0, func() {
		_ = stmt.SQL()
	})

	// Test-case clone: clone of every statement plus the slice header.
	check("CloneTestCase", 25, func() {
		_ = sqlparse.CloneTestCase(tc)
	})

	// Coverage tracer hit and map accumulate: steady-state zero. The
	// tracer's touched list is pre-sized; Accumulate only reads it.
	tr := coverage.NewTracer()
	sites := []coverage.Site{
		coverage.NewSite("alloc-budget-a"),
		coverage.NewSite("alloc-budget-b"),
		coverage.NewSite("alloc-budget-c"),
	}
	check("Tracer.Hit", 0, func() {
		for _, s := range sites {
			tr.Hit(s)
		}
		tr.Reset()
	})

	m := coverage.NewMap()
	for _, s := range sites {
		tr.Hit(s)
	}
	m.Accumulate(tr)
	check("Map.Accumulate", 0, func() {
		_, _ = m.Accumulate(tr)
	})
	tr.Reset()

	// Coverage batch append and flush: steady-state zero. The batch buffer
	// is pre-sized and reused; Flush only bumps existing tracer counters.
	b := coverage.NewBatch(16)
	check("Batch-flush", 0, func() {
		for _, s := range sites {
			b.Add(s)
		}
		tr.Flush(b)
		tr.Reset()
	})

	// Compiled statement execution over a full (128-row) table. The ceiling
	// is a fixed per-statement cost (result assembly, prepared machines,
	// filtered rows) that does NOT scale with the scanned rows: per-row
	// evaluation on the compiled path — slot reads, comparisons, coverage
	// probes — must be allocation-free. On the interpreter this statement
	// cost a scope map write per row per column.
	eng := minidb.New(minidb.Config{Dialect: sqlt.DialectMySQL})
	var sb strings.Builder
	sb.WriteString("CREATE TABLE big (a INT, b INT);\n")
	sb.WriteString("INSERT INTO big VALUES (0, 0)")
	for i := 1; i < 128; i++ {
		fmt.Fprintf(&sb, ", (%d, %d)", i, i*3)
	}
	sb.WriteString(";\n")
	for _, s := range sqlparse.MustParseScript(sb.String()) {
		if _, err := eng.ExecStmt(s); err != nil {
			t.Fatal(err)
		}
	}
	sel := sqlparse.MustParseScript("SELECT a, b FROM big WHERE a = 100 AND b > 50 ORDER BY b;")[0]
	if _, err := eng.ExecStmt(sel); err != nil { // warm the plan cache
		t.Fatal(err)
	}
	check("ExecStmt-compiled", 40, func() {
		_, _ = eng.ExecStmt(sel)
	})

	// Campaign snapshot after a fixed 3000-statement MariaDB campaign (136
	// pool seeds, 250 edges, 322 synthesized sequences): one rendered script
	// per pool seed, one slice per section, one shared backing array for all
	// synthesized sequences. The structure library is rebuilt from the pool
	// on resume, so it costs the snapshot nothing.
	f := core.New(core.Options{Dialect: sqlt.DialectMariaDB, Seed: 1})
	f.Run(3000)
	check("Snapshot", 330, func() {
		_ = f.Snapshot()
	})
}
