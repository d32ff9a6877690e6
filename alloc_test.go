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
	"math/rand"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/instantiate"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/mutate"
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
	check("Statement.Clone", 25, func() {
		_ = stmt.Clone()
	})

	// Render of the join query: builder growth plus child renders.
	check("render", 20, func() {
		_ = stmt.SQL()
	})

	// Test-case clone: clone of every statement plus the slice header.
	check("TestCase.Clone", 25, func() {
		_ = tc.Clone()
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

	// A whole test case on a warm engine: the per-case reset clears the
	// catalog and session maps in place, so the cost is the statements'
	// own work. Rebuilding those maps for every case cost 26 more.
	warm := minidb.New(minidb.Config{Dialect: sqlt.DialectMariaDB})
	small := sqlparse.MustParseScript(`
CREATE TABLE t0 (c0 INT, c1 TEXT);
INSERT INTO t0 VALUES (1, 'a'), (2, 'b');
SELECT c0 FROM t0 WHERE c0 > 1;
`)
	warm.RunTestCase(small)
	check("RunTestCase", 45, func() {
		_ = warm.RunTestCase(small)
	})

	// Sequence mutations clone only the statements the mutant keeps: the
	// deleted or replaced statement is never copied (cloning it cost 5).
	rng := rand.New(rand.NewSource(1))
	mut := mutate.New(rng, instantiate.New(rng, instantiate.NewLibrary(), sqlt.DialectMariaDB), sqlt.DialectMariaDB)
	check("DeleteAt", 18, func() {
		_ = mut.DeleteAt(tc, 1)
	})
	check("SubstituteType", 22, func() {
		_ = mut.SubstituteType(tc, 1)
	})

	// Campaign snapshot after a fixed 3000-statement MariaDB campaign (136
	// pool seeds, 250 edges, 322 synthesized sequences): one slice per
	// section, one shared backing array for all synthesized sequences, and
	// the crash list. Pool scripts are rendered once per seed, on its first
	// snapshot, not once per snapshot, so the measured runs reuse them. The
	// structure library is rebuilt from the pool on resume, so it costs the
	// snapshot nothing.
	f := core.New(core.Options{Dialect: sqlt.DialectMariaDB, Seed: 1})
	f.Run(3000)
	check("Snapshot", 115, func() {
		_ = f.Snapshot()
	})
}
