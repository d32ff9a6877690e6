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
	"github.com/seqfuzz/lego/internal/shard"
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

	// Statement execution over a full (128-row) table. Apart from the
	// UPDATE's new rows, the cost is per statement (result assembly, each
	// site's scope map and keys, filtered rows), not per scanned row: every
	// row is bound into one reused scope map. A new scope map per table row
	// cost the UPDATE 1,421 and the DELETE 642.
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
	if _, err := eng.ExecStmt(sel); err != nil { // warm the tracer's counters
		t.Fatal(err)
	}
	check("ExecStmt", 40, func() {
		_, _ = eng.ExecStmt(sel)
	})
	for _, c := range []struct {
		name    string
		ceiling float64
		sql     string
	}{
		{"ExecStmt-update", 155, "UPDATE big SET b = b + 1 WHERE a >= 0;"},
		{"ExecStmt-delete", 9, "DELETE FROM big WHERE a < 0;"},
	} {
		st := sqlparse.MustParseScript(c.sql)[0]
		if _, err := eng.ExecStmt(st); err != nil {
			t.Fatal(err)
		}
		check(c.name, c.ceiling, func() {
			_, _ = eng.ExecStmt(st)
		})
	}

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

	// Mutants share the seed's statements: sequence mutations copy only the
	// slice, and the fixer clones only a statement it repairs, into the
	// fixer's reused simulated schema. Cloning every kept statement and a
	// new schema per fix cost 13 more each.
	rng := rand.New(rand.NewSource(1))
	mut := mutate.New(rng, instantiate.New(rng, instantiate.NewLibrary(), sqlt.DialectMariaDB), sqlt.DialectMariaDB)
	check("DeleteAt", 3, func() {
		_ = mut.DeleteAt(tc, 1)
	})
	check("SubstituteType", 7, func() {
		_ = mut.SubstituteType(tc, 1)
	})

	// Value mutation clones only the one or two statements it perturbs
	// (cloning the whole seed cost 10 more).
	check("MutateValues", 9, func() {
		_ = mut.MutateValues(tc)
	})

	// Instantiation shares the library structures it picks; the fixer
	// clones only those it repairs (cloning every pick cost 13 more).
	lib := instantiate.NewLibrary()
	lib.Harvest(tc)
	irng := rand.New(rand.NewSource(1))
	inst := instantiate.New(irng, lib, sqlt.DialectMariaDB)
	seq := tc.Types()
	check("Instantiator.TestCase", 11, func() {
		_ = inst.TestCase(seq)
	})

	// Campaign snapshot of a one-worker executor after a fixed
	// 3000-statement MariaDB campaign (136 pool seeds, 250 edges, 322
	// synthesized sequences): one slice per section, one shared backing
	// array for all synthesized sequences, the worker's crash list and the
	// merged one. Pool scripts are rendered once per seed, on its first
	// snapshot, not once per snapshot, so the measured runs reuse them. The
	// structure library is rebuilt from the pool on resume, so it costs the
	// snapshot nothing.
	ex := shard.New(shard.Options{Core: core.Options{Dialect: sqlt.DialectMariaDB, Seed: 1}, Workers: 1})
	if _, err := ex.Run(3000, shard.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	check("Snapshot", 104, func() {
		_ = ex.Snapshot()
	})
}
