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
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/harness"
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

	// Statement execution over a full (128-row) table. Apart from the
	// UPDATE's new rows, the cost is per statement (result assembly, each
	// relation's frame keys, filtered rows), not per scanned row: every row
	// is bound into one reused frame, whose scratch the engine keeps across
	// statements. A new scope map per table row cost the UPDATE 1,421 and
	// the DELETE 642; a reused scope map per site, the SELECT 37, the
	// UPDATE 152 and the DELETE 8. The SELECT's sort keys sit in one flat
	// slice (a key slice per row cost 1 more here). Results come from an
	// engine-owned slab and relation headers with their qualifier lists
	// from per-statement scratch (a new Result, header and list each cost
	// the SELECT 6 more, the UPDATE and DELETE 1). UPDATE and DELETE scan
	// the rows they match into an engine-owned index buffer (a new slice
	// grown per scan cost the UPDATE 8 more and the 64-row scan of the
	// DELETE, whose LIMIT 0 keeps the table as it is, 7). The WHERE's
	// filtered rows, the sort's buffers and the output columns' keys sit
	// in the site's scratch, and a table keeps its column names and keys
	// until its columns change (building them per statement cost the
	// SELECT 14 more, the UPDATE, DELETE and DELETE scan 1 or 2). So do
	// UPDATE's SET columns and expressions (a new list of each cost 2
	// more).
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
	check("ExecStmt", 3, func() {
		_, _ = eng.ExecStmt(sel)
	})
	for _, c := range []struct {
		name    string
		ceiling float64
		sql     string
	}{
		{"ExecStmt-update", 128, "UPDATE big SET b = b + 1 WHERE a >= 0;"},
		{"ExecStmt-delete", 0, "DELETE FROM big WHERE a < 0;"},
		{"ExecStmt-delete-scan", 0, "DELETE FROM big WHERE a >= 64 LIMIT 0;"},
		// A SQL error keeps its format and arguments in typed slots and
		// formats nothing until read; outside a test case the error itself
		// is the 1. Boxing the table name cost 1 more, and formatting at
		// the error 1 more again.
		{"ExecStmt-error", 1, "SELECT a FROM missing;"},
	} {
		st := sqlparse.MustParseScript(c.sql)[0]
		if _, err := eng.ExecStmt(st); (err != nil) != (c.name == "ExecStmt-error") {
			t.Fatalf("%s: error %v", c.name, err)
		}
		check(c.name, c.ceiling, func() {
			_, _ = eng.ExecStmt(st)
		})
	}

	// INSERT stages its target columns and every evaluated VALUES row in
	// an engine-owned buffer, then builds each full-width row with defaults
	// before its key check: one allocation per row. Every row here collides
	// on the key and is ignored, so the table never fills. A per-row mask
	// of the target columns cost 3 more, and a slice per evaluated row, the
	// rows' list, the target list and the Result 8 more.
	for _, s := range sqlparse.MustParseScript("CREATE TABLE u (a INT PRIMARY KEY, b INT DEFAULT 7, c INT);\nINSERT INTO u VALUES (1, 0, 0);") {
		if _, err := eng.ExecStmt(s); err != nil {
			t.Fatal(err)
		}
	}
	ins := sqlparse.MustParseScript("INSERT IGNORE INTO u (c, a) VALUES (5, 1), (6, 1), (7, 1);")[0]
	check("ExecStmt-insert", 3, func() {
		_, _ = eng.ExecStmt(ins)
	})

	// INSERT into a table with two AFTER INSERT triggers, whose bodies
	// empty the table again and scan another without a match: the 3 are
	// the DELETE's. Each firing lists its triggers in a buffer from the
	// engine's stack and sorts them in place, and UPDATE's WHERE is held
	// in its scratch; a new sorted list per firing and a new WHERE list
	// cost 5 more.
	for _, s := range sqlparse.MustParseScript(`
CREATE TABLE tt (a INT);
CREATE TABLE tlog (n INT);
CREATE TRIGGER tg1 AFTER INSERT ON tt FOR EACH ROW DELETE FROM tt;
CREATE TRIGGER tg2 AFTER INSERT ON tt FOR EACH ROW UPDATE tlog SET n = 0 WHERE n < 0;
`) {
		if _, err := eng.ExecStmt(s); err != nil {
			t.Fatal(err)
		}
	}
	trig := sqlparse.MustParseScript("INSERT INTO tt VALUES (1);")[0]
	check("ExecStmt-trigger", 3, func() {
		_, _ = eng.ExecStmt(trig)
	})

	// A query with a WITH, a join, GROUP BY and a scalar function over the
	// full table; outside a test case its rows and result columns come from
	// the heap. The WITH scope is a list on the engine, the join composes
	// its halves' keys once, GROUP BY numbers its groups in a key set that
	// builds no string and lays their rows out in the scratch, each
	// aggregate and the sort work in scratch too, and a call's arguments go
	// on the engine's value stack: a CTE map, a key string, bucket and rows
	// slice per group, a scope per group and aggregate, the join's key
	// strings, the sort's buffers, an argument list per call and the
	// function's lower-cased column name cost 98 more.
	sel2 := sqlparse.MustParseScript("WITH w AS (SELECT a, b FROM big WHERE a < 8) SELECT w.a, COUNT(*), ABS(w.a - 9) FROM w JOIN big ON w.a = big.a GROUP BY w.a ORDER BY w.a;")[0]
	if res, err := eng.ExecStmt(sel2); err != nil || len(res.Rows) != 8 {
		t.Fatalf("ExecStmt-select: %v, %v", res, err)
	}
	check("ExecStmt-select", 55, func() {
		_, _ = eng.ExecStmt(sel2)
	})

	// A whole test case on a warm engine: the per-case reset clears the
	// catalog and session maps in place and takes back the tables and rows
	// the last case took, so the cost is the statements' own work, less
	// its storage. Rebuilding those maps for every case cost 26 more, new
	// Results, relation headers and INSERT row slices 13 more (11 on the
	// file's tc), and a new table and column list per CREATE and a heap
	// slice per stored or projected row 5 more (4 on the file's tc). A
	// result's column list comes from the case's storage too, and a
	// table's column names and keys are built once per case: a new list
	// per SELECT and new names and keys per reference cost 4 more.
	warm := minidb.New(minidb.Config{Dialect: sqlt.DialectMariaDB})
	small := sqlparse.MustParseScript(`
CREATE TABLE t0 (c0 INT, c1 TEXT);
INSERT INTO t0 VALUES (1, 'a'), (2, 'b');
SELECT c0 FROM t0 WHERE c0 > 1;
`)
	warm.RunTestCase(small)
	check("RunTestCase", 7, func() {
		_ = warm.RunTestCase(small)
	})
	warm.RunTestCase(tc)
	check("RunTestCase-tc", 6, func() {
		_ = warm.RunTestCase(tc)
	})

	// A case whose statements fail on missing relations pays nothing per
	// error: each comes from the engine's error slab, with the relation's
	// name in a typed slot. A heap error with the name boxed cost 2 per
	// failed statement.
	missing := sqlparse.MustParseScript(`
CREATE TABLE t0 (c0 INT);
SELECT c0 FROM m1;
INSERT INTO m2 VALUES (1);
UPDATE m3 SET c0 = 1;
DELETE FROM m4;
SELECT c0 FROM m5 WHERE c0 > 1;
`)
	warm.RunTestCase(missing)
	check("RunTestCase-errors", 0, func() {
		_ = warm.RunTestCase(missing)
	})

	// A transaction over a 64-row table: BEGIN and SAVEPOINT snapshot the
	// catalog, ROLLBACK TO restores from one, and the UPDATE writes 32 new
	// rows. Snapshots fill recycled catalogs with recycled tables, and
	// every row copy comes from the engine's row arena: a new catalog,
	// table and row slice per copy cost 355 more, a new column list per
	// reference 1, and the UPDATE's new SET lists 2.
	sb.Reset()
	sb.WriteString("CREATE TABLE b64 (a INT, b INT);\nINSERT INTO b64 VALUES (0, 0)")
	for i := 1; i < 64; i++ {
		fmt.Fprintf(&sb, ", (%d, %d)", i, i*3)
	}
	sb.WriteString(";\nBEGIN;\nINSERT INTO b64 VALUES (64, 0);\nSAVEPOINT sp;\nUPDATE b64 SET b = b + 1 WHERE a < 32;\nROLLBACK TO SAVEPOINT sp;\nCOMMIT;")
	txn := sqlparse.MustParseScript(sb.String())
	warm.RunTestCase(txn)
	check("RunTestCase-txn", 15, func() {
		_ = warm.RunTestCase(txn)
	})

	// Joins and a MERGE, which only PostgreSQL accepts. Joined and
	// NULL-padded rows, MERGE's updated and inserted rows and the
	// projected rows come from the row arena: heap rows cost 34 more. The
	// join's pair row and ON list sit in its scratch, and its keys are its
	// tables', composed once: building them per join cost 18 more.
	pg := minidb.New(minidb.Config{Dialect: sqlt.DialectPostgres})
	join := sqlparse.MustParseScript(`
CREATE TABLE j1 (id INT, v INT);
CREATE TABLE j2 (id INT, w INT);
INSERT INTO j1 VALUES (1, 10), (2, 20), (3, 30), (4, 40);
INSERT INTO j2 VALUES (2, 200), (3, 300), (5, 500);
SELECT j1.v, j2.w FROM j1 JOIN j2 ON j1.id = j2.id;
SELECT j1.v, j2.w FROM j1 LEFT JOIN j2 ON j1.id = j2.id;
MERGE INTO j1 USING j2 ON j1.id = j2.id WHEN MATCHED THEN UPDATE SET v = j2.w WHEN NOT MATCHED THEN INSERT VALUES (j2.id, j2.w);
`)
	pg.RunTestCase(join)
	check("RunTestCase-join", 32, func() {
		_ = pg.RunTestCase(join)
	})

	// Runner.Execute on a warm runner: the case runs, its coverage is
	// accumulated and its type sequence is tallied into the affinity map
	// from a buffer the runner keeps (a new sequence per execution cost 1
	// more, and the case's own statements 4 more, as RunTestCase).
	runner := harness.NewRunner(sqlt.DialectMariaDB, true)
	runner.Execute(small)
	check("Runner.Execute", 7, func() {
		runner.Execute(small)
	})

	// Mutants share the seed's statements: sequence mutations copy only the
	// slice, and the fixer copies only the nodes it repairs, into the
	// fixer's reused simulated schema. Cloning every kept statement and a
	// new schema per fix cost 13 more each, and copying a one-table
	// query's columns into its list of allowed columns 1 more.
	rng := rand.New(rand.NewSource(1))
	mut := mutate.New(rng, instantiate.New(rng, instantiate.NewLibrary(), sqlt.DialectMariaDB), sqlt.DialectMariaDB)
	check("DeleteAt", 2, func() {
		_ = mut.DeleteAt(tc, 1)
	})
	check("SubstituteType", 6, func() {
		_ = mut.SubstituteType(tc, 1)
	})

	// Value mutation clones only the one or two statements it perturbs
	// (cloning the whole seed cost 10 more).
	check("MutateValues", 9, func() {
		_ = mut.MutateValues(tc)
	})

	// Instantiation shares the library structures it picks, and the fixer
	// copies only the nodes it repairs (cloning every pick cost 13 more,
	// and copying a one-table query's columns 1 more).
	lib := instantiate.NewLibrary()
	lib.Harvest(tc)
	irng := rand.New(rand.NewSource(1))
	inst := instantiate.New(irng, lib, sqlt.DialectMariaDB)
	seq := tc.Types()
	check("Instantiator.TestCase", 9, func() {
		_ = inst.TestCase(seq)
	})

	// The same with library picks that all need a table rename: the INSERT
	// and the SELECT name a table no statement creates. The fixer copies
	// only the nodes from a pick's root down to the name it writes, and
	// the four-row VALUES list stays shared with the library: a deep
	// clone of every repaired pick cost 15 more.
	rlib := instantiate.NewLibrary()
	rlib.Harvest(sqlparse.MustParseScript(`
CREATE TABLE t1 (v1 INT, v2 INT);
INSERT INTO t9 VALUES (1, 2), (3, 4), (5, 6), (7, 8);
SELECT v1 FROM t9 WHERE (v2 = 2);
`))
	rinst := instantiate.New(rand.New(rand.NewSource(1)), rlib, sqlt.DialectMariaDB)
	check("Instantiator.TestCase-repair", 12, func() {
		_ = rinst.TestCase(seq)
	})

	// Campaign snapshot of a one-worker executor after a fixed
	// 3000-statement MariaDB campaign (136 pool seeds, 250 edges, 322
	// synthesized sequences): one slice per section and the seed store's
	// index of stored contents. Each affinity map is exported through one
	// slice of pairs walked off its bit matrix. Hazards are off, so there
	// are no crashes to export. Every pool seed's checkpoint entry is
	// encoded on its first snapshot, so the measured runs reuse it, and the
	// synthesizer's vector of sequences is shared, not copied; the seed
	// store is deduplicated through content ids given to seed objects on
	// their first snapshot. A map rebuilt per snapshot, every sequence
	// converted per snapshot and a sort per affinity map cost 6 more, and a
	// second copy of the start types and a reflective sort of them 3 more.
	// The structure library is rebuilt from the pool on resume, so it
	// costs the snapshot nothing. Coverage is exported straight into the
	// checkpoint's edge type.
	ex := shard.New(shard.Options{Core: core.Options{Dialect: sqlt.DialectMariaDB, Seed: 1}, Workers: 1})
	if _, err := ex.Run(3000, shard.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	check("Snapshot", 12, func() {
		_ = ex.Snapshot()
	})

	// The same campaign with hazards armed, as every benchmark workload
	// runs: the snapshot also exports the campaign oracle's crashes, once,
	// at the top level (a stack per crash; the type windows are shared,
	// since a crash report never changes, and a copy of each cost 5 more);
	// reproducers are rendered once per reproducer, not once per snapshot
	// (that cost 97 more). The worker entry carries none.
	hz := shard.New(shard.Options{Core: core.Options{Dialect: sqlt.DialectMariaDB, Seed: 1, Hazards: true}, Workers: 1})
	if _, err := hz.Run(3000, shard.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	check("Snapshot-hazards", 19, func() {
		_ = hz.Snapshot()
	})

	// Saving that snapshot: the state is encoded without reflection into
	// the buffer the previous save used, so a save allocates only for the
	// file protocol (temp name, file handles, paths), nothing per seed or
	// crash, and never the payload's size: encoding through json.Marshal,
	// or into a fresh buffer, costs at least the checkpoint's size in
	// bytes.
	path := filepath.Join(t.TempDir(), "alloc.ckpt")
	st := hz.Snapshot()
	save := func() {
		if err := checkpoint.Save(path, st); err != nil {
			t.Fatal(err)
		}
	}
	save()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	const saveAllocs = 22
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := testing.AllocsPerRun(20, save)
	runtime.ReadMemStats(&after)
	perSave := float64(after.TotalAlloc-before.TotalAlloc) / 21
	t.Logf("%-16s %5.1f allocs/op (budget %d), %.0f B/op for a %d B file", "Save", got, saveAllocs, perSave, fi.Size())
	if got > saveAllocs {
		t.Errorf("Save: %.1f allocs/op, budget %d", got, saveAllocs)
	}
	if perSave > float64(fi.Size())/4 {
		t.Errorf("Save: %.0f bytes allocated per save of a %d-byte checkpoint: the payload is copied or encoded by reflection", perSave, fi.Size())
	}
}
