package minidb

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// renderOutcome flattens an outcome into a comparable string: result shape,
// row values, messages, and error texts in statement order, then the crash
// report's ID. RunTestCase reuses its result buffers across calls, so
// outcomes must be rendered before the next run.
func renderOutcome(out Outcome) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "executed=%d errors=%d\n", out.Executed, out.Errors)
	if out.Crash != nil {
		fmt.Fprintf(&sb, "crash=%s\n", out.Crash.ID)
	}
	for i := range out.Results {
		if r := out.Results[i]; r != nil {
			fmt.Fprintf(&sb, "%d: cols=%v affected=%d msg=%q rows=", i, r.Cols, r.Affected, r.Msg)
			for _, row := range r.Rows {
				sb.WriteByte('[')
				for _, v := range row {
					sb.WriteString(v.String())
					sb.WriteByte(',')
				}
				sb.WriteByte(']')
			}
			sb.WriteByte('\n')
		}
		if err := out.Errs[i]; err != nil {
			fmt.Fprintf(&sb, "%d: err=%v\n", i, err)
		}
	}
	return sb.String()
}

// equivalenceScripts exercises every expression position the compiler lowers
// (WHERE, projection, ORDER BY, join ON, window partition/order, UPDATE SET,
// DELETE WHERE) plus every fallback (subqueries, EXISTS, function calls) and
// the error paths (unknown columns, division, depth). The compiled engine
// must match the interpreter on results, errors, AND coverage.
var equivalenceScripts = []string{
	// Comparisons, arithmetic, 3-valued logic, NULL propagation.
	`CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 10), (2, 20), (3, NULL);
SELECT a, b FROM t WHERE a > 1 AND b < 30;
SELECT a FROM t WHERE b IS NULL;
SELECT a FROM t WHERE NOT (a = 2) OR b = 10;
SELECT a + b, a - b, a * 2, b / a, b % a FROM t;
SELECT -a, a / 0 FROM t;
SELECT a FROM t WHERE NULL AND a = 1;
SELECT a FROM t WHERE NULL OR a = 1;`,

	// Strings, concat, CASE, casts, IN lists.
	`CREATE TABLE s (k INT, name VARCHAR(100));
INSERT INTO s VALUES (1, 'aa'), (2, 'bb'), (3, NULL);
SELECT name || '-' || k FROM s;
SELECT CASE WHEN k = 1 THEN 'one' WHEN k = 2 THEN 'two' ELSE 'many' END FROM s;
SELECT CASE k WHEN 1 THEN 10 ELSE 0 END FROM s;
SELECT CAST(k AS TEXT), CAST('12' AS INT) FROM s;
SELECT k FROM s WHERE k IN (1, 3);
SELECT k FROM s WHERE k NOT IN (99, NULL);`,

	// Fallback nodes: subqueries in value position, IN (subquery), EXISTS,
	// function calls — all re-enter the interpreter from compiled programs.
	`CREATE TABLE f (a INT, b VARCHAR(100));
INSERT INTO f VALUES (1, 'x'), (2, 'y');
SELECT a FROM f WHERE a = (SELECT MAX(a) FROM f);
SELECT a FROM f WHERE a IN (SELECT a FROM f WHERE b = 'x');
SELECT a FROM f WHERE EXISTS (SELECT 1 FROM f WHERE b = 'zzz');
SELECT UPPER(b), LENGTH(b) FROM f WHERE LENGTH(b) = 1;`,

	// Joins (compiled ON), ORDER BY expressions and ordinals, LIMIT.
	`CREATE TABLE ja (id INT, v INT);
CREATE TABLE jb (id INT, w INT);
INSERT INTO ja VALUES (1, 10), (2, 20), (3, 30);
INSERT INTO jb VALUES (1, 100), (2, 200);
SELECT ja.v, jb.w FROM ja JOIN jb ON ja.id = jb.id;
SELECT ja.v FROM ja LEFT JOIN jb ON ja.id = jb.id AND jb.w > 100;
SELECT v FROM ja ORDER BY v * -1;
SELECT v, id FROM ja ORDER BY 2 DESC, v LIMIT 2;`,

	// Windows: compiled partition/order keys around interpreted frames.
	`CREATE TABLE w (g INT, v INT);
INSERT INTO w VALUES (1, 10), (1, 20), (2, 30);
SELECT ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC) FROM w;
SELECT v, RANK() OVER (ORDER BY v + 0) FROM w ORDER BY v;
SELECT SUM(v) OVER (PARTITION BY g) FROM w ORDER BY 1;
SELECT LEAD(v) OVER (ORDER BY v) FROM w ORDER BY 1 DESC;`,

	// DML: compiled WHERE/ORDER BY in UPDATE/DELETE, compiled SET exprs,
	// and the trigger gate (SET exprs stay interpreted under triggers).
	`CREATE TABLE d (a INT, b INT);
INSERT INTO d VALUES (1, 10), (2, 20), (3, 30);
UPDATE d SET b = b + a WHERE a > 1;
SELECT * FROM d;
DELETE FROM d WHERE b > 25;
SELECT * FROM d;
CREATE TABLE log (m INT);
CREATE TRIGGER tg AFTER UPDATE ON d FOR EACH ROW INSERT INTO log VALUES (1);
UPDATE d SET b = a * 100 WHERE a = 1;
SELECT * FROM d;
SELECT * FROM log;`,

	// Error paths: unknown columns, type mismatches, nesting past the eval
	// depth limit. Both paths must produce identical error text and probes.
	`CREATE TABLE e1 (a INT);
INSERT INTO e1 VALUES (1);
SELECT nosuch FROM e1;
SELECT a FROM e1 WHERE nosuch = 1;
SELECT a FROM e1 WHERE a = ((((((((((((((((((((((((((1))))))))))))))))))))))))));
SELECT a + 'x' FROM e1;`,

	// Set operations and aggregates around compiled ORDER BY.
	`CREATE TABLE u (a INT, b INT);
INSERT INTO u VALUES (1, 2), (3, 4);
SELECT a FROM u UNION SELECT b FROM u ORDER BY a DESC;
SELECT SUM(a), COUNT(b) FROM u;
SELECT a FROM u GROUP BY a HAVING SUM(b) > 2 ORDER BY a;`,

	reshapeScript,

	// Duplicate and qualified names: scopeRowInto lets the leftmost of two
	// join columns named v win, rowScope binds "table.col" keys, and the
	// compiled layouts must resolve both the same way.
	`CREATE TABLE da (id INT, v INT);
CREATE TABLE db (id INT, v INT);
INSERT INTO da VALUES (1, 10), (2, 20);
INSERT INTO db VALUES (1, 200), (2, 100);
SELECT v, da.v, db.v FROM da JOIN db ON da.id = db.id AND v < 150 WHERE v > 5 ORDER BY v DESC;
SELECT id, SUM(v) OVER (PARTITION BY v ORDER BY id) FROM da JOIN db ON da.id = db.id;
UPDATE da SET v = da.v + 1 WHERE da.id = 1 ORDER BY da.v;
DELETE FROM db WHERE db.v > 150;
SELECT * FROM da;`,
}

// reshapeScript has a BEFORE trigger reshape its table mid-statement: the
// failed ALTER leaves every row one column short, so the later UPDATE's and
// DELETE's WHERE, ORDER BY, and SET expressions take the interpreter row by
// row (SET would compile: no UPDATE trigger is registered).
const reshapeScript = `CREATE TABLE r (a INT, b INT);
INSERT INTO r VALUES (1, 10), (2, 20), (3, 30);
CREATE TRIGGER rt BEFORE DELETE ON r FOR EACH ROW ALTER TABLE r ADD COLUMN c INT NOT NULL;
DELETE FROM r WHERE a = 3;
UPDATE r SET b = c + a WHERE a > 1 ORDER BY b DESC, a;
DROP TRIGGER rt;
DELETE FROM r WHERE b > 15 ORDER BY a DESC LIMIT 1;
DELETE FROM r WHERE c IS NULL;`

// concatTriggerScript doubles a column on every trigger fire: without the
// || result cap it grows until the process runs out of memory.
const concatTriggerScript = `CREATE TABLE t (c0 TEXT);
INSERT INTO t VALUES ('ab'), ('cd'), ('ef');
CREATE TRIGGER tg AFTER UPDATE ON t FOR EACH ROW UPDATE t SET c0 = (c0 || c0);
UPDATE t SET c0 = (c0 || c0);`

// runEquiv executes one script on an engine and returns the rendered
// outcome plus the coverage it produced.
func runEquiv(e *Engine, script string) (string, []coverage.EdgeState) {
	return runEquivCase(e, sqlparse.MustParseScript(script), false)
}

// runEquivCase is runEquiv on a parsed test case. With crashOK an engine
// panic, which RunTestCase re-raises, is recovered and rendered as the ID
// of the organic bug report a campaign would record for it; without, it
// fails the calling test.
func runEquivCase(e *Engine, tc sqlast.TestCase, crashOK bool) (string, []coverage.EdgeState) {
	tr := e.Tracer()
	tr.Reset()
	var rendered string
	if crashOK {
		rendered = renderRun(e, tc)
	} else {
		rendered = renderOutcome(e.RunTestCase(tc))
	}
	m := coverage.NewMap()
	m.Accumulate(tr)
	return rendered, m.Export()
}

// renderRun runs tc and renders its outcome or its engine panic.
func renderRun(e *Engine, tc sqlast.TestCase) (rendered string) {
	defer func() {
		if rec := recover(); rec != nil {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			rendered = fmt.Sprintf("executed=%d panic=%s\n", e.StmtProgress(), OrganicReport(rec, e.Dialect(), nil, buf).ID)
		}
	}()
	return renderOutcome(e.RunTestCase(tc))
}

// TestCompiledMatchesInterpreter is the coverage-equivalence contract: for
// every script, the default (compiled) engine and a DisablePlanCache engine
// produce identical results, identical errors, and identical coverage. The
// engines are reused across scripts so later cases run against warm caches —
// exactly the fuzzing steady state.
func TestCompiledMatchesInterpreter(t *testing.T) {
	compiled := New(Config{Dialect: sqlt.DialectMySQL})
	interp := New(Config{Dialect: sqlt.DialectMySQL, DisablePlanCache: true})
	for i, script := range equivalenceScripts {
		outC, covC := runEquiv(compiled, script)
		outI, covI := runEquiv(interp, script)
		if outC != outI {
			t.Errorf("script %d: outcomes diverged\ncompiled:\n%s\ninterpreter:\n%s", i, outC, outI)
		}
		if !reflect.DeepEqual(covC, covI) {
			t.Errorf("script %d: coverage diverged: %d vs %d edges", i, len(covC), len(covI))
		}
	}
	if st := compiled.PlanStats(); st.Compiles == 0 {
		t.Fatalf("compiled engine never compiled a plan: %+v", st)
	}
	if st := interp.PlanStats(); st.Compiles != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("DisablePlanCache engine touched the plan cache: %+v", st)
	}
}

// TestSetOpArityUnderOrderBy: sorting a set operation whose sides differ in
// arity. The grammar attaches ORDER BY to the last query of a set operation,
// so the shape only arises from mutated ASTs; the test hoists it onto the
// first query. In the first statement the one-column rows are shorter than
// the output columns and their sort keys take the interpreter; in the second
// the two-column rows are wider and stay compiled.
func TestSetOpArityUnderOrderBy(t *testing.T) {
	tc := sqlparse.MustParseScript(`CREATE TABLE ua (a INT, b INT);
INSERT INTO ua VALUES (1, 2), (3, 4);
SELECT a, b FROM ua UNION ALL SELECT a FROM ua ORDER BY b DESC, a;
SELECT a FROM ua UNION ALL SELECT a, b FROM ua ORDER BY a + 1, 2;`)
	for _, st := range tc[2:] {
		q := st.(*sqlast.SelectStmt)
		q.OrderBy, q.Right.OrderBy = q.Right.OrderBy, nil
	}
	outC, covC := runEquivCase(New(Config{Dialect: sqlt.DialectMySQL}), tc, false)
	outI, covI := runEquivCase(New(Config{Dialect: sqlt.DialectMySQL, DisablePlanCache: true}), tc, false)
	if outC != outI {
		t.Fatalf("outcomes diverged\ncompiled:\n%s\ninterpreter:\n%s", outC, outI)
	}
	if !reflect.DeepEqual(covC, covI) {
		t.Fatalf("coverage diverged: %d vs %d edges", len(covC), len(covI))
	}
	if !strings.Contains(outC, "rows=[3,4,][1,2,][1,][3,]") {
		t.Fatalf("short rows did not sort last under b DESC:\n%s", outC)
	}
}

// TestShortRowPanicMatches: scanning rows a trigger left one column short
// panics in scopeRowInto's full-width read. Both paths must panic at the
// same frames, so a campaign records the same organic bug with the plan
// cache on or off.
func TestShortRowPanicMatches(t *testing.T) {
	tc := sqlparse.MustParseScript(reshapeScript + "\nSELECT a FROM r WHERE b > 0;")
	outC, covC := runEquivCase(New(Config{Dialect: sqlt.DialectMySQL}), tc, true)
	outI, covI := runEquivCase(New(Config{Dialect: sqlt.DialectMySQL, DisablePlanCache: true}), tc, true)
	if outC != outI {
		t.Fatalf("outcomes diverged\ncompiled:\n%s\ninterpreter:\n%s", outC, outI)
	}
	if !reflect.DeepEqual(covC, covI) {
		t.Fatalf("coverage diverged: %d vs %d edges", len(covC), len(covI))
	}
	if !strings.Contains(outC, "panic=ORGANIC-") {
		t.Fatalf("short-row scan did not panic:\n%s", outC)
	}
}

// TestPlanCacheReuseAcrossLiterals: literal values are abstracted out of the
// shape hash, so value-mutated statements — the dominant fuzzing mutation —
// hit plans compiled for their siblings.
func TestPlanCacheReuseAcrossLiterals(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMySQL})
	run(t, e, `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 10), (2, 20);
SELECT b FROM t WHERE a = 1;
`)
	base := e.PlanStats()
	run(t, e, `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 10), (2, 20);
SELECT b FROM t WHERE a = 2;
`)
	st := e.PlanStats()
	if st.Hits <= base.Hits {
		t.Fatalf("value-mutated statement missed the cache: before %+v, after %+v", base, st)
	}
	if st.Compiles != base.Compiles {
		t.Fatalf("value-mutated statement recompiled: before %+v, after %+v", base, st)
	}
}

// TestDDLInvalidatesPlans: renaming columns re-keys every affected plan (the
// layout and the schema fingerprint both change), so a statement that would
// have read stale slots is recompiled against the new shape and stays
// equivalent to the interpreter.
func TestDDLInvalidatesPlans(t *testing.T) {
	const script = `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 10);
SELECT a FROM t WHERE a = 1;
ALTER TABLE t RENAME COLUMN a TO z;
ALTER TABLE t RENAME COLUMN b TO a;
SELECT a FROM t WHERE a = 10;
SELECT z FROM t WHERE a = 10;
`
	compiled := New(Config{Dialect: sqlt.DialectMySQL})
	interp := New(Config{Dialect: sqlt.DialectMySQL, DisablePlanCache: true})
	outC, covC := runEquiv(compiled, script)
	outI, covI := runEquiv(interp, script)
	if outC != outI {
		t.Fatalf("post-DDL outcomes diverged\ncompiled:\n%s\ninterpreter:\n%s", outC, outI)
	}
	if !reflect.DeepEqual(covC, covI) {
		t.Fatalf("post-DDL coverage diverged")
	}
	// The second SELECT must have found the renamed column's data: column
	// "a" is the old b (value 10), so the plan compiled for the original
	// shape cannot have been reused.
	if !strings.Contains(outC, "rows=[10,]") {
		t.Fatalf("post-DDL SELECT did not see the new schema:\n%s", outC)
	}
}

// TestSchemaFingerprint: the fingerprint is content-based, so structure-
// preserving dispatches (TCL, reruns) keep it stable while DDL that changes
// structure moves it.
func TestSchemaFingerprint(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMySQL})
	run(t, e, `CREATE TABLE t (a INT, b INT);`)
	fp1 := e.schemaFingerprint()
	run(t, e, `CREATE TABLE t (a INT, b INT);`)
	if fp2 := e.schemaFingerprint(); fp2 != fp1 {
		t.Fatalf("identical schema, different fingerprint: %x vs %x", fp1, fp2)
	}
	run(t, e, `CREATE TABLE t (a INT, b INT); ALTER TABLE t ADD COLUMN c INT;`)
	if fp3 := e.schemaFingerprint(); fp3 == fp1 {
		t.Fatalf("ALTER ADD COLUMN left fingerprint unchanged: %x", fp3)
	}
}

// TestBinderSlotCounts: the binder walks the compiler's preorder, so every
// literal and fallback slot the compiler allocated must be populated.
func TestBinderSlotCounts(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMySQL})
	run(t, e, `CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, 2);`)
	tbl := e.cat.Tables["t"]
	if tbl == nil {
		t.Fatal("table t missing")
	}
	stmt := sqlparse.MustParseScript(
		`SELECT a FROM t WHERE a = 1 AND b IN (2, 3) AND LENGTH('x') = (SELECT 1);`)[0].(*sqlast.SelectStmt)
	p, m := e.preparedEval(stmt.Where, e.tableLayout(tbl), nil)
	if len(m.lits) != p.nlits || len(m.falls) != p.nfalls {
		t.Fatalf("binder slots: lits %d/%d, falls %d/%d", len(m.lits), p.nlits, len(m.falls), p.nfalls)
	}
	if p.nlits == 0 {
		t.Fatal("expected literal slots")
	}
	if p.nfalls == 0 {
		t.Fatal("expected fallback slots (function call, subquery)")
	}
}

// TestCompiledEvalZeroAllocPerRow pins the compiled hot path's allocation
// contract: evaluating a slot-read comparison over bound rows allocates
// nothing. This is the per-row cost the plan cache exists to reach.
func TestCompiledEvalZeroAllocPerRow(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMySQL})
	run(t, e, `CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, 2);`)
	tbl := e.cat.Tables["t"]
	stmt := sqlparse.MustParseScript(`SELECT a FROM t WHERE a > 0 AND b < 10;`)[0].(*sqlast.SelectStmt)
	p, m := e.preparedEval(stmt.Where, e.tableLayout(tbl), nil)
	row := []Value{Int(1), Int(2)}
	// Warm the tracer's count map so steady-state flushes stay allocation-free.
	m.bindRow(row)
	if _, err := p.code(m, 1); err != nil {
		t.Fatal(err)
	}
	e.flushCov()
	got := testing.AllocsPerRun(500, func() {
		e.stepsUsed = 0 // per-statement watchdog budget, reset by ExecStmt in production
		m.bindRow(row)
		if _, err := p.code(m, 1); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Fatalf("compiled per-row eval allocates: %.1f allocs/op, want 0", got)
	}
}

// concatScripts are concatTriggerScript, whose SET stays on the interpreter
// (the table has an UPDATE trigger), and a trigger-free doubling that
// reaches the cap through a compiled SET.
func concatScripts() []string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE d (c0 TEXT);\nINSERT INTO d VALUES ('ab'), ('cd');\n")
	for i := 0; i < 20; i++ {
		sb.WriteString("UPDATE d SET c0 = c0 || c0;\n")
	}
	sb.WriteString("SELECT LENGTH(c0) FROM d;")
	return []string{concatTriggerScript, sb.String()}
}

// TestConcatCap: a self-doubling || stops at maxConcatBytes with the same
// error, results, and coverage on the compiled and interpreter paths.
func TestConcatCap(t *testing.T) {
	for i, script := range concatScripts() {
		compiled := New(Config{Dialect: sqlt.DialectPostgres})
		interp := New(Config{Dialect: sqlt.DialectPostgres, DisablePlanCache: true})
		outC, covC := runEquiv(compiled, script)
		outI, covI := runEquiv(interp, script)
		if outC != outI {
			t.Errorf("script %d: outcomes diverged\ncompiled:\n%s\ninterpreter:\n%s", i, outC, outI)
		}
		if !reflect.DeepEqual(covC, covI) {
			t.Errorf("script %d: coverage diverged: %d vs %d edges", i, len(covC), len(covI))
		}
		if want := fmt.Sprintf("string concatenation exceeds %d bytes", maxConcatBytes); !strings.Contains(outC, want) {
			t.Errorf("script %d: no %q error:\n%s", i, want, outC)
		}
	}
}

// FuzzCompiledMatchesInterpreter turns the coverage-equivalence contract
// into an open-ended search: any script that parses must produce the same
// results, errors, and coverage on fresh compiled and DisablePlanCache
// engines. An engine panic is an outcome too: both engines must panic at
// the same frames. Plain go test runs the seeds.
func FuzzCompiledMatchesInterpreter(f *testing.F) {
	for _, s := range equivalenceScripts {
		f.Add(s)
	}
	f.Add(reshapeScript + "\nSELECT a FROM r WHERE b > 0;")
	for _, s := range concatScripts() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		if _, err := sqlparse.ParseScript(script); err != nil {
			t.Skip()
		}
		outC, covC := runEquivCase(New(Config{Dialect: sqlt.DialectMySQL}), sqlparse.MustParseScript(script), true)
		outI, covI := runEquivCase(New(Config{Dialect: sqlt.DialectMySQL, DisablePlanCache: true}), sqlparse.MustParseScript(script), true)
		if outC != outI {
			t.Fatalf("outcomes diverged\ncompiled:\n%s\ninterpreter:\n%s", outC, outI)
		}
		if !reflect.DeepEqual(covC, covI) {
			t.Fatalf("coverage diverged: %d vs %d edges", len(covC), len(covI))
		}
	})
}
