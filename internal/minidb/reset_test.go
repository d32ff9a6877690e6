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

// dirtyScript puts at least one entry into every Catalog map and moves every
// session field off its newSession value.
const dirtyScript = `CREATE TABLE t (a INT, b TEXT);
INSERT INTO t VALUES (1, 'x');
CREATE VIEW v AS SELECT a FROM t;
CREATE INDEX i ON t (a);
CREATE TRIGGER tr AFTER DELETE ON t FOR EACH ROW INSERT INTO t VALUES (2, 'y');
CREATE RULE ru AS ON UPDATE TO t DO INSTEAD NOTHING;
CREATE SEQUENCE s START WITH 5;
CREATE FUNCTION f(x) RETURNS INT AS (x + 1);
CREATE PROCEDURE p() AS DELETE FROM t;
CREATE DOMAIN d AS INT CHECK (VALUE > 0);
CREATE TYPE mood AS ENUM ('sad', 'ok');
CREATE ROLE ro;
GRANT ALL ON t TO ro;
CREATE SCHEMA sc;
CREATE EXTENSION pgcrypto;
CREATE DATABASE db;
COMMENT ON TABLE t IS 'dirty';
SET v1 = 1;
SET GLOBAL g1 = 2;
LISTEN ch;
NOTIFY ch, 'payload';
DECLARE cur CURSOR FOR SELECT a FROM t;
PREPARE q AS SELECT a FROM t;
SET TRANSACTION ISOLATION LEVEL SERIALIZABLE;
USE db;
SET ROLE ro;`

// TestResetMatchesNewEngine pins reset's contract: however dirty the last
// test case left the engine, the next one starts from exactly the catalog
// and session a new engine has. The reset clears the maps in place, so a
// map that a future change forgets to clear fails the DeepEqual below. One
// run ends in a full ROLLBACK, so the current catalog is the former BEGIN
// snapshot; the other ends inside the transaction after ROLLBACK TO
// SAVEPOINT, with snapshots still on the stack.
//
// The statements are dispatched directly, past the dialect gate, so that
// every dialect's engine fills every map.
func TestResetMatchesNewEngine(t *testing.T) {
	endings := []struct{ name, script string }{
		{"rollback", `BEGIN;
DROP TABLE t;
ROLLBACK;`},
		{"rollback-to-savepoint", `BEGIN;
CREATE TABLE u (a INT);
SAVEPOINT sp;
DROP TABLE u;
ROLLBACK TO SAVEPOINT sp;`},
	}
	for _, d := range sqlt.Dialects() {
		e := New(Config{Dialect: d})
		for _, end := range endings {
			label := d.String() + "/" + end.name
			e.reset()
			for i, s := range sqlparse.MustParseScript(dirtyScript + "\n" + end.script) {
				e.stmtIndex = i
				if _, err := e.dispatch(s); err != nil {
					t.Fatalf("%s: statement %d (%s): %v", label, i, s.SQL(), err)
				}
			}
			assertDirty(t, label, e)
			e.reset()
			if !reflect.DeepEqual(e.cat, NewCatalog()) {
				t.Errorf("%s: catalog after reset differs from NewCatalog():\n%+v", label, *e.cat)
			}
			if !reflect.DeepEqual(e.sess, newSession()) {
				t.Errorf("%s: session after reset differs from newSession():\n%+v", label, *e.sess)
			}
			if e.txnStack != nil || e.spNames != nil {
				t.Errorf("%s: transaction state survived reset", label)
			}
		}
	}
}

// assertDirty fails unless every Catalog map holds more entries than a new
// catalog's and every session field differs from a new session's, so that
// TestResetMatchesNewEngine cannot pass on state that was never dirtied.
func assertDirty(t *testing.T, label string, e *Engine) {
	t.Helper()
	cat, fresh := reflect.ValueOf(e.cat).Elem(), reflect.ValueOf(NewCatalog()).Elem()
	for i := 0; i < cat.NumField(); i++ {
		if cat.Field(i).Len() <= fresh.Field(i).Len() {
			t.Errorf("%s: dirty run left Catalog.%s at its initial size", label, cat.Type().Field(i).Name)
		}
	}
	sess, newSess := reflect.ValueOf(e.sess).Elem(), reflect.ValueOf(newSession()).Elem()
	for i := 0; i < sess.NumField(); i++ {
		f, want := sess.Field(i), newSess.Field(i)
		var same bool
		if f.Kind() == reflect.String {
			same = f.String() == want.String()
		} else {
			same = f.Len() == want.Len()
		}
		if same {
			t.Errorf("%s: dirty run left session.%s at its initial value", label, sess.Type().Field(i).Name)
		}
	}
}

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

// equivalenceScripts exercises every evaluation site (WHERE, projection,
// ORDER BY, join ON, window partition/order, UPDATE SET, DELETE WHERE), the
// nodes that re-enter the engine (subqueries, EXISTS, function calls) and
// the error paths (unknown columns, division, depth).
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

	// Subqueries in value position, IN (subquery), EXISTS, function calls.
	`CREATE TABLE f (a INT, b VARCHAR(100));
INSERT INTO f VALUES (1, 'x'), (2, 'y');
SELECT a FROM f WHERE a = (SELECT MAX(a) FROM f);
SELECT a FROM f WHERE a IN (SELECT a FROM f WHERE b = 'x');
SELECT a FROM f WHERE EXISTS (SELECT 1 FROM f WHERE b = 'zzz');
SELECT UPPER(b), LENGTH(b) FROM f WHERE LENGTH(b) = 1;`,

	// Joins, ORDER BY expressions and ordinals, LIMIT.
	`CREATE TABLE ja (id INT, v INT);
CREATE TABLE jb (id INT, w INT);
INSERT INTO ja VALUES (1, 10), (2, 20), (3, 30);
INSERT INTO jb VALUES (1, 100), (2, 200);
SELECT ja.v, jb.w FROM ja JOIN jb ON ja.id = jb.id;
SELECT ja.v FROM ja LEFT JOIN jb ON ja.id = jb.id AND jb.w > 100;
SELECT v FROM ja ORDER BY v * -1;
SELECT v, id FROM ja ORDER BY 2 DESC, v LIMIT 2;`,

	// Windows: partition and order keys, frames.
	`CREATE TABLE w (g INT, v INT);
INSERT INTO w VALUES (1, 10), (1, 20), (2, 30);
SELECT ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC) FROM w;
SELECT v, RANK() OVER (ORDER BY v + 0) FROM w ORDER BY v;
SELECT SUM(v) OVER (PARTITION BY g) FROM w ORDER BY 1;
SELECT LEAD(v) OVER (ORDER BY v) FROM w ORDER BY 1 DESC;`,

	// DML: WHERE in UPDATE/DELETE, SET expressions, and SET under an
	// UPDATE trigger.
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
	// depth limit.
	`CREATE TABLE e1 (a INT);
INSERT INTO e1 VALUES (1);
SELECT nosuch FROM e1;
SELECT a FROM e1 WHERE nosuch = 1;
SELECT a FROM e1 WHERE a = ((((((((((((((((((((((((((1))))))))))))))))))))))))));
SELECT a + 'x' FROM e1;`,

	// Set operations and aggregates under ORDER BY.
	`CREATE TABLE u (a INT, b INT);
INSERT INTO u VALUES (1, 2), (3, 4);
SELECT a FROM u UNION SELECT b FROM u ORDER BY a DESC;
SELECT SUM(a), COUNT(b) FROM u;
SELECT a FROM u GROUP BY a HAVING SUM(b) > 2 ORDER BY a;`,

	reshapeScript,

	// Duplicate and qualified names: scopeRowInto lets the leftmost of two
	// join columns named v win, and table rows bind "table.col" keys.
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
// DELETE's WHERE, ORDER BY, and SET expressions bind only each row's prefix,
// while the table's columns are one more.
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

// runEquivCase executes one test case on an engine and returns the rendered
// outcome plus the coverage it produced. With crashOK an engine panic,
// which RunTestCase re-raises, is recovered and rendered as the ID of the
// organic bug report a campaign would record for it; without, it fails the
// calling test.
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

// concatScripts are concatTriggerScript, whose doubling runs in an UPDATE
// trigger, and a trigger-free doubling that reaches the cap through a plain
// UPDATE SET.
func concatScripts() []string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE d (c0 TEXT);\nINSERT INTO d VALUES ('ab'), ('cd');\n")
	for i := 0; i < 20; i++ {
		sb.WriteString("UPDATE d SET c0 = c0 || c0;\n")
	}
	sb.WriteString("SELECT LENGTH(c0) FROM d;")
	return []string{concatTriggerScript, sb.String()}
}

// FuzzEngineReuseMatchesFresh checks the engine's reset: running script a
// and then script b on one engine must give b the same results, errors and
// coverage as running b on a new engine. That is what a campaign relies on
// when it reuses one engine for every test case. Seeded bugs are armed, so a
// crash inside a leaves its half-done state to the reset as well. An
// organic panic in a is skipped: a campaign discards that engine
// (harness quarantine) instead of reusing it.
func FuzzEngineReuseMatchesFresh(f *testing.F) {
	for i, a := range equivalenceScripts {
		f.Add(a, equivalenceScripts[(i+1)%len(equivalenceScripts)])
	}
	// a leaves an open transaction, a sequence, a database, USE and a
	// variable behind; b fails or answers differently on each if it leaks.
	f.Add(`CREATE TABLE t (a INT);
CREATE SEQUENCE s START WITH 5;
CREATE DATABASE db;
USE db;
SET v1 = 7;
BEGIN;
INSERT INTO t VALUES (1);`, `BEGIN;
CREATE DATABASE db;
DROP DATABASE db;
SHOW v1;
CREATE TABLE t (a INT);
CREATE SEQUENCE s START WITH 1;
SHOW DATABASES;
SELECT * FROM t;
SELECT NEXTVAL('s');
COMMIT;`)
	cfg := Config{Dialect: sqlt.DialectMySQL, EnableHazards: true}
	f.Fuzz(func(t *testing.T, a, b string) {
		tcA, errA := sqlparse.ParseScript(a)
		tcB, errB := sqlparse.ParseScript(b)
		if errA != nil || errB != nil {
			t.Skip()
		}
		reused := New(cfg)
		if first, _, _ := strings.Cut(renderRun(reused, tcA), "\n"); strings.Contains(first, " panic=") {
			t.Skip()
		}
		outR, covR := runEquivCase(reused, tcB, true)
		outF, covF := runEquivCase(New(cfg), sqlparse.MustParseScript(b), true)
		if outR != outF {
			t.Fatalf("outcomes diverged\nreused:\n%s\nfresh:\n%s", outR, outF)
		}
		if !reflect.DeepEqual(covR, covF) {
			t.Fatalf("coverage diverged: %d vs %d edges", len(covR), len(covF))
		}
	})
}
