package minidb

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// dirtyScript puts at least one entry into every Catalog map, moves every
// session field off its newSession value and sets the table's unexported
// planner and lock state.
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
ANALYZE t;
LOCK TABLE t IN SHARE MODE;
CLUSTER t USING i;
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
// SAVEPOINT, with snapshots still on the stack. Both take their tables,
// catalogs and rows from the engine's pools, and a last script built
// wholly from what they left there must leave the catalog DeepEqual to a
// new engine's after the same script.
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
GRANT ALL ON u TO ro;
INSERT INTO u VALUES (1), (2), (3), (4);
SAVEPOINT sp;
DROP TABLE u;
ROLLBACK TO SAVEPOINT sp;`},
	}
	for _, d := range sqlt.Dialects() {
		e := New(Config{Dialect: d})
		e.pool.on = true // take from the pools, as inside RunTestCase
		for _, end := range endings {
			label := d.String() + "/" + end.name
			e.reset()
			dispatchAll(t, label, e, dirtyScript+"\n"+end.script)
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

		// What the pools keep is empty but for its arrays' capacity.
		for _, tb := range e.pool.freeTables {
			if !reflect.DeepEqual(*tb, Table{Cols: tb.Cols, Rows: tb.Rows, Constraints: tb.Constraints}) ||
				len(tb.Cols)+len(tb.Rows)+len(tb.Constraints) > 0 ||
				slices.ContainsFunc(tb.Rows[:cap(tb.Rows)], func(r []Value) bool { return r != nil }) {
				t.Errorf("%s: a recycled table keeps state: %+v", d, *tb)
			}
		}

		// Rebuild from what the dirty runs left in the pools, statement by
		// statement beside a new engine: every table and catalog the script
		// takes must be a recycled one, its rows must come from the
		// arena's existing chunks, and after every statement the catalog
		// and the snapshots must equal the new engine's.
		label := d.String() + "/rebuild"
		freeTables, freeCats, chunks := map[*Table]bool{}, map[*Catalog]bool{}, len(e.pool.rows.chunks)
		for _, tb := range e.pool.freeTables {
			freeTables[tb] = true
		}
		for _, c := range e.pool.freeCats {
			freeCats[c] = true
		}
		fresh := New(Config{Dialect: d})
		fresh.pool.on = true
		for i, s := range sqlparse.MustParseScript(rebuildScript) {
			for _, x := range []*Engine{e, fresh} {
				x.stmtIndex = i
				if _, err := x.dispatch(s); err != nil {
					t.Fatalf("%s: statement %d (%s): %v", label, i, s.SQL(), err)
				}
			}
			if len(e.txnStack) != len(fresh.txnStack) {
				t.Fatalf("%s: statement %d: transaction depth differs", label, i)
			}
			assertSameStorage(t, fmt.Sprintf("%s: statement %d: catalog", label, i), e.cat, fresh.cat)
			for k := range e.txnStack {
				assertSameStorage(t, fmt.Sprintf("%s: statement %d: snapshot %d", label, i, k), e.txnStack[k], fresh.txnStack[k])
			}
		}
		for _, tb := range e.pool.tables {
			if !freeTables[tb] {
				t.Errorf("%s: the script took a table that was not recycled", label)
			}
		}
		for _, c := range e.pool.cats[1:] {
			if !freeCats[c] {
				t.Errorf("%s: the script took a catalog that was not recycled", label)
			}
		}
		if len(e.pool.tables) != 5 || len(e.pool.cats) != 4 || len(e.pool.rows.chunks) != chunks {
			t.Errorf("%s: took %d tables, %d catalogs and %d new chunks; want 5, 3 and none", label, len(e.pool.tables), len(e.pool.cats)-1, len(e.pool.rows.chunks)-chunks)
		}

		// The reset leaves Schemas and Databases alone while each holds
		// just its default entry; any other contents, one other entry
		// included, must still be reset.
		for _, sd := range []struct{ name, script string }{
			{"schema-database-added", "CREATE SCHEMA sc;\nCREATE DATABASE db;"},
			{"schema-database-replaced", "CREATE SCHEMA sc;\nDROP SCHEMA public;\nCREATE DATABASE db;\nUSE db;\nDROP DATABASE main;"},
			{"schema-dropped", "DROP SCHEMA public;"},
		} {
			label := d.String() + "/" + sd.name
			e.reset()
			dispatchAll(t, label, e, sd.script)
			e.reset()
			if !reflect.DeepEqual(e.cat, NewCatalog()) {
				t.Errorf("%s: catalog after reset differs from NewCatalog():\n%+v", label, *e.cat)
			}
		}
	}
}

// assertSameStorage fails unless catalog a, built from recycled storage,
// is DeepEqual to b, built by a new engine, and its tables' Rows arrays
// and rows have b's capacity too. DeepEqual ignores capacity, which
// decides whether a later append reallocates: a result or MERGE's source
// loop may still read the old array, so storage must grow as new storage
// does.
func assertSameStorage(t *testing.T, label string, a, b *Catalog) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s differs from a new engine's:\n%+v\n%+v", label, *a, *b)
	}
	for n, ta := range a.Tables {
		tb := b.Tables[n]
		if cap(ta.Rows) != cap(tb.Rows) {
			t.Fatalf("%s: table %s's Rows capacity is %d, a new engine's %d", label, n, cap(ta.Rows), cap(tb.Rows))
		}
		for i := range ta.Rows {
			if cap(ta.Rows[i]) != cap(tb.Rows[i]) {
				t.Fatalf("%s: table %s's row %d has capacity %d, a new engine's %d", label, n, i, cap(ta.Rows[i]), cap(tb.Rows[i]))
			}
		}
	}
}

// rebuildScript builds a catalog wholly from the tables and catalogs that
// TestResetMatchesNewEngine's dirty runs leave in the pools: five tables
// (two created, three snapshot copies) and three catalogs. It ends inside
// the transaction after ROLLBACK TO SAVEPOINT, so the live catalog is a
// snapshot.
const rebuildScript = `CREATE TABLE r1 (a INT PRIMARY KEY, b TEXT, CHECK (a > 0));
INSERT INTO r1 VALUES (1, 'a'), (2, 'b');
ALTER TABLE r1 ADD COLUMN c INT DEFAULT 3;
BEGIN;
INSERT INTO r1 VALUES (3, 'c', 4);
SAVEPOINT sp;
DELETE FROM r1 WHERE a = 1;
ROLLBACK TO SAVEPOINT sp;
SELECT a, b INTO r2 FROM r1;
ALTER TABLE r2 DROP COLUMN a;
INSERT INTO r2 VALUES ('d');`

// dispatchAll runs script on e statement by statement, past the dialect
// gate, so that every dialect's engine runs every statement.
func dispatchAll(t *testing.T, label string, e *Engine, script string) {
	t.Helper()
	for i, s := range sqlparse.MustParseScript(script) {
		e.stmtIndex = i
		if _, err := e.dispatch(s); err != nil {
			t.Fatalf("%s: statement %d (%s): %v", label, i, s.SQL(), err)
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

// Scripts that drive the per-test-case pools (pool.go): as a, they leave
// recycled tables, catalogs and rows behind; as b, they are built from them.
const (
	// txnPoolScript ends in ROLLBACK, so the live catalog the next reset
	// clears is a former BEGIN snapshot and the root catalog is recycled.
	txnPoolScript = `CREATE TABLE t (a INT PRIMARY KEY, b TEXT);
INSERT INTO t VALUES (1, 'x'), (2, 'y');
BEGIN;
INSERT INTO t VALUES (3, 'z');
CREATE TABLE u (c INT);
INSERT INTO u VALUES (7);
SAVEPOINT s1;
UPDATE t SET b = 'w' WHERE a = 1;
INSERT INTO u VALUES (8);
SAVEPOINT s2;
DELETE FROM t WHERE a = 2;
ROLLBACK TO SAVEPOINT s1;
SELECT * FROM t ORDER BY a;
TABLE u;
ROLLBACK;
SELECT * FROM t;
TABLE t;`
	// txnCommitScript keeps its snapshots until COMMIT.
	txnCommitScript = `BEGIN;
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 2);
SAVEPOINT sp;
INSERT INTO t VALUES (3, 4);
ALTER TABLE t ADD COLUMN c INT DEFAULT 9;
ROLLBACK TO SAVEPOINT sp;
INSERT INTO t VALUES (5, 6);
RELEASE SAVEPOINT sp;
COMMIT;
SELECT * FROM t;`
	// joinMergeScript joins and MERGEs (PostgreSQL only), including outer
	// joins' NULL-padded rows.
	joinMergeScript = `CREATE TABLE tg (id INT, v INT);
CREATE TABLE src (id INT, v INT);
INSERT INTO tg VALUES (1, 10), (2, 20);
INSERT INTO src VALUES (2, 200), (3, 300);
MERGE INTO tg USING src ON tg.id = src.id WHEN MATCHED THEN UPDATE SET v = src.v WHEN NOT MATCHED THEN INSERT VALUES (src.id, src.v);
SELECT tg.id, src.v FROM tg LEFT JOIN src ON tg.id = src.id ORDER BY tg.id;
SELECT * FROM tg RIGHT JOIN src ON tg.id = src.id;
SELECT * FROM tg, src WHERE tg.v > 15;
MERGE INTO tg USING tg ON tg.id = tg.id + 1 WHEN NOT MATCHED THEN INSERT VALUES (9, 9);
TABLE tg;`
	// reshapePoolScript stores SELECT INTO rows and reshapes tables in
	// place with ALTER ADD and DROP COLUMN.
	reshapePoolScript = `CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 2), (3, 4);
SELECT a, b INTO t2 FROM t;
TABLE t2;
ALTER TABLE t2 ADD COLUMN c INT DEFAULT 5;
ALTER TABLE t2 DROP COLUMN a;
ALTER TABLE t DROP COLUMN a;
ALTER TABLE t ADD COLUMN d TEXT;
INSERT INTO t2 VALUES (8, 9);
SELECT * FROM t2;
SELECT * FROM t;`
	// listScript changes what the per-statement trigger and index lists
	// and a table's column names and keys hold inside BEGIN ... ROLLBACK
	// (CREATE and DROP TRIGGER, CREATE INDEX, RENAME TO and RENAME
	// COLUMN), fires nested triggers, and fails on unique keys and
	// missing relations.
	listScript = `CREATE TABLE t (a INT PRIMARY KEY, b INT);
CREATE TABLE u (a INT, b INT);
CREATE TABLE log (n INT);
CREATE UNIQUE INDEX ib ON t (b);
CREATE TRIGGER t1 AFTER INSERT ON t FOR EACH ROW INSERT INTO u VALUES (1, 2);
CREATE TRIGGER t2 AFTER INSERT ON u FOR EACH ROW INSERT INTO log VALUES (3);
INSERT INTO t VALUES (1, 1);
SELECT t.a, u.b FROM t JOIN u ON t.a = u.a;
BEGIN;
CREATE TRIGGER t0 AFTER INSERT ON t FOR EACH ROW DELETE FROM log;
DROP TRIGGER t2;
CREATE UNIQUE INDEX ia ON u (a);
ALTER TABLE t RENAME TO t9;
ALTER TABLE u RENAME COLUMN b TO z;
INSERT INTO t9 VALUES (2, 2);
INSERT INTO t9 VALUES (3, 2);
SELECT t9.a, u.z FROM t9 JOIN u ON t9.a = u.a;
SELECT * FROM log;
ROLLBACK;
INSERT INTO t VALUES (4, 4);
INSERT INTO t VALUES (5, 4);
SELECT t.a, u.b FROM t JOIN u ON t.a = u.a;
SELECT * FROM t9;
SELECT u.z FROM u;
SELECT a, COUNT(*) FROM u GROUP BY a;
SELECT DISTINCT n FROM log UNION SELECT b FROM u;
SELECT b FROM t EXCEPT SELECT b FROM u;
INSERT INTO missing VALUES (1);
SELECT a FROM missing2;`
)

// pastArenaScript takes more rows than one test case may take from the
// arena, so its last rows come from the heap.
func pastArenaScript() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE w (c0 INT, c1 INT, c2 INT, c3 INT, c4 INT, c5 INT, c6 INT, c7 INT);\nINSERT INTO w VALUES (0, 0, 0, 0, 0, 0, 0, 0)")
	for i := 1; i < 128; i++ {
		fmt.Fprintf(&sb, ", (%d, 1, 2, 3, 4, 5, 6, %d)", i, i%3)
	}
	sb.WriteString(";\nSELECT * FROM w AS x, w AS y WHERE x.c7 = 1;\nSELECT * FROM w AS x, w AS y;\nUPDATE w SET c1 = c0 + 1;\nSELECT COUNT(*), SUM(c1) FROM w;")
	return sb.String()
}

// FuzzEngineReuseMatchesFresh checks the engine's reset: running script a
// and then script b on one engine must give b the same results, errors and
// coverage as running b on a new engine of the same dialect. That is what
// a campaign relies on when it reuses one engine for every test case. The
// reused engine runs a and b twice, so its pooled tables, catalogs and rows
// are recycled more than once, after a ROLLBACK too. Seeded bugs are armed,
// so a crash inside a leaves its half-done state to the reset as well. An
// organic panic in a is skipped: a campaign discards that engine (harness
// quarantine) instead of reusing it.
func FuzzEngineReuseMatchesFresh(f *testing.F) {
	const pg, my = uint8(sqlt.DialectPostgres), uint8(sqlt.DialectMySQL)
	for i, a := range equivalenceScripts {
		f.Add(my, a, equivalenceScripts[(i+1)%len(equivalenceScripts)])
	}
	// a leaves an open transaction, a sequence, a database, USE and a
	// variable behind; b fails or answers differently on each if it leaks.
	f.Add(my, `CREATE TABLE t (a INT);
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
	f.Add(pg, txnPoolScript, txnCommitScript)
	f.Add(uint8(sqlt.DialectMariaDB), txnCommitScript, txnPoolScript)
	f.Add(pg, joinMergeScript, txnPoolScript)
	f.Add(pg, txnPoolScript, joinMergeScript)
	f.Add(pg, reshapePoolScript, reshapePoolScript)
	f.Add(uint8(sqlt.DialectComdb2), pastArenaScript(), reshapePoolScript)
	f.Add(pg, pastArenaScript(), joinMergeScript)
	f.Add(pg, listScript, joinMergeScript)
	f.Add(pg, joinMergeScript, listScript)
	f.Add(my, listScript, listScript)
	f.Add(uint8(sqlt.DialectMariaDB), txnPoolScript, listScript)
	f.Fuzz(func(t *testing.T, d uint8, a, b string) {
		tcA, errA := sqlparse.ParseScript(a)
		tcB, errB := sqlparse.ParseScript(b)
		if errA != nil || errB != nil {
			t.Skip()
		}
		dialects := sqlt.Dialects()
		cfg := Config{Dialect: dialects[int(d)%len(dialects)], EnableHazards: true}
		outF, covF := runEquivCase(New(cfg), sqlparse.MustParseScript(b), true)
		reused := New(cfg)
		for round := 1; round <= 2; round++ {
			if first, _, _ := strings.Cut(renderRun(reused, tcA), "\n"); strings.Contains(first, " panic=") {
				t.Skip()
			}
			outR, covR := runEquivCase(reused, tcB, true)
			if outR != outF {
				t.Fatalf("%s, round %d: outcomes diverged\nreused:\n%s\nfresh:\n%s", cfg.Dialect, round, outR, outF)
			}
			if !reflect.DeepEqual(covR, covF) {
				t.Fatalf("%s, round %d: coverage diverged: %d vs %d edges", cfg.Dialect, round, len(covR), len(covF))
			}
		}
	})
}
