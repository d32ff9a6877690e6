package minidb

import (
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

func TestTxnErrorPaths(t *testing.T) {
	e := newPG(t)
	out := e.RunTestCase(sqlparse.MustParseScript(`
COMMIT;
ROLLBACK;
BEGIN;
BEGIN;
SAVEPOINT sp;
ROLLBACK TO SAVEPOINT missing;
RELEASE SAVEPOINT missing;
COMMIT;
SAVEPOINT orphan;
`))
	wantErr := []int{0, 1, 3, 5, 6, 8}
	for _, i := range wantErr {
		if out.Errs[i] == nil {
			t.Errorf("stmt %d should error", i)
		}
	}
	if out.Errs[2] != nil || out.Errs[4] != nil || out.Errs[7] != nil {
		t.Errorf("valid txn statements errored: %v", out.Errs)
	}
}

func TestSavepointStackDiscipline(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE t (a INT);
BEGIN;
INSERT INTO t VALUES (1);
SAVEPOINT s1;
INSERT INTO t VALUES (2);
SAVEPOINT s2;
INSERT INTO t VALUES (3);
ROLLBACK TO SAVEPOINT s1;
COMMIT;
SELECT COUNT(*) FROM t;
`)
	if got := lastResult(t, out).Rows[0][0].I; got != 1 {
		t.Fatalf("rows after nested savepoint rollback = %d, want 1", got)
	}
}

func TestReleaseSavepointDropsLater(t *testing.T) {
	e := newPG(t)
	out := e.RunTestCase(sqlparse.MustParseScript(`
BEGIN;
SAVEPOINT s1;
SAVEPOINT s2;
RELEASE SAVEPOINT s1;
ROLLBACK TO SAVEPOINT s2;
`))
	if out.Errs[4] == nil {
		t.Fatal("releasing s1 must discard s2 as well")
	}
}

func TestDDLRollsBackInTxn(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
BEGIN;
CREATE TABLE tmp (a INT);
ROLLBACK;
`)
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	if _, exists := e.cat.Tables["tmp"]; exists {
		t.Fatal("transactional DDL must roll back")
	}

	// A rollback restores the catalog as it was at BEGIN or SAVEPOINT, which
	// need not hold the default schema or database any more.
	for _, c := range []struct {
		d      sqlt.Dialect
		script string
	}{
		{sqlt.DialectPostgres, `DROP SCHEMA public; BEGIN; ROLLBACK; DROP SCHEMA public;`},
		{sqlt.DialectPostgres, `BEGIN; DROP SCHEMA public; SAVEPOINT s; ROLLBACK TO SAVEPOINT s; COMMIT; DROP SCHEMA public;`},
		{sqlt.DialectMySQL, `CREATE DATABASE d; USE d; DROP DATABASE main; BEGIN; ROLLBACK; DROP DATABASE main;`},
	} {
		out := run(t, New(Config{Dialect: c.d}), c.script)
		if out.Errors != 1 || out.Errs[len(out.Errs)-1] == nil || !strings.Contains(out.Errs[len(out.Errs)-1].Error(), "does not exist") {
			t.Errorf("%s: %s\nerrors %d %v, want only the last DROP to fail: the object does not exist", c.d, c.script, out.Errors, out.Errs)
		}
	}
}

func TestLockClusterReindex(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (3, 1), (1, 2), (2, 3);
CREATE INDEX ix ON t (a);
LOCK TABLE t IN SHARE MODE;
CLUSTER t USING ix;
SELECT a FROM t;
ALTER TABLE t RENAME COLUMN b TO c;
REINDEX TABLE t;
SELECT a FROM t WHERE a = 1;
`)
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	rows := out.Results[5].Rows
	if rows[0][0].I != 1 || rows[2][0].I != 3 {
		t.Fatalf("cluster must physically sort: %v", rows)
	}
}

func TestStaleIndexAfterAlter(t *testing.T) {
	e := newPG(t)
	run(t, e, `
CREATE TABLE t (a INT, b INT);
CREATE INDEX ix ON t (a);
ALTER TABLE t DROP COLUMN b;
`)
	if !e.cat.Indexes["ix"].stale {
		t.Fatal("ALTER must invalidate indexes")
	}
	run2 := sqlparse.MustParseScript("REINDEX INDEX ix;")
	e.RunTestCase(run2)
	// engine state resets per test case; reindex within one case instead
	e2 := newPG(t)
	out := run(t, e2, `
CREATE TABLE t (a INT, b INT);
CREATE INDEX ix ON t (a);
ALTER TABLE t DROP COLUMN b;
REINDEX INDEX ix;
`)
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	if e2.cat.Indexes["ix"].stale {
		t.Fatal("REINDEX must clear staleness")
	}
}

func TestDiscardVariants(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TEMPORARY TABLE tt (a INT);
CREATE TABLE keep (a INT);
SET SESSION x = 1;
PREPARE q AS SELECT 1;
DISCARD ALL;
`)
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	if _, exists := e.cat.Tables["tt"]; exists {
		t.Fatal("DISCARD ALL must drop temp tables")
	}
	if _, exists := e.cat.Tables["keep"]; !exists {
		t.Fatal("DISCARD ALL must keep regular tables")
	}
	if len(e.sess.prepared) != 0 || len(e.sess.vars) != 0 {
		t.Fatal("DISCARD ALL must clear session state")
	}
}

func TestCommentOnValidation(t *testing.T) {
	e := newPG(t)
	out := e.RunTestCase(sqlparse.MustParseScript(`
CREATE TABLE t (a INT);
COMMENT ON TABLE t IS 'fine';
COMMENT ON TABLE missing IS 'nope';
COMMENT ON COLUMN t.a IS 'col';
COMMENT ON COLUMN t.zz IS 'nope';
`))
	if out.Errs[1] != nil || out.Errs[3] != nil {
		t.Fatalf("valid comments failed: %v", out.Errs)
	}
	if out.Errs[2] == nil || out.Errs[4] == nil {
		t.Fatal("invalid comment targets must error")
	}
	if e.cat.Comments["TABLE:t"] != "fine" {
		t.Fatal("comment must be stored")
	}
}

func TestVacuumAnalyzeCheckpointFlush(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE t (a INT);
INSERT INTO t VALUES (1);
ANALYZE t;
VACUUM t;
VACUUM FULL;
CHECKPOINT;
DISCARD PLANS;
`)
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	if !e.cat.Tables["t"].analyzed {
		t.Fatal("ANALYZE must mark the table")
	}
}

func TestAnalyzedFlagClearedByWrites(t *testing.T) {
	e := newPG(t)
	run(t, e, `
CREATE TABLE t (a INT);
ANALYZE t;
INSERT INTO t VALUES (1);
`)
	if e.cat.Tables["t"].analyzed {
		t.Fatal("writes must invalidate statistics")
	}
}

func TestUpdateDeleteOrderLimit(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMySQL})
	out := e.RunTestCase(sqlparse.MustParseScript(`
CREATE TABLE t (a INT);
INSERT INTO t VALUES (1), (2), (3);
UPDATE t SET a = 0 ORDER BY a DESC LIMIT 1;
SELECT COUNT(*) FROM t WHERE a = 0;
DELETE FROM t ORDER BY a LIMIT 2;
SELECT COUNT(*) FROM t;
`))
	for i, err := range out.Errs {
		if err != nil {
			t.Fatalf("stmt %d: %v", i, err)
		}
	}
	if out.Results[3].Rows[0][0].I != 1 {
		t.Fatal("ORDER BY ... LIMIT must update exactly the top row")
	}
	if out.Results[5].Rows[0][0].I != 1 {
		t.Fatal("DELETE LIMIT must remove exactly two rows")
	}
}

func TestInsertConflictHandling(t *testing.T) {
	pg := newPG(t)
	out := run(t, pg, `
CREATE TABLE t (a INT PRIMARY KEY);
INSERT INTO t VALUES (1);
INSERT INTO t VALUES (1) ON CONFLICT DO NOTHING;
SELECT COUNT(*) FROM t;
`)
	if lastResult(t, out).Rows[0][0].I != 1 {
		t.Fatal("ON CONFLICT DO NOTHING must skip the duplicate")
	}

	my := New(Config{Dialect: sqlt.DialectMySQL})
	out2 := my.RunTestCase(sqlparse.MustParseScript(`
CREATE TABLE t (a INT PRIMARY KEY, b INT);
INSERT INTO t VALUES (1, 10);
INSERT IGNORE INTO t VALUES (1, 20);
REPLACE INTO t VALUES (1, 30);
SELECT b FROM t;
`))
	for i, err := range out2.Errs {
		if err != nil {
			t.Fatalf("stmt %d: %v", i, err)
		}
	}
	rows := out2.Results[4].Rows
	if len(rows) != 1 || rows[0][0].I != 30 {
		t.Fatalf("REPLACE must overwrite: %v", rows)
	}
}

func TestInsertReturningAndDeleteReturning(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 2) RETURNING a + b;
DELETE FROM t WHERE a = 1 RETURNING b;
`)
	if out.Results[1].Rows[0][0].I != 3 {
		t.Fatalf("insert returning = %v", out.Results[1].Rows)
	}
	if out.Results[2].Rows[0][0].I != 2 {
		t.Fatalf("delete returning = %v", out.Results[2].Rows)
	}
}

func TestSelectIntoCreatesTable(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE src (a INT);
INSERT INTO src VALUES (1), (2);
SELECT a INTO dst FROM src WHERE a > 1;
SELECT COUNT(*) FROM dst;
`)
	if lastResult(t, out).Rows[0][0].I != 1 {
		t.Fatal("SELECT INTO must materialize the filtered rows")
	}
}

func TestCallAndDo(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMariaDB})
	out := e.RunTestCase(sqlparse.MustParseScript(`
CREATE TABLE t (a INT);
CREATE PROCEDURE fill() AS INSERT INTO t VALUES (7);
CALL fill();
CALL fill();
DO (1 + 2);
SELECT COUNT(*) FROM t;
`))
	for i, err := range out.Errs {
		if err != nil {
			t.Fatalf("stmt %d: %v", i, err)
		}
	}
	if out.Results[5].Rows[0][0].I != 2 {
		t.Fatal("CALL must execute the procedure body")
	}
}

func TestShowDatabasesAndUse(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMySQL})
	out := e.RunTestCase(sqlparse.MustParseScript(`
CREATE DATABASE other;
SHOW DATABASES;
USE other;
USE nonexistent;
`))
	if len(out.Results[1].Rows) != 2 {
		t.Fatalf("databases = %v", out.Results[1].Rows)
	}
	if out.Errs[2] != nil {
		t.Fatal("USE of created database must pass")
	}
	if out.Errs[3] == nil {
		t.Fatal("USE of missing database must fail")
	}
}

func TestDropDatabaseGuards(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMySQL})
	out := e.RunTestCase(sqlparse.MustParseScript(`
DROP DATABASE main;
CREATE DATABASE d2;
DROP DATABASE d2;
`))
	if out.Errs[0] == nil {
		t.Fatal("dropping the current database must fail")
	}
	if out.Errs[2] != nil {
		t.Fatalf("dropping another database must pass: %v", out.Errs[2])
	}
}

// TestDropCascadeRemovesDependentViews: CASCADE drops every view that
// reads the table, wherever in its query the table appears, and no other.
func TestDropCascadeRemovesDependentViews(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE t (a INT);
CREATE TABLE u (b INT);
CREATE VIEW v AS SELECT a FROM t;
CREATE VIEW vjoin AS SELECT b FROM u JOIN t ON u.b = t.a;
CREATE VIEW vderived AS SELECT a FROM (SELECT a FROM t) AS s;
CREATE VIEW vscalar AS SELECT b FROM u WHERE b = (SELECT MAX(a) FROM t);
CREATE VIEW vin AS SELECT b FROM u WHERE b IN (SELECT a FROM t);
CREATE VIEW vexists AS SELECT b FROM u WHERE EXISTS (SELECT a FROM t);
CREATE VIEW vunion AS SELECT b FROM u UNION SELECT a FROM t;
CREATE VIEW other AS SELECT b FROM u;
DROP TABLE t CASCADE;
`)
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	for _, v := range []string{"v", "vjoin", "vderived", "vscalar", "vin", "vexists", "vunion"} {
		if _, exists := e.cat.Views[v]; exists {
			t.Errorf("CASCADE must drop the dependent view %s", v)
		}
	}
	if _, exists := e.cat.Views["other"]; !exists {
		t.Error("CASCADE dropped a view on another table")
	}
}

func TestTriggerBeforeAndAfterOrdering(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE t (a INT);
CREATE TABLE log (tag TEXT);
CREATE TRIGGER b1 BEFORE DELETE ON t FOR EACH ROW INSERT INTO log VALUES ('before');
CREATE TRIGGER a1 AFTER DELETE ON t FOR EACH ROW INSERT INTO log VALUES ('after');
INSERT INTO t VALUES (1);
DELETE FROM t;
SELECT tag FROM log;
`)
	rows := lastResult(t, out).Rows
	if len(rows) != 2 || rows[0][0].S != "before" || rows[1][0].S != "after" {
		t.Fatalf("trigger order = %v", rows)
	}
}

func TestTypeWindowTracking(t *testing.T) {
	e := newPG(t)
	e.RunTestCase(sqlparse.MustParseScript(`
CREATE TABLE t (a INT);
INSERT INTO t VALUES (1);
SELECT * FROM t;
`))
	w := e.TypeWindow()
	if len(w) != 3 || w[0] != sqlt.CreateTable || w[2] != sqlt.Select {
		t.Fatalf("window = %v", w)
	}
	// window includes errored statements too
	e.RunTestCase(sqlparse.MustParseScript("SELECT * FROM missing;"))
	if len(e.TypeWindow()) != 1 {
		t.Fatal("window must reset per test case and record errors")
	}
}
