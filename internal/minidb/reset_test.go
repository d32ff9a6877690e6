package minidb

import (
	"reflect"
	"testing"

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
