package minidb

import (
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// TestConditionLibrary exercises every hazard condition helper against
// engine states built with plain SQL. Conditions are the extension surface
// for defining new seeded bugs, so each one is pinned here.
func TestConditionLibrary(t *testing.T) {
	e := newPG(t)
	run(t, e, `
CREATE TABLE filled (a INT UNIQUE);
INSERT INTO filled VALUES (1), (2), (3);
CREATE TABLE empty (a INT);
CREATE INDEX ix ON filled (a);
CREATE VIEW v AS SELECT a FROM filled;
CREATE TRIGGER tg AFTER INSERT ON filled FOR EACH ROW DELETE FROM empty;
CREATE RULE r AS ON DELETE TO filled DO INSTEAD NOTHING;
CREATE SEQUENCE sq;
CREATE FUNCTION f(x) RETURNS INT AS (x);
CREATE ROLE who;
PREPARE q AS SELECT 1;
DECLARE cur CURSOR FOR SELECT a FROM filled;
LISTEN ch;
SET ROLE who;
`)

	cases := []struct {
		name string
		cond condFn
		want bool
	}{
		{"cAlways", cAlways, true},
		{"cErr/nil", cErr, false},
		{"cOK/nil", cOK, true},
		{"cTables(2)", cTables(2), true},
		{"cTables(9)", cTables(9), false},
		{"cRows(3)", cRows(3), true},
		{"cRows(4)", cRows(4), false},
		{"cEmptyTable", cEmptyTable, true},
		{"cTrigger", cTrigger, true},
		{"cIndex", cIndex, true},
		{"cView", cView, true},
		{"cRule", cRule, true},
		{"cSeq", cSeq, true},
		{"cFunc", cFunc, true},
		{"cPrepared", cPrepared, true},
		{"cCursor", cCursor, true},
		{"cListening", cListening, true},
		{"cRole", cRole, true},
		{"cInTxn", cInTxn, false},
		{"cNoTxn", cNoTxn, true},
		{"cAnd(true,true)", cAnd(cAlways, cNoTxn), true},
		{"cAnd(true,false)", cAnd(cAlways, cInTxn), false},
	}
	for _, c := range cases {
		if got := c.cond(e, nil); got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}

	// cErr with a real error; cInTxn inside a transaction.
	if !cErr(e, e.errValue("boom")) {
		t.Error("cErr with error")
	}
	if cOK(e, e.errValue("boom")) {
		t.Error("cOK with error")
	}
	if _, err := e.ExecStmt(sqlparse.MustParse("BEGIN")); err != nil {
		t.Fatal(err)
	}
	if !cInTxn(e, nil) || cNoTxn(e, nil) {
		t.Error("cInTxn inside a transaction")
	}

	// empty catalog: everything false
	fresh := newPG(t)
	fresh.RunTestCase(sqlparse.MustParseScript("SELECT 1;"))
	for _, c := range []struct {
		name string
		cond condFn
	}{
		{"cTrigger", cTrigger}, {"cIndex", cIndex}, {"cView", cView},
		{"cRule", cRule}, {"cSeq", cSeq}, {"cFunc", cFunc},
		{"cPrepared", cPrepared}, {"cCursor", cCursor},
		{"cListening", cListening}, {"cRole", cRole}, {"cEmptyTable", cEmptyTable},
	} {
		if c.cond(fresh, nil) {
			t.Errorf("%s true on empty catalog", c.name)
		}
	}
}

func TestBugReportRendering(t *testing.T) {
	br := &BugReport{
		ID: "CVE-X", Dialect: sqlt.DialectMySQL, Component: "Optimizer",
		Kind: "SEGV", Stack: []string{"a", "b"},
		Window: sqlt.Sequence{sqlt.Insert, sqlt.Select},
	}
	msg := br.Error()
	for _, want := range []string{"SEGV", "CVE-X", "MySQL", "Optimizer", "a <- b"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q missing %q", msg, want)
		}
	}
	if br.StackKey() != "MySQL|a|b" {
		t.Fatalf("StackKey = %q", br.StackKey())
	}
}

func TestWindowEndsWith(t *testing.T) {
	e := newPG(t)
	e.typeWindow = []sqlt.Type{sqlt.CreateTable, sqlt.Insert, sqlt.Select}
	if !e.windowEndsWith([]sqlt.Type{sqlt.Insert, sqlt.Select}) {
		t.Error("suffix must match")
	}
	if e.windowEndsWith([]sqlt.Type{sqlt.CreateTable, sqlt.Insert}) {
		t.Error("non-suffix must not match")
	}
	if e.windowEndsWith([]sqlt.Type{sqlt.Select, sqlt.Select, sqlt.Select, sqlt.Select}) {
		t.Error("over-long pattern must not match")
	}
}

func TestCommaJoinCrossProduct(t *testing.T) {
	rows := query(t, `
CREATE TABLE a (x INT);
CREATE TABLE b (y INT);
INSERT INTO a VALUES (1), (2);
INSERT INTO b VALUES (10), (20), (30);
`, "SELECT x, y FROM a, b ORDER BY x, y")
	if len(rows) != 6 {
		t.Fatalf("comma join rows = %d, want 6", len(rows))
	}
	if rows[0][0].I != 1 || rows[0][1].I != 10 || rows[5][0].I != 2 || rows[5][1].I != 30 {
		t.Fatalf("cross product = %v", rows)
	}
	// with a join predicate in WHERE
	rows = query(t, `
CREATE TABLE a (x INT);
CREATE TABLE b (y INT);
INSERT INTO a VALUES (1), (2);
INSERT INTO b VALUES (1), (3);
`, "SELECT x FROM a, b WHERE x = y")
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Fatalf("filtered cross product = %v", rows)
	}
}
