package minidb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// scanHazards is the linear scan checkHazards replaced: every
// window-matched hazard of the corpus in order, the first that matches
// winning.
func scanHazards(e *Engine, bugs []*Bug, lastErr error) *Bug {
	for _, b := range bugs {
		if b.Pattern == nil || !e.windowEndsWith(b.Pattern) {
			continue
		}
		if b.Cond != nil && !b.Cond(e, lastErr) {
			continue
		}
		return b
	}
	return nil
}

// indexedHazard runs checkHazards for the window's last type and returns
// the ID of the bug it raised, "" if none.
func indexedHazard(t *testing.T, e *Engine, lastErr error) (id string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			br, ok := r.(*BugReport)
			if !ok {
				panic(r)
			}
			id = br.ID
		}
	}()
	e.checkHazards(e.typeWindow[len(e.typeWindow)-1], lastErr)
	return ""
}

// TestHazardIndexMatchesScan: over every dialect's corpus, random type
// windows and engine states, the indexed check raises the same first bug
// as the linear scan. Half the windows end with (a suffix of) some
// hazard's pattern, so matches and first-match ties are common.
func TestHazardIndexMatchesScan(t *testing.T) {
	states := []string{"", `
CREATE TABLE filled (a INT UNIQUE);
INSERT INTO filled VALUES (1), (2), (3);
CREATE TABLE empty (a INT);
CREATE INDEX ix ON filled (a);
CREATE VIEW v AS SELECT a FROM filled;
CREATE TRIGGER tg AFTER INSERT ON filled FOR EACH ROW DELETE FROM empty;
CREATE SEQUENCE sq;
PREPARE q AS SELECT 1;
BEGIN;
`}
	rng := rand.New(rand.NewSource(1))
	matched := 0
	for _, d := range sqlt.Dialects() {
		bugs := bugsFor(d)
		types := d.Types()
		for si, script := range states {
			e := New(Config{Dialect: d, EnableHazards: true})
			// Build the state with hazards disarmed, then arm them.
			e.hazards = nil
			if script != "" {
				for _, s := range sqlparse.MustParseScript(script) {
					if d.Supports(s.Type()) {
						_, _ = e.ExecStmt(s)
					}
				}
			}
			e.hazards = hazardIndexes[d]
			for range 3000 {
				n := 1 + rng.Intn(8)
				w := make([]sqlt.Type, n)
				for i := range w {
					w[i] = types[rng.Intn(len(types))]
				}
				if b := bugs[rng.Intn(len(bugs))]; rng.Intn(2) == 0 && len(b.Pattern) > 0 {
					k := 1 + rng.Intn(min(len(b.Pattern), n))
					copy(w[n-k:], b.Pattern[len(b.Pattern)-k:])
				}
				e.typeWindow = w
				for _, lastErr := range []error{nil, errValue("boom")} {
					want := ""
					if b := scanHazards(e, bugs, lastErr); b != nil {
						want = b.ID
						matched++
					}
					if got := indexedHazard(t, e, lastErr); got != want {
						t.Fatalf("%s state %d window %v err=%v: indexed raised %q, scan %q", d, si, w, lastErr, got, want)
					}
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no window matched any hazard: the test checks nothing")
	}
}

// TestLazyErrorReadsAsEager: an error formatted on its first Error() reads
// exactly as fmt.Sprintf at the call would have, even after later
// statements change the table, row or value it names, and an argument of a
// mutable kind is captured at the call.
func TestLazyErrorReadsAsEager(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE t (a INT PRIMARY KEY, b INT NOT NULL);
INSERT INTO t VALUES (1, 1);
INSERT INTO t VALUES (1, 2);
INSERT INTO t (a) VALUES (2);
SELECT c FROM t;
SELECT -'x';
CREATE TABLE log (v INT NOT NULL);
CREATE TRIGGER tg AFTER INSERT ON t FOR EACH ROW INSERT INTO log VALUES (NULL);
INSERT INTO t VALUES (3, 3);
SELECT a FROM gone;
ALTER TABLE t RENAME TO moved;
UPDATE moved SET b = 9;
CREATE TABLE gone (a INT);
`)
	want := map[int]string{
		2: "duplicate key value violates unique constraint",
		3: `null value in column "b" violates not-null constraint`,
		4: `column "c" does not exist`,
		5: "cannot negate x",
		8: `trigger "tg" failed: null value in column "v" violates not-null constraint`,
		9: `relation "gone" does not exist`,
	}
	for i, w := range want {
		if out.Errs[i] == nil {
			t.Fatalf("statement %d: no error, want %q", i, w)
		}
		if got := out.Errs[i].Error(); got != w {
			t.Errorf("statement %d: Error() = %q, want %q", i, got, w)
		}
		if got := out.Errs[i].Error(); got != w { // the cached message
			t.Errorf("statement %d: second Error() = %q, want %q", i, got, w)
		}
	}

	// Every kept argument kind, and the kinds formatted at the call.
	inner := errValue("inner %d", 7)
	cols := []string{"a", "b"}
	row := &Value{K: KInt, I: 1}
	cases := []struct {
		err  error
		want string
	}{
		{errValue("%s: unsupported statement type %s", sqlt.DialectMariaDB, sqlt.Merge),
			fmt.Sprintf("%s: unsupported statement type %s", sqlt.DialectMariaDB, sqlt.Merge)},
		{errValue("INSERT has %d values but %d target columns", 3, int64(2)), "INSERT has 3 values but 2 target columns"},
		{errValue("%s expects %d argument(s), got %d", "ABS", 1, 2), "ABS expects 1 argument(s), got 2"},
		{errValue("trigger %q failed: %s", "tg", inner), `trigger "tg" failed: inner 7`},
		{errValue("no arguments, 100%% literal"), "no arguments, 100% literal"},
		{errValue("%v %v %v %v", 1, 2, 3, 4), "1 2 3 4"},
		{errValue("columns %v", cols), "columns [a b]"},
		{errValue("row %v", row), fmt.Sprintf("row %v", row)},
		{errValue("unsupported expression %T", row), "unsupported expression *minidb.Value"},
	}
	cols[0] = "changed"
	row.I = 99
	for _, c := range cases {
		if got := c.err.Error(); got != c.want {
			t.Errorf("Error() = %q, want %q", got, c.want)
		}
	}
}

// TestResultsSurviveSlabGrowth: a test case with more results than one
// slab holds keeps every statement's result intact, and a second run on
// the same engine reuses the slab with the same answers.
func TestResultsSurviveSlabGrowth(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE t (a INT);\n")
	for i := range 100 {
		fmt.Fprintf(&sb, "SELECT %d;\nINSERT INTO t VALUES (%d);\n", i, i)
	}
	tc := sqlparse.MustParseScript(sb.String())
	e := newPG(t)
	for range 2 {
		out := e.RunTestCase(tc)
		for i := range 100 {
			sel, ins := out.Results[1+2*i], out.Results[2+2*i]
			if len(sel.Rows) != 1 || sel.Rows[0][0].I != int64(i) {
				t.Fatalf("SELECT %d returned %v", i, sel.Rows)
			}
			if ins.Msg != "INSERT" || ins.Affected != 1 {
				t.Fatalf("INSERT %d returned %+v", i, *ins)
			}
		}
	}
}

// TestNestedInsertStages: a trigger's INSERT runs while the outer INSERT's
// VALUES rows are staged; each stages into its own buffer, though the
// first INSERT left one on the free list.
func TestNestedInsertStages(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE w (a INT);
INSERT INTO w VALUES (0);
CREATE TABLE t (a INT, b TEXT);
CREATE TABLE log (x INT, y INT, z INT);
CREATE TRIGGER tg AFTER INSERT ON t FOR EACH ROW INSERT INTO log VALUES (7, 8, 9), (10, 11, 12);
INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three');
SELECT a, b FROM t;
SELECT x, y, z FROM log;
`)
	rows := out.Results[6].Rows
	if len(rows) != 3 {
		t.Fatalf("t has %d rows, want 3", len(rows))
	}
	for i, name := range []string{"one", "two", "three"} {
		if rows[i][0].I != int64(i+1) || rows[i][1].S != name {
			t.Fatalf("t row %d = %v", i, rows[i])
		}
	}
	log := out.Results[7].Rows
	if len(log) != 6 {
		t.Fatalf("log has %d rows, want 6", len(log))
	}
	for i, r := range log {
		want := []int64{7, 8, 9}
		if i%2 == 1 {
			want = []int64{10, 11, 12}
		}
		for c := range want {
			if r[c].I != want[c] {
				t.Fatalf("log row %d = %v", i, r)
			}
		}
	}
}
