package minidb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// query runs a setup script followed by one query and returns its rows.
func query(t *testing.T, setup, q string) [][]Value {
	t.Helper()
	e := newPG(t)
	script := setup + "\n" + q + ";"
	tc := sqlparse.MustParseScript(script)
	out := e.RunTestCase(tc)
	if out.Crash != nil {
		t.Fatalf("crash: %v", out.Crash)
	}
	for i, err := range out.Errs {
		if err != nil {
			t.Fatalf("stmt %d (%s): %v", i, tc[i].SQL(), err)
		}
	}
	return out.Results[len(out.Results)-1].Rows
}

const abSetup = `
CREATE TABLE t (a INT, b TEXT);
INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x'), (NULL, 'z');
`

func TestWhereSemantics(t *testing.T) {
	cases := []struct {
		q    string
		want int
	}{
		{"SELECT a FROM t WHERE a > 1", 2},
		{"SELECT a FROM t WHERE a >= 1", 3},
		{"SELECT a FROM t WHERE a = 2", 1},
		{"SELECT a FROM t WHERE a <> 2", 2}, // NULL row drops out
		{"SELECT a FROM t WHERE b = 'x'", 2},
		{"SELECT a FROM t WHERE a IS NULL", 1},
		{"SELECT a FROM t WHERE a IS NOT NULL", 3},
		{"SELECT a FROM t WHERE a BETWEEN 1 AND 2", 2},
		{"SELECT a FROM t WHERE a NOT BETWEEN 1 AND 2", 1},
		{"SELECT a FROM t WHERE a IN (1, 3)", 2},
		{"SELECT a FROM t WHERE a NOT IN (1, 3)", 1},
		// INs nested in a list element and in a subquery share the
		// engine's candidate stack with the IN around them.
		{"SELECT a FROM t WHERE a IN (1, (SELECT a FROM t WHERE a IN (3, 4) AND b = 'x'), 2)", 3},
		{"SELECT a FROM t WHERE a IN (SELECT a FROM t WHERE a IN (1, 2))", 2},
		{"SELECT a FROM t WHERE a NOT IN (2, (SELECT a FROM t WHERE a IN (3)))", 1},
		{"SELECT a FROM t WHERE a IN (9, (SELECT 8 FROM t WHERE a IN (1)))", 0},
		{"SELECT a FROM t WHERE b LIKE 'x'", 2},
		{"SELECT a FROM t WHERE b LIKE '%'", 4},
		{"SELECT a FROM t WHERE b NOT LIKE 'x'", 2},
		{"SELECT a FROM t WHERE a = 1 OR b = 'y'", 2},
		{"SELECT a FROM t WHERE a = 1 AND b = 'x'", 1},
		{"SELECT a FROM t WHERE NOT (a = 1)", 2},
	}
	for _, c := range cases {
		rows := query(t, abSetup, c.q)
		if len(rows) != c.want {
			t.Errorf("%s: %d rows, want %d", c.q, len(rows), c.want)
		}
	}
}

func TestNullThreeValuedLogic(t *testing.T) {
	// NULL = NULL is NULL, not true.
	rows := query(t, abSetup, "SELECT a FROM t WHERE a = NULL")
	if len(rows) != 0 {
		t.Fatalf("a = NULL matched %d rows", len(rows))
	}
	// x IN (..., NULL) with no match is NULL, not false -> NOT IN excludes.
	rows = query(t, abSetup, "SELECT a FROM t WHERE a NOT IN (99, NULL)")
	if len(rows) != 0 {
		t.Fatalf("NOT IN with NULL matched %d rows", len(rows))
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want Value
	}{
		{"1 + 2", Int(3)},
		{"7 - 10", Int(-3)},
		{"6 * 7", Int(42)},
		{"7 / 2", Int(3)},
		{"7 % 3", Int(1)},
		{"7.0 / 2", Float(3.5)},
		{"1 + 2.5", Float(3.5)},
		{"'a' || 'b'", Text("ab")},
		{"1 || 2", Text("12")},
		{"- 5 + 2", Int(-3)},
		{"NULL + 1", Null()},
		{"2 < 3", Bool(true)},
		{"2 >= 3", Bool(false)},
		{"'abc' = 'abc'", Bool(true)},
	}
	for _, c := range cases {
		rows := query(t, "", "SELECT "+c.expr)
		if len(rows) != 1 || len(rows[0]) != 1 {
			t.Fatalf("%s: rows = %v", c.expr, rows)
		}
		got := rows[0][0]
		if got.K != c.want.K || !((got.IsNull() && c.want.IsNull()) || Equal(got, c.want)) {
			t.Errorf("%s = %v (%d), want %v (%d)", c.expr, got, got.K, c.want, c.want.K)
		}
	}
}

func TestDivisionByZeroIsError(t *testing.T) {
	e := newPG(t)
	out := e.RunTestCase(sqlparse.MustParseScript("SELECT 1 / 0;"))
	if out.Errors != 1 {
		t.Fatal("division by zero must be a SQL error")
	}
	out = e.RunTestCase(sqlparse.MustParseScript("SELECT 1 % 0;"))
	if out.Errors != 1 {
		t.Fatal("modulo by zero must be a SQL error")
	}
}

func TestBuiltinFunctions(t *testing.T) {
	cases := []struct {
		expr, want string
	}{
		{"ABS(-4)", "4"},
		{"LENGTH('hello')", "5"},
		{"UPPER('aBc')", "ABC"},
		{"LOWER('aBc')", "abc"},
		{"TRIM('  x  ')", "x"},
		{"SUBSTR('hello', 2, 3)", "ell"},
		{"REPLACE('aaa', 'a', 'b')", "bbb"},
		{"COALESCE(NULL, NULL, 7)", "7"},
		{"NULLIF(3, 3)", "NULL"},
		{"NULLIF(3, 4)", "3"},
		{"ROUND(2.567, 1)", "2.6"},
		{"FLOOR(2.9)", "2"},
		{"CEIL(2.1)", "3"},
		{"MOD(7, 3)", "1"},
		{"TYPEOF(1)", "integer"},
		{"TYPEOF('x')", "text"},
		{"TYPEOF(NULL)", "null"},
		{"GREATEST(1, 9, 4)", "9"},
		{"LEAST(5, 2, 8)", "2"},
		{"CAST('12' AS INT)", "12"},
		{"CAST(3.7 AS TEXT)", "3.7"},
	}
	for _, c := range cases {
		rows := query(t, "", "SELECT "+c.expr)
		if got := rows[0][0].String(); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestAggregates(t *testing.T) {
	cases := []struct {
		q, want string
	}{
		{"SELECT COUNT(*) FROM t", "4"},
		{"SELECT COUNT(a) FROM t", "3"}, // NULLs excluded
		{"SELECT COUNT(DISTINCT b) FROM t", "3"},
		{"SELECT SUM(a) FROM t", "6"},
		{"SELECT AVG(a) FROM t", "2"},
		{"SELECT MIN(a) FROM t", "1"},
		{"SELECT MAX(a) FROM t", "3"},
		{"SELECT GROUP_CONCAT(b) FROM t WHERE a = 1", "x"},
		{"SELECT COUNT(*) FROM t WHERE a > 100", "0"},
		{"SELECT SUM(a) FROM t WHERE a > 100", "NULL"},
		{"SELECT TOTAL(a) FROM t WHERE a > 100", "0"},
	}
	for _, c := range cases {
		rows := query(t, abSetup, c.q)
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows", c.q, len(rows))
		}
		if got := rows[0][0].String(); got != c.want {
			t.Errorf("%s = %q, want %q", c.q, got, c.want)
		}
	}
}

func TestGroupByHaving(t *testing.T) {
	rows := query(t, abSetup, "SELECT b, COUNT(*) FROM t GROUP BY b HAVING COUNT(*) > 1 ORDER BY b")
	if len(rows) != 1 || rows[0][0].S != "x" || rows[0][1].I != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// GROUP BY ordinal
	rows = query(t, abSetup, "SELECT b, COUNT(*) FROM t GROUP BY 1 ORDER BY 1")
	if len(rows) != 3 {
		t.Fatalf("group-by-ordinal rows = %v", rows)
	}
}

func TestOrderLimitOffset(t *testing.T) {
	rows := query(t, abSetup, "SELECT a FROM t WHERE a IS NOT NULL ORDER BY a DESC")
	if rows[0][0].I != 3 || rows[2][0].I != 1 {
		t.Fatalf("rows = %v", rows)
	}
	rows = query(t, abSetup, "SELECT a FROM t WHERE a IS NOT NULL ORDER BY a LIMIT 2")
	if len(rows) != 2 || rows[1][0].I != 2 {
		t.Fatalf("rows = %v", rows)
	}
	rows = query(t, abSetup, "SELECT a FROM t WHERE a IS NOT NULL ORDER BY a LIMIT 2 OFFSET 2")
	if len(rows) != 1 || rows[0][0].I != 3 {
		t.Fatalf("rows = %v", rows)
	}
	rows = query(t, abSetup, "SELECT a FROM t ORDER BY 1 LIMIT 10 OFFSET 99")
	if len(rows) != 0 {
		t.Fatalf("offset past end = %v", rows)
	}
}

func TestOrderByProjectedAwayColumn(t *testing.T) {
	// The paper's Figure 1 seed: SELECT v2 FROM t1 ORDER BY v1 — the order
	// column is not in the projection.
	rows := query(t, `
CREATE TABLE t1 (v1 INT, v2 INT);
INSERT INTO t1 VALUES (3, 100), (1, 300), (2, 200);
`, "SELECT v2 FROM t1 ORDER BY v1")
	if len(rows) != 3 || rows[0][0].I != 300 || rows[1][0].I != 200 || rows[2][0].I != 100 {
		t.Fatalf("rows = %v", rows)
	}
	// output alias shadows the source column of the same name
	rows = query(t, `
CREATE TABLE s (a INT, b INT);
INSERT INTO s VALUES (1, 9), (2, 8);
`, "SELECT b AS a FROM s ORDER BY a")
	if rows[0][0].I != 8 || rows[1][0].I != 9 {
		t.Fatalf("alias shadow rows = %v", rows)
	}
}

func TestDistinctAndSetOps(t *testing.T) {
	rows := query(t, abSetup, "SELECT DISTINCT b FROM t")
	if len(rows) != 3 {
		t.Fatalf("distinct rows = %v", rows)
	}
	rows = query(t, abSetup, "SELECT b FROM t UNION SELECT b FROM t")
	if len(rows) != 3 {
		t.Fatalf("union rows = %v", rows)
	}
	rows = query(t, abSetup, "SELECT b FROM t UNION ALL SELECT b FROM t")
	if len(rows) != 8 {
		t.Fatalf("union all rows = %v", rows)
	}
	rows = query(t, abSetup, "SELECT b FROM t EXCEPT SELECT 'x'")
	if len(rows) != 2 {
		t.Fatalf("except rows = %v", rows)
	}
	rows = query(t, abSetup, "SELECT b FROM t INTERSECT SELECT 'x'")
	if len(rows) != 1 {
		t.Fatalf("intersect rows = %v", rows)
	}
}

func TestSubqueries(t *testing.T) {
	rows := query(t, abSetup, "SELECT (SELECT MAX(a) FROM t)")
	if rows[0][0].I != 3 {
		t.Fatalf("scalar subquery = %v", rows)
	}
	rows = query(t, abSetup, "SELECT a FROM t WHERE a = (SELECT MIN(a) FROM t)")
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Fatalf("subquery predicate = %v", rows)
	}
	rows = query(t, abSetup, "SELECT a FROM t WHERE a IN (SELECT a FROM t WHERE b = 'x')")
	if len(rows) != 2 {
		t.Fatalf("IN subquery = %v", rows)
	}
	rows = query(t, abSetup, "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM t WHERE b = 'zzz')")
	if len(rows) != 0 {
		t.Fatalf("EXISTS false = %v", rows)
	}
	rows = query(t, abSetup, "SELECT x FROM (SELECT a AS x FROM t WHERE a > 1) AS sub ORDER BY x")
	if len(rows) != 2 || rows[0][0].I != 2 {
		t.Fatalf("derived table = %v", rows)
	}
}

func TestWindowFunctions(t *testing.T) {
	setup := `
CREATE TABLE w (g INT, v INT);
INSERT INTO w VALUES (1, 10), (1, 20), (2, 30);
`
	rows := query(t, setup, "SELECT ROW_NUMBER() OVER (PARTITION BY g ORDER BY v) FROM w")
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	rows = query(t, setup, "SELECT v, RANK() OVER (ORDER BY v DESC) FROM w ORDER BY v")
	if rows[0][1].I != 3 || rows[2][1].I != 1 {
		t.Fatalf("rank rows = %v", rows)
	}
	rows = query(t, setup, "SELECT SUM(v) OVER (PARTITION BY g) FROM w ORDER BY 1")
	if rows[0][0].I != 30 || rows[2][0].I != 30 {
		t.Fatalf("sum-over rows = %v", rows)
	}
	rows = query(t, setup, "SELECT LEAD(v) OVER (ORDER BY v) FROM w ORDER BY 1 DESC")
	if !rows[2][0].IsNull() {
		t.Fatalf("lead rows = %v", rows)
	}
	offsetAndFrameWindows(t)
	windowsOverTiedKeys(t)
}

// offsetAndFrameWindows checks LAG and LEAD with an offset and a default,
// and aggregate windows with and without ORDER BY, against answers computed
// in Go.
func offsetAndFrameWindows(t *testing.T) {
	vs := []int64{10, 20, 30, 40}
	var sb strings.Builder
	sb.WriteString("CREATE TABLE t (id INT, v INT);\nINSERT INTO t VALUES ")
	for i, v := range vs {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i+1, v)
	}
	sb.WriteString(";")
	rows := query(t, sb.String(), `SELECT id,
  LAG(v, 2) OVER (ORDER BY id),
  LEAD(v, 2, 99) OVER (ORDER BY id),
  SUM(v) OVER (ORDER BY id),
  SUM(v) OVER (),
  LAG(v, 0) OVER (ORDER BY id)
FROM t ORDER BY id`)
	names := []string{"id", "LAG(v, 2)", "LEAD(v, 2, 99)", "SUM ORDER BY", "SUM", "LAG(v, 0)"}
	if len(rows) != len(vs) {
		t.Fatalf("got %d rows, want %d", len(rows), len(vs))
	}
	var total int64
	for _, v := range vs {
		total += v
	}
	var running int64
	for n, row := range rows {
		running += vs[n]
		want := []int64{int64(n + 1), -1, 99, running, total, vs[n]} // -1: NULL
		if n >= 2 {
			want[1] = vs[n-2]
		}
		if n+2 < len(vs) {
			want[2] = vs[n+2]
		}
		for c, w := range want {
			got := row[c].I
			if row[c].IsNull() {
				got = -1
			}
			if got != w {
				t.Errorf("id %d: %s = %v, want %d", n+1, names[c], row[c], w)
			}
		}
	}
}

// windowsOverTiedKeys checks ranking and offset windows on a table large
// enough that the sort reorders rows past its insertion-sort blocks, with
// tied keys, against answers computed with Go's sort.
func windowsOverTiedKeys(t *testing.T) {
	type rec struct{ id, g, v int64 }
	recs := []rec{{1, 1, 5}, {2, 2, 3}, {3, 1, 4}, {4, 2, 1}, {5, 1, 2}, {6, 2, 9},
		{7, 1, 0}, {8, 2, 7}, {9, 1, 6}, {10, 2, 8}, {11, 1, 4}, {12, 2, 1}, {13, 1, 9}}
	var sb strings.Builder
	sb.WriteString("CREATE TABLE big (id INT, g INT, v INT);\nINSERT INTO big VALUES ")
	for i, r := range recs {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d)", r.id, r.g, r.v)
	}
	sb.WriteString(";")
	rows := query(t, sb.String(), `SELECT id,
  ROW_NUMBER() OVER (ORDER BY v DESC, id),
  RANK() OVER (ORDER BY v),
  DENSE_RANK() OVER (ORDER BY v DESC),
  LAG(id) OVER (ORDER BY v, id),
  NTILE(3) OVER (ORDER BY v, id),
  ROW_NUMBER() OVER (PARTITION BY g ORDER BY v, id),
  SUM(v) OVER (ORDER BY v),
  COUNT(*) OVER (PARTITION BY g ORDER BY v DESC),
  LAG(id, 2, 0) OVER (ORDER BY v, id),
  LEAD(id, 3) OVER (ORDER BY v, id)
FROM big ORDER BY id`)

	// sorted returns the record indexes of part ordered by less.
	sorted := func(part []int, less func(a, b rec) bool) []int {
		idx := slices.Clone(part)
		sort.SliceStable(idx, func(a, b int) bool { return less(recs[idx[a]], recs[idx[b]]) })
		return idx
	}
	all := make([]int, len(recs))
	for i := range all {
		all[i] = i
	}
	want := make([][]int64, len(recs))
	for i := range want {
		want[i] = make([]int64, 11)
		want[i][0] = recs[i].id
	}
	byVID := func(a, b rec) bool { return a.v < b.v || a.v == b.v && a.id < b.id }
	for n, i := range sorted(all, func(a, b rec) bool { return a.v > b.v || a.v == b.v && a.id < b.id }) {
		want[i][1] = int64(n + 1)
	}
	// RANK counts the smaller keys, DENSE_RANK the distinct larger ones.
	for i, r := range recs {
		larger := map[int64]bool{}
		for _, o := range recs {
			if o.v < r.v {
				want[i][2]++
			}
			if o.v > r.v {
				larger[o.v] = true
			}
		}
		want[i][2]++
		want[i][3] = int64(len(larger)) + 1
	}
	asc := sorted(all, byVID)
	for n, i := range asc {
		want[i][4] = -1 // NULL
		if n > 0 {
			want[i][4] = recs[asc[n-1]].id
		}
		want[i][5] = int64(n*3/len(recs) + 1)
		want[i][9], want[i][10] = 0, -1 // LAG's default, LEAD's NULL
		if n >= 2 {
			want[i][9] = recs[asc[n-2]].id
		}
		if n+3 < len(asc) {
			want[i][10] = recs[asc[n+3]].id
		}
	}
	// The default frame of an ordered aggregate ends at the last peer of
	// the current row: every row with a key not past its own.
	for i, r := range recs {
		for _, o := range recs {
			if o.v <= r.v {
				want[i][7] += o.v
			}
			if o.g == r.g && o.v >= r.v {
				want[i][8]++
			}
		}
	}
	for _, g := range []int64{1, 2} {
		var part []int
		for i, r := range recs {
			if r.g == g {
				part = append(part, i)
			}
		}
		for n, i := range sorted(part, byVID) {
			want[i][6] = int64(n + 1)
		}
	}

	names := []string{"id", "ROW_NUMBER", "RANK", "DENSE_RANK", "LAG", "NTILE", "ROW_NUMBER PARTITION BY",
		"SUM ORDER BY", "COUNT PARTITION BY ORDER BY", "LAG(id, 2, 0)", "LEAD(id, 3)"}
	if len(rows) != len(recs) {
		t.Fatalf("got %d rows, want %d", len(rows), len(recs))
	}
	for i, row := range rows {
		for c, w := range want[i] {
			got := row[c].I
			if row[c].IsNull() {
				got = -1
			}
			if got != w {
				t.Errorf("id %d: %s = %v, want %d", recs[i].id, names[c], row[c], w)
			}
		}
	}
}

func TestDefaultsAndCoercion(t *testing.T) {
	setup := `
CREATE TABLE d (a INT DEFAULT 7, b TEXT DEFAULT 'dd', c FLOAT);
INSERT INTO d (c) VALUES (1.5);
INSERT INTO d DEFAULT VALUES;
`
	rows := query(t, setup, "SELECT a, b, c FROM d ORDER BY c")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// NULL sorts lowest, so the all-defaults row comes first
	if rows[0][0].I != 7 || rows[0][1].S != "dd" || !rows[0][2].IsNull() {
		t.Fatalf("defaults row = %v", rows[0])
	}
	// a repeated target column keeps its last value; the others default
	rows = query(t, setup, "INSERT INTO d (c, a, c) VALUES (1.5, 3, 2.5);\nSELECT a, b, c FROM d WHERE a = 3")
	if len(rows) != 1 || rows[0][1].S != "dd" || rows[0][2].F != 2.5 {
		t.Fatalf("repeated-target row = %v", rows)
	}
	// affinity coercion: text into INT column
	rows = query(t, "CREATE TABLE c1 (a INT);\nINSERT INTO c1 VALUES ('12');", "SELECT a FROM c1")
	if rows[0][0].K != KInt || rows[0][0].I != 12 {
		t.Fatalf("coerced value = %+v", rows[0][0])
	}
}

func TestViewsExpandLive(t *testing.T) {
	setup := `
CREATE TABLE base (a INT);
INSERT INTO base VALUES (1);
CREATE VIEW v AS SELECT a FROM base WHERE a > 0;
INSERT INTO base VALUES (2);
`
	rows := query(t, setup, "SELECT COUNT(*) FROM v")
	if rows[0][0].I != 2 {
		t.Fatalf("live view must see later inserts: %v", rows)
	}
}

func TestMaterializedViewFreshness(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE base (a INT);
INSERT INTO base VALUES (1);
CREATE MATERIALIZED VIEW mv AS SELECT a FROM base;
INSERT INTO base VALUES (2);
SELECT COUNT(*) FROM mv;
REFRESH MATERIALIZED VIEW mv;
SELECT COUNT(*) FROM mv;
`)
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	if out.Results[4].Rows[0][0].I != 1 {
		t.Fatal("matview must be stale before refresh")
	}
	if out.Results[6].Rows[0][0].I != 2 {
		t.Fatal("matview must be fresh after refresh")
	}
}

func TestRulesRewriteDML(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE audit (n INT);
CREATE TABLE prot (a INT);
CREATE RULE guard AS ON INSERT TO prot DO INSTEAD INSERT INTO audit VALUES (1);
INSERT INTO prot VALUES (42);
SELECT COUNT(*) FROM prot;
SELECT COUNT(*) FROM audit;
`)
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	if out.Results[4].Rows[0][0].I != 0 {
		t.Fatal("INSTEAD rule must suppress the base insert")
	}
	if out.Results[5].Rows[0][0].I != 1 {
		t.Fatal("rule action must run")
	}
}

func TestRuleDoNothing(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE p (a INT);
CREATE RULE r AS ON DELETE TO p DO INSTEAD NOTHING;
INSERT INTO p VALUES (1);
DELETE FROM p;
SELECT COUNT(*) FROM p;
`)
	if got := lastResult(t, out).Rows[0][0].I; got != 1 {
		t.Fatalf("DO INSTEAD NOTHING must keep the row, got count %d", got)
	}
}

func TestSequencesAndFunctions(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE SEQUENCE s START WITH 10 INCREMENT BY 5;
SELECT NEXTVAL('s');
SELECT NEXTVAL('s');
SELECT CURRVAL('s');
CREATE FUNCTION add3(x) RETURNS INT AS (x + 3);
SELECT add3(4);
`)
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	if out.Results[1].Rows[0][0].I != 15 || out.Results[2].Rows[0][0].I != 20 {
		t.Fatal("sequence values wrong")
	}
	if out.Results[3].Rows[0][0].I != 20 {
		t.Fatal("currval wrong")
	}
	if out.Results[5].Rows[0][0].I != 7 {
		t.Fatal("user function wrong")
	}
}

func TestPreparedAndCursors(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE t (a INT);
INSERT INTO t VALUES (1), (2), (3);
PREPARE q AS SELECT a FROM t ORDER BY a;
EXECUTE q;
DECLARE c CURSOR FOR SELECT a FROM t ORDER BY a;
FETCH 2 FROM c;
FETCH 2 FROM c;
CLOSE c;
DEALLOCATE q;
`)
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	if len(out.Results[3].Rows) != 3 {
		t.Fatal("execute must run the prepared query")
	}
	if len(out.Results[5].Rows) != 2 || len(out.Results[6].Rows) != 1 {
		t.Fatal("cursor pagination wrong")
	}
}

func TestPrivileges(t *testing.T) {
	e := newPG(t)
	out := e.RunTestCase(sqlparse.MustParseScript(`
CREATE TABLE sec (a INT);
INSERT INTO sec VALUES (1);
CREATE ROLE alice;
SET ROLE alice;
SELECT * FROM sec;
SET ROLE NONE;
GRANT SELECT ON sec TO alice;
SET ROLE alice;
SELECT * FROM sec;
INSERT INTO sec VALUES (2);
`))
	if out.Crash != nil {
		t.Fatalf("crash: %v", out.Crash)
	}
	if out.Errs[4] == nil {
		t.Fatal("unprivileged select must fail")
	}
	if out.Errs[8] != nil {
		t.Fatalf("granted select must pass: %v", out.Errs[8])
	}
	if out.Errs[9] == nil {
		t.Fatal("ungranted insert must fail")
	}
}

func TestAlterTableLifecycle(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE t (a INT);
INSERT INTO t VALUES (1);
ALTER TABLE t ADD COLUMN b TEXT DEFAULT 'n';
SELECT b FROM t;
ALTER TABLE t RENAME COLUMN b TO c;
SELECT c FROM t;
ALTER TABLE t ALTER COLUMN a TYPE TEXT;
ALTER TABLE t DROP COLUMN c;
ALTER TABLE t RENAME TO u;
SELECT a FROM u;
`)
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	if out.Results[3].Rows[0][0].S != "n" {
		t.Fatal("added column must be backfilled with its default")
	}
	if out.Results[9].Rows[0][0].K != KText {
		t.Fatal("column type change must rewrite stored values")
	}
}

func TestCopyToAndFrom(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE t (a INT, b TEXT);
INSERT INTO t VALUES (1, 'x');
COPY t TO STDOUT CSV;
COPY (SELECT a FROM t) TO STDOUT;
`)
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	if len(out.Results[2].Rows) != 1 {
		t.Fatal("COPY TO must dump the table")
	}
}

func TestDialectSpecificStatements(t *testing.T) {
	my := New(Config{Dialect: sqlt.DialectMySQL})
	out := my.RunTestCase(sqlparse.MustParseScript(`
CREATE TABLE t (a INT);
INSERT INTO t VALUES (1);
REPLACE INTO t VALUES (2);
OPTIMIZE TABLE t;
CHECK TABLE t;
FLUSH TABLES;
DESCRIBE t;
SHOW TABLES;
USE main;
LOAD DATA INFILE 'f.csv' INTO TABLE t;
SELECT COUNT(*) FROM t;
`))
	if out.Crash != nil {
		t.Fatalf("crash: %v", out.Crash)
	}
	for i, err := range out.Errs {
		if err != nil {
			t.Fatalf("stmt %d: %v", i, err)
		}
	}
	// 1 insert + 1 replace + 3 load-data rows
	if got := out.Results[10].Rows[0][0].I; got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
}

func TestNotifyListen(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
LISTEN ch;
NOTIFY ch, 'hello';
UNLISTEN ch;
NOTIFY ch, 'dropped';
`)
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	if len(e.sess.notices) != 1 || e.sess.notices[0] != "ch:hello" {
		t.Fatalf("notices = %v", e.sess.notices)
	}
}

func TestExplainTakesPlannerPaths(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE t (a INT);
CREATE INDEX i ON t (a);
INSERT INTO t VALUES (1);
EXPLAIN SELECT * FROM t WHERE a = 1;
EXPLAIN SELECT * FROM t WHERE a > 0;
EXPLAIN ANALYZE SELECT COUNT(*) FROM t;
`)
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	idx := out.Results[3].Rows
	if len(idx) == 0 || idx[0][0].S != "Index Scan using i on t" {
		t.Fatalf("plan = %v", idx)
	}
	scan := out.Results[4].Rows
	if scan[0][0].S != "Seq Scan on t" {
		t.Fatalf("plan = %v", scan)
	}
}

func TestMergeStatement(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMariaDB})
	out := e.RunTestCase(sqlparse.MustParseScript(`
CREATE TABLE tgt (id INT, v INT);
CREATE TABLE src (id INT, v INT);
INSERT INTO tgt VALUES (1, 10);
INSERT INTO src VALUES (1, 99), (2, 20);
MERGE INTO tgt USING src ON tgt.id = src.id WHEN MATCHED THEN UPDATE SET v = 0 WHEN NOT MATCHED THEN INSERT VALUES (2, 20);
SELECT v FROM tgt ORDER BY id;
`))
	for i, err := range out.Errs {
		if err != nil {
			t.Fatalf("stmt %d: %v", i, err)
		}
	}
	rows := out.Results[5].Rows
	if len(rows) != 2 || rows[0][0].I != 0 || rows[1][0].I != 20 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestWritableCTE(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE t (a INT);
WITH ins AS (INSERT INTO t VALUES (1)) SELECT COUNT(*) FROM t;
SELECT COUNT(*) FROM t;
`)
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	if got := out.Results[2].Rows[0][0].I; got != 1 {
		t.Fatalf("writable CTE insert lost: count = %d", got)
	}
}

func TestTableAndValuesStatements(t *testing.T) {
	rows := query(t, abSetup, "TABLE t")
	if len(rows) != 4 {
		t.Fatalf("TABLE stmt rows = %v", rows)
	}
	e := newPG(t)
	out := run(t, e, "VALUES (1, 'a'), (2, 'b');")
	if len(out.Results[0].Rows) != 2 {
		t.Fatal("VALUES statement rows")
	}
}

func TestTruncateResetsAndCountsRows(t *testing.T) {
	e := newPG(t)
	out := run(t, e, `
CREATE TABLE t (a INT);
INSERT INTO t VALUES (1), (2);
TRUNCATE TABLE t;
SELECT COUNT(*) FROM t;
`)
	if out.Results[2].Affected != 2 {
		t.Fatal("truncate must report removed rows")
	}
	if out.Results[3].Rows[0][0].I != 0 {
		t.Fatal("table must be empty")
	}
}

func TestUniqueIndexEnforcement(t *testing.T) {
	e := newPG(t)
	out := e.RunTestCase(sqlparse.MustParseScript(`
CREATE TABLE t (a INT);
INSERT INTO t VALUES (1);
CREATE UNIQUE INDEX u ON t (a);
INSERT INTO t VALUES (1);
INSERT INTO t VALUES (2);
CREATE TABLE d (a INT);
INSERT INTO d VALUES (3), (3);
CREATE UNIQUE INDEX du ON d (a);
`))
	if out.Errs[3] == nil {
		t.Fatal("duplicate insert against unique index must fail")
	}
	if out.Errs[4] != nil {
		t.Fatal("distinct insert must pass")
	}
	if out.Errs[7] == nil {
		t.Fatal("creating a unique index over duplicates must fail")
	}
}

func TestForeignKeyEnforcement(t *testing.T) {
	e := newPG(t)
	out := e.RunTestCase(sqlparse.MustParseScript(`
CREATE TABLE parent (id INT PRIMARY KEY);
CREATE TABLE child (pid INT REFERENCES parent(id));
INSERT INTO parent VALUES (1);
INSERT INTO child VALUES (1);
INSERT INTO child VALUES (99);
INSERT INTO child VALUES (NULL);
`))
	if out.Errs[3] != nil {
		t.Fatalf("valid FK insert failed: %v", out.Errs[3])
	}
	if out.Errs[4] == nil {
		t.Fatal("dangling FK insert must fail")
	}
	if out.Errs[5] != nil {
		t.Fatal("NULL FK insert must pass")
	}
}

func TestDomainsAndEnums(t *testing.T) {
	e := newPG(t)
	out := e.RunTestCase(sqlparse.MustParseScript(`
CREATE DOMAIN pos AS INT CHECK (VALUE > 0);
CREATE TYPE mood AS ENUM ('sad', 'happy');
CREATE TABLE t (a pos, m mood);
INSERT INTO t VALUES (5, 'happy');
INSERT INTO t VALUES (-1, 'sad');
`))
	if out.Errs[3] != nil {
		t.Fatalf("valid domain insert failed: %v", out.Errs[3])
	}
	if out.Errs[4] == nil {
		t.Fatal("domain check violation must fail")
	}
}

func TestSessionVarsAndPragma(t *testing.T) {
	my := New(Config{Dialect: sqlt.DialectMySQL})
	out := my.RunTestCase(sqlparse.MustParseScript(`
SET SESSION sql_mode = 'x';
SHOW sql_mode;
RESET sql_mode;
SHOW sql_mode;
`))
	if out.Results[1].Rows[0][0].S != "x" {
		t.Fatal("session var must round trip")
	}
	if !out.Results[3].Rows[0][0].IsNull() {
		t.Fatal("reset must clear the var")
	}

	co := New(Config{Dialect: sqlt.DialectComdb2})
	out = co.RunTestCase(sqlparse.MustParseScript(`
PRAGMA foreign_keys = 1;
PRAGMA foreign_keys;
`))
	if out.Results[1].Rows[0][0].I != 1 {
		t.Fatal("pragma must round trip")
	}
}
