package minidb

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// interpGoldenFile pins the interpreter's answers on the scripts that cover
// every evaluation site: results, errors, crash IDs and coverage.
const interpGoldenFile = "testdata/interp_golden.txt"

// setOpArityCase sorts set operations whose sides differ in arity. The
// grammar attaches ORDER BY to the last query of a set operation, so the
// shape only arises from mutated ASTs; the case hoists it onto the first
// query. In the first SELECT the one-column rows are shorter than the output
// columns, in the second the two-column rows are wider.
func setOpArityCase() sqlast.TestCase {
	tc := sqlparse.MustParseScript(`CREATE TABLE ua (a INT, b INT);
INSERT INTO ua VALUES (1, 2), (3, 4);
SELECT a, b FROM ua UNION ALL SELECT a FROM ua ORDER BY b DESC, a;
SELECT a FROM ua UNION ALL SELECT a, b FROM ua ORDER BY a + 1, 2;`)
	for _, st := range tc[2:] {
		q := st.(*sqlast.SelectStmt)
		q.OrderBy, q.Right.OrderBy = q.Right.OrderBy, nil
	}
	return tc
}

// shortRowScanScript scans rows a trigger left one column short, which
// panics in scopeRowInto's full-width read.
const shortRowScanScript = reshapeScript + "\nSELECT a FROM r WHERE b > 0;"

// goldenCase is one pinned script and the dialect it runs under.
type goldenCase struct {
	name string
	d    sqlt.Dialect
	tc   func() sqlast.TestCase
}

// goldenCases lists the pinned scripts: every equivalence script, the
// concat cases, the reshape script alone and followed by its short-row
// scan, and the set-op arity case.
func goldenCases() []goldenCase {
	parsed := func(s string) func() sqlast.TestCase {
		return func() sqlast.TestCase { return sqlparse.MustParseScript(s) }
	}
	var cs []goldenCase
	for i, s := range equivalenceScripts {
		cs = append(cs, goldenCase{fmt.Sprintf("equivalence/%d", i), sqlt.DialectMySQL, parsed(s)})
	}
	for i, s := range concatScripts() {
		cs = append(cs, goldenCase{fmt.Sprintf("concat/%d", i), sqlt.DialectPostgres, parsed(s)})
	}
	return append(cs,
		goldenCase{"reshape", sqlt.DialectMySQL, parsed(reshapeScript)},
		goldenCase{"reshape-scan", sqlt.DialectMySQL, parsed(shortRowScanScript)},
		goldenCase{"setop-arity", sqlt.DialectMySQL, setOpArityCase})
}

// coverageDigest condenses exported coverage (edges in ascending slot order,
// each with its hit-count bucket mask) into its edge count and an FNV-1a
// hash of the (slot, mask) pairs.
func coverageDigest(cov []coverage.EdgeState) string {
	h := fnv.New64a()
	for _, es := range cov {
		fmt.Fprintf(h, "%d:%d;", es.Idx, es.Mask)
	}
	return fmt.Sprintf("coverage edges=%d fnv=%016x", len(cov), h.Sum64())
}

// renderGolden runs each golden case on a new engine and renders the
// entries of the golden file.
func renderGolden() map[string]string {
	out := make(map[string]string)
	for _, c := range goldenCases() {
		rendered, cov := runEquivCase(New(Config{Dialect: c.d}), c.tc(), true)
		out[c.name] = rendered + coverageDigest(cov) + "\n"
	}
	return out
}

// parseGolden splits the golden file into its "== name" entries.
func parseGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(interpGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	entries := make(map[string]string)
	var name string
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if n, ok := strings.CutPrefix(line, "== "); ok {
			name = strings.TrimSuffix(n, "\n")
			entries[name] = ""
		} else {
			entries[name] += line
		}
	}
	return entries
}

// TestInterpreterGolden: the interpreter's results, errors, crash IDs and
// coverage on every golden case match the pinned file, so a change to an
// evaluation site or its scope builders that moves any answer fails here.
func TestInterpreterGolden(t *testing.T) {
	want := parseGolden(t)
	got := renderGolden()
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, the cases render %d", len(want), len(got))
	}
	for _, c := range goldenCases() {
		if got[c.name] != want[c.name] {
			t.Errorf("%s diverged from %s\ngot:\n%swant:\n%s", c.name, interpGoldenFile, got[c.name], want[c.name])
		}
	}
}

// TestSetOpArityUnderOrderBy: the shorter rows of a set operation bind only
// their prefix of the output columns, so under b DESC their missing key
// sorts last.
func TestSetOpArityUnderOrderBy(t *testing.T) {
	out, _ := runEquivCase(New(Config{Dialect: sqlt.DialectMySQL}), setOpArityCase(), false)
	if !strings.Contains(out, "rows=[3,4,][1,2,][1,][3,]") {
		t.Fatalf("short rows did not sort last under b DESC:\n%s", out)
	}
}

// TestShortRowPanicMatches: scanning rows a trigger left one column short
// panics in scopeRowInto's full-width read, at the frames whose names the
// organic bug ID hashes, so campaigns keep recording it as the same bug.
func TestShortRowPanicMatches(t *testing.T) {
	out, _ := runEquivCase(New(Config{Dialect: sqlt.DialectMySQL}), sqlparse.MustParseScript(shortRowScanScript), true)
	if !strings.Contains(out, "panic=ORGANIC-32dce2a8\n") {
		t.Fatalf("short-row scan did not panic as ORGANIC-32dce2a8:\n%s", out)
	}
}

// TestConcatCap: a self-doubling || stops at maxConcatBytes with an error,
// whether it doubles in a trigger or in a plain UPDATE.
func TestConcatCap(t *testing.T) {
	want := fmt.Sprintf("string concatenation exceeds %d bytes", maxConcatBytes)
	for i, script := range concatScripts() {
		out, _ := runEquivCase(New(Config{Dialect: sqlt.DialectPostgres}), sqlparse.MustParseScript(script), false)
		if !strings.Contains(out, want) {
			t.Errorf("script %d: no %q error:\n%s", i, want, out)
		}
	}
}

// TestTableScopeMatchesRowScope: the table scope a DML evaluator reuses
// across rows binds exactly what rowScope binds into a new map, row after
// row, while a trigger renames the table or its columns, adds a column, or
// leaves a row shorter than the table.
func TestTableScopeMatchesRowScope(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMySQL})
	tbl := &Table{Name: "t", Cols: []Column{{Name: "a"}, {Name: "b"}, {Name: "a"}}}
	row := []Value{Int(1), Int(2), Int(3)}
	steps := []struct {
		reshape func()
		row     []Value
	}{
		{nil, row},
		{nil, row[:2]},
		{nil, row},
		{func() { tbl.Cols[1].Name = "c" }, row},
		{func() { tbl.Name = "u" }, row},
		{func() { tbl.Cols = append(tbl.Cols, Column{Name: "d"}) }, row},
		{nil, []Value{Int(4), Int(5), Int(6), Int(7)}},
		{func() { tbl.Cols = tbl.Cols[:1] }, row},
	}
	var x evalScratch
	for i, st := range steps {
		if st.reshape != nil {
			st.reshape()
		}
		if got, want := x.tableScope(tbl, st.row).row, e.rowScope(tbl, st.row).row; !reflect.DeepEqual(got, want) {
			t.Errorf("step %d: table scope %v, rowScope %v", i, got, want)
		}
	}
}

// TestInterpreterAllocsFlatPerRow pins the evaluation sites' per-row
// allocation contract: each site reuses its scope map across rows, so a
// filtering SELECT and a DELETE whose WHERE matches no row allocate the
// same on a 1-row and a 128-row table.
func TestInterpreterAllocsFlatPerRow(t *testing.T) {
	allocs := func(rows int, sql string) float64 {
		e := New(Config{Dialect: sqlt.DialectMySQL})
		var sb strings.Builder
		sb.WriteString("CREATE TABLE big (a INT, b INT);\nINSERT INTO big VALUES (0, 0)")
		for i := 1; i < rows; i++ {
			fmt.Fprintf(&sb, ", (%d, %d)", i, i*3)
		}
		sb.WriteString(";")
		run(t, e, sb.String())
		st := sqlparse.MustParseScript(sql)[0]
		if _, err := e.ExecStmt(st); err != nil { // warm the tracer's counters
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := e.ExecStmt(st); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, sql := range []string{
		"SELECT a, b FROM big WHERE a < 0 AND b >= 0;",
		"DELETE FROM big WHERE a < 0;",
	} {
		if one, many := allocs(1, sql), allocs(128, sql); one != many {
			t.Errorf("%s: %.1f allocs on 1 row, %.1f on 128", sql, one, many)
		}
	}
}
