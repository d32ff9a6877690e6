package minidb

import (
	"fmt"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// TestPoolsBounded runs a test case that takes more tables, catalogs and
// rows than the pools may hold, and a SELECT INTO whose Rows array is
// larger than a recycled table keeps: while it runs and after the next
// reset, the pools hold at most their caps, and a second run answers as the
// first. ExecStmt outside RunTestCase takes nothing from the pools.
func TestPoolsBounded(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE w (a INT, b INT, c INT, d INT);\nINSERT INTO w VALUES (0, 0, 0, 0)")
	for i := 1; i < 128; i++ {
		fmt.Fprintf(&sb, ", (%d, %d, 2, 3)", i, i%5)
	}
	sb.WriteString(";\nSELECT * INTO big FROM w AS x, w AS y;\nBEGIN;\n")
	for i := 0; i < maxPooledTables; i++ {
		fmt.Fprintf(&sb, "CREATE TABLE t%d (a INT);\nINSERT INTO t%d VALUES (%d);\n", i, i, i)
	}
	for i := 0; i < maxPooledCatalogs; i++ {
		fmt.Fprintf(&sb, "SAVEPOINT s%d;\nUPDATE w SET b = b + 1;\n", i)
	}
	sb.WriteString("ROLLBACK TO SAVEPOINT s3;\nSELECT COUNT(*), SUM(b) FROM w;\nTABLE big;")
	tc := sqlparse.MustParseScript(sb.String())

	e := New(Config{Dialect: sqlt.DialectPostgres})
	first := renderOutcome(e.RunTestCase(tc))
	if strings.Contains(first, "err=") {
		t.Fatalf("the script must run cleanly:\n%s", first)
	}
	p := &e.pool
	if len(p.tables) != maxPooledTables || len(p.cats) != maxPooledCatalogs || p.used != maxRowChunks {
		t.Fatalf("the script took %d tables, %d catalogs and %d chunks; want the caps %d, %d and %d",
			len(p.tables), len(p.cats), p.used, maxPooledTables, maxPooledCatalogs, maxRowChunks)
	}
	if again := renderOutcome(e.RunTestCase(tc)); again != first {
		t.Fatalf("a second run on recycled storage answers differently:\n%s\nfirst:\n%s", again, first)
	}
	e.RunTestCase(nil)
	if len(p.freeTables) > maxPooledTables || len(p.freeCats) > maxPooledCatalogs || len(p.chunks) > maxRowChunks {
		t.Errorf("the pools keep %d tables, %d catalogs and %d chunks; caps %d, %d and %d",
			len(p.freeTables), len(p.freeCats), len(p.chunks), maxPooledTables, maxPooledCatalogs, maxRowChunks)
	}
	for _, tb := range p.freeTables {
		if cap(tb.Rows) > maxPooledRows {
			t.Errorf("a recycled table keeps a Rows array of %d, above %d", cap(tb.Rows), maxPooledRows)
		}
	}

	// Outside RunTestCase every statement allocates as it did before the
	// pools: nothing is taken, and the rows it stores are its own.
	tables, cats, used := len(p.freeTables), len(p.freeCats), p.used
	for _, s := range sqlparse.MustParseScript("CREATE TABLE o (a INT);\nINSERT INTO o VALUES (1), (2);\nBEGIN;\nSAVEPOINT s;\nUPDATE o SET a = a + 10;\nROLLBACK TO SAVEPOINT s;\nSELECT * INTO o2 FROM o;") {
		if _, err := e.ExecStmt(s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.ExecStmt(sqlparse.MustParseScript("SELECT a FROM o2 ORDER BY a;")[0])
	if err != nil || len(res.Rows) != 2 || res.Rows[0][0] != Int(1) || res.Rows[1][0] != Int(2) {
		t.Fatalf("outside a test case: %v, %v", res, err)
	}
	if len(p.tables) != 0 || len(p.cats) != 1 || len(p.freeTables) != tables || len(p.freeCats) != cats || p.used != used {
		t.Errorf("ExecStmt outside RunTestCase took from the pools")
	}
	repl := New(Config{Dialect: sqlt.DialectPostgres})
	for _, s := range tc {
		_, _ = repl.ExecStmt(s)
	}
	if rp := &repl.pool; rp.chunks != nil || rp.tables != nil || rp.cats != nil || rp.freeTables != nil || rp.freeCats != nil {
		t.Errorf("an engine that never runs a test case holds pooled storage")
	}
}
