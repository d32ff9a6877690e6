package harness

import (
	"testing"

	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

func TestInitialSeedsValidEverywhere(t *testing.T) {
	for _, d := range sqlt.Dialects() {
		seeds := InitialSeeds(d)
		if len(seeds) == 0 {
			t.Fatalf("%s: no initial seeds", d)
		}
		r := NewRunner(d, false)
		for i, tc := range seeds {
			for _, s := range tc {
				if !d.Supports(s.Type()) {
					t.Errorf("%s seed %d uses unsupported type %s", d, i, s.Type())
				}
			}
			_, _, crash := r.Execute(tc)
			if crash != nil {
				t.Errorf("%s seed %d crashed disarmed engine: %v", d, i, crash)
			}
		}
	}
}

func TestInitialSeedsLowErrorRate(t *testing.T) {
	// Seeds are the fuzzers' starting corpus; they must execute cleanly.
	r := NewRunner(sqlt.DialectPostgres, false)
	for i, tc := range InitialSeeds(sqlt.DialectPostgres) {
		out := r.Eng.RunTestCase(tc)
		if out.Errors != 0 {
			t.Errorf("seed %d has %d statement errors: %v", i, out.Errors, out.Errs)
		}
	}
}

func TestSeedsContainSquirrelAdjacencies(t *testing.T) {
	// The SQUIRREL-reachable bug patterns (bugs.go) rely on specific seed
	// adjacencies; losing one silently changes Table III's shape.
	needed := []struct{ a, b sqlt.Type }{
		{sqlt.Insert, sqlt.Insert},
		{sqlt.Insert, sqlt.Select},
		{sqlt.Update, sqlt.Delete},
		{sqlt.Insert, sqlt.Update},
		{sqlt.Delete, sqlt.Insert},
		{sqlt.Update, sqlt.Update},
		{sqlt.Insert, sqlt.Delete},
		{sqlt.Select, sqlt.Select},
		{sqlt.SetVar, sqlt.Select},
		{sqlt.Update, sqlt.Select},
		{sqlt.CreateIndex, sqlt.Insert},
	}
	seeds := InitialSeeds(sqlt.DialectMariaDB)
	for _, n := range needed {
		found := false
		for _, tc := range seeds {
			if tc.Types().Contains(n.a, n.b) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no seed contains adjacency %s -> %s", n.a, n.b)
		}
	}
}

func TestRunnerAccounting(t *testing.T) {
	r := NewRunner(sqlt.DialectPostgres, false)
	tc := sqlparse.MustParseScript("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")

	novel, newEdges, crash := r.Execute(tc)
	if !novel || newEdges == 0 || crash != nil {
		t.Fatalf("first execution: novel=%v newEdges=%d crash=%v", novel, newEdges, crash)
	}
	if r.Execs != 1 || r.Stmts != 3 {
		t.Fatalf("execs=%d stmts=%d", r.Execs, r.Stmts)
	}
	if r.Branches() == 0 {
		t.Fatal("branches must accumulate")
	}
	if r.GenAff.Count() == 0 {
		t.Fatal("generated affinities must be tallied")
	}

	novel, _, _ = r.Execute(tc)
	if novel {
		t.Fatal("identical execution must not be novel")
	}
	if r.Execs != 2 || r.Stmts != 6 {
		t.Fatalf("counters after second exec: %d, %d", r.Execs, r.Stmts)
	}
}

func TestRunnerRecordsCrashes(t *testing.T) {
	r := NewRunner(sqlt.DialectMySQL, true)
	// the Fig. 3 sequence triggers CVE-2021-35643
	tc := sqlparse.MustParseScript(`
CREATE TABLE v0 (v1 INT);
INSERT INTO v0 VALUES (1);
CREATE TRIGGER tg AFTER UPDATE ON v0 FOR EACH ROW INSERT INTO v0 VALUES (2);
SELECT * FROM v0;
`)
	_, _, crash := r.Execute(tc)
	if crash == nil || crash.ID != "CVE-2021-35643" {
		t.Fatalf("crash = %v", crash)
	}
	if r.Oracle.Count() != 1 {
		t.Fatal("oracle must record the crash")
	}
	// the same crash again is deduplicated
	r.Execute(tc)
	if r.Oracle.Count() != 1 {
		t.Fatal("duplicate crash must not add a bug")
	}
}
