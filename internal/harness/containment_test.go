package harness

import (
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// TestExecuteContainsInjectedPanics: the heart of crash containment. An
// engine that panics on (almost) every statement must never kill the caller;
// every contained panic becomes a synthetic PANIC bug with a reproducer.
func TestExecuteContainsInjectedPanics(t *testing.T) {
	r := NewRunnerWithConfig(minidb.Config{
		Dialect:   sqlt.DialectPostgres,
		FaultRate: 0.5,
		FaultSeed: 3,
	})
	tc := sqlparse.MustParseScript(
		"CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")

	sawCrash := false
	for i := 0; i < 40; i++ {
		_, _, crash := r.Execute(tc) // must not panic
		if crash != nil {
			sawCrash = true
			if crash.Kind != "PANIC" || !strings.HasPrefix(crash.ID, "ORGANIC-") {
				t.Fatalf("contained crash = %+v", crash)
			}
		}
	}
	if !sawCrash || r.EnginePanics == 0 {
		t.Fatalf("rate-0.5 injector never fired: panics=%d", r.EnginePanics)
	}
	if r.Execs != 40 {
		t.Fatalf("every Execute must count: execs=%d", r.Execs)
	}

	// Dedup: the injector has exactly two panic sites (before/after
	// dispatch), so dozens of contained panics collapse to at most two
	// unique bugs, whose Hits add back up to the panic total.
	if n := r.Oracle.Count(); n < 1 || n > 2 {
		t.Fatalf("organic dedup: %d unique bugs (want 1..2): %v", n, r.Oracle.IDs())
	}
	hits := 0
	for _, c := range r.Oracle.Crashes() {
		hits += c.Hits
		if c.Reproducer.SQL() == "" {
			t.Fatal("organic crash lacks a reproducer")
		}
	}
	if hits != r.EnginePanics {
		t.Fatalf("oracle hits %d != contained panics %d", hits, r.EnginePanics)
	}
}

// TestQuarantineRebuildsEngine: a contained panic mid-case must leave the
// runner with a fresh, fully functional engine — no half-executed
// transaction, trigger, or catalog state may leak into the next case.
func TestQuarantineRebuildsEngine(t *testing.T) {
	r := NewRunnerWithConfig(minidb.Config{
		Dialect:   sqlt.DialectMariaDB,
		FaultRate: 1, // first dispatch panics
		FaultSeed: 1,
	})
	old := r.Eng
	tc := sqlparse.MustParseScript(
		"CREATE TABLE q (a INT); BEGIN; INSERT INTO q VALUES (1);")
	_, _, crash := r.Execute(tc)
	if crash == nil {
		t.Fatal("rate-1 injector must crash the case")
	}
	if r.Eng == old {
		t.Fatal("quarantine must replace the engine instance")
	}
	if r.EnginePanics != 1 {
		t.Fatalf("EnginePanics = %d", r.EnginePanics)
	}
}

// TestPostPanicHygieneWithSeededHazards: after a contained organic panic the
// next Execute must behave exactly like a first execution — seeded hazards
// still fire and the oracle keeps deduplicating.
func TestPostPanicHygieneWithSeededHazards(t *testing.T) {
	r := NewRunnerWithConfig(minidb.Config{
		Dialect:       sqlt.DialectMySQL,
		EnableHazards: true,
	})
	hazardTC := sqlparse.MustParseScript(`
CREATE TABLE v0 (v1 INT);
INSERT INTO v0 VALUES (1);
CREATE TRIGGER tg AFTER UPDATE ON v0 FOR EACH ROW INSERT INTO v0 VALUES (2);
SELECT * FROM v0;
`)
	_, _, crash := r.Execute(hazardTC)
	if crash == nil || crash.ID != "CVE-2021-35643" {
		t.Fatalf("seeded hazard did not fire: %v", crash)
	}

	// Simulate an organic panic by quarantining directly (the fault injector
	// cannot fire exactly once), then re-run the hazard case.
	r.quarantine()
	r.EnginePanics++

	_, _, crash = r.Execute(hazardTC)
	if crash == nil || crash.ID != "CVE-2021-35643" {
		t.Fatalf("hazard must still fire on the rebuilt engine: %v", crash)
	}
	if r.Oracle.Count() != 1 {
		t.Fatalf("oracle must deduplicate across quarantine: %d bugs", r.Oracle.Count())
	}
	if hits := r.Oracle.Crashes()[0].Hits; hits != 2 {
		t.Fatalf("duplicate hazard hit must increment Hits: %d", hits)
	}

	// And ordinary SQL still works on the rebuilt engine.
	out := r.Eng.RunTestCase(sqlparse.MustParseScript(
		"CREATE TABLE clean (a INT); INSERT INTO clean VALUES (1); SELECT * FROM clean;"))
	if out.Crash != nil || out.Errors != 0 {
		t.Fatalf("rebuilt engine unhealthy: crash=%v errors=%d", out.Crash, out.Errors)
	}
}

// TestStatementAccountingOnCrash: a case that dies at statement k must charge
// k statements, not len(tc) — budgets are statement-denominated, so
// over-charging crashed cases would silently shrink campaigns.
func TestStatementAccountingOnCrash(t *testing.T) {
	r := NewRunnerWithConfig(minidb.Config{
		Dialect:   sqlt.DialectPostgres,
		FaultRate: 1, // dies on the first statement's dispatch
		FaultSeed: 1,
	})
	tc := sqlparse.MustParseScript(
		"CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
	r.Execute(tc)
	if r.Stmts >= len(tc) {
		t.Fatalf("crashed case charged %d statements (case has %d)", r.Stmts, len(tc))
	}
	if r.Stmts != 1 {
		t.Fatalf("fault on first statement must charge 1, got %d", r.Stmts)
	}
}
