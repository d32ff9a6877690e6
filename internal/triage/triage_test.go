package triage_test

import (
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/oracle"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
	"github.com/seqfuzz/lego/internal/triage"
)

// hazardCfg arms the MariaDB seeded bug corpus with no fault injection, so
// every crash is a deterministic function of its test case.
func hazardCfg() minidb.Config {
	return minidb.Config{Dialect: sqlt.DialectMariaDB, EnableHazards: true}
}

// recordCrash executes tc on a fresh hazard-armed runner and returns the
// recorded crash, failing the test if nothing fired.
func recordCrash(t *testing.T, cfg minidb.Config, sql string) (*oracle.Oracle, *oracle.Crash) {
	t.Helper()
	r := harness.NewRunnerWithConfig(cfg)
	tc := sqlparse.MustParseScript(sql)
	_, _, crash := r.Execute(tc)
	if crash == nil {
		t.Fatalf("test case did not crash:\n%s", sql)
	}
	crashes := r.Oracle.Crashes()
	return r.Oracle, crashes[len(crashes)-1]
}

// noisyMDEV26419 trips MDEV-26419 (BEGIN, SELECT, ROLLBACK, SELECT with no
// state condition) behind four statements of leading noise.
const noisyMDEV26419 = `CREATE TABLE noise (a INT);
INSERT INTO noise VALUES (1);
UPDATE noise SET a = 2;
SELECT * FROM noise;
BEGIN;
SELECT a FROM noise;
ROLLBACK;
SELECT a FROM noise;`

// TestStableClassificationAndMinimization: a deterministic seeded hazard
// must verify STABLE on every replay and minimize down to its 4-statement
// pattern, shedding all leading noise.
func TestStableClassificationAndMinimization(t *testing.T) {
	o, c := recordCrash(t, hazardCfg(), noisyMDEV26419)
	if c.Report.ID != "MDEV-26419" {
		t.Fatalf("unexpected bug %s", c.Report.ID)
	}

	sum := triage.New(hazardCfg(), triage.Config{Replays: 3}).Run(o)
	if sum.Triaged != 1 || sum.Stable != 1 || sum.Shrunk != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if c.Status != string(triage.Stable) || c.Replays != 3 {
		t.Fatalf("status = %s, replays = %d", c.Status, c.Replays)
	}
	if c.OriginalLen != 8 {
		t.Fatalf("original len = %d", c.OriginalLen)
	}
	if c.MinimizedLen != 4 || len(c.Reproducer) != 4 {
		t.Fatalf("minimized to %d statements, want the 4-statement pattern:\n%s",
			c.MinimizedLen, c.Reproducer.SQL())
	}
	want := sqlt.Sequence{sqlt.Begin, sqlt.Select, sqlt.Rollback, sqlt.Select}
	if got := c.Reproducer.Types(); got.String() != want.String() {
		t.Fatalf("minimized sequence = %s, want %s", got, want)
	}
}

// TestDdminNeverReturnsNonReproducing: after triage, every minimized
// reproducer must still crash a fresh engine with the same stack key — the
// acceptance rule guarantees it, and this test re-checks it from outside the
// triager, over all crashes of a real campaign.
func TestDdminNeverReturnsNonReproducing(t *testing.T) {
	f := core.New(core.Options{Dialect: sqlt.DialectMariaDB, Seed: 5, Hazards: true})
	runner := harness.Run(f, 30000, 30000)
	if runner.Oracle.Count() == 0 {
		t.Fatal("campaign found no bugs to triage")
	}

	triage.New(runner.Config(), triage.Config{Replays: 3}).Run(runner.Oracle)

	for _, c := range runner.Oracle.Crashes() {
		if c.Status != string(triage.Stable) {
			t.Fatalf("%s: hazard-only crashes must be STABLE, got %s", c.Report.ID, c.Status)
		}
		if c.MinimizedLen > c.OriginalLen || len(c.Reproducer) != c.MinimizedLen {
			t.Fatalf("%s: lengths inconsistent: min %d, orig %d, repro %d",
				c.Report.ID, c.MinimizedLen, c.OriginalLen, len(c.Reproducer))
		}
		fresh := harness.NewRunnerWithConfig(runner.Config())
		_, _, crash := fresh.Execute(c.Reproducer)
		if crash == nil || crash.StackKey() != c.Report.StackKey() {
			t.Fatalf("%s: minimized reproducer does not reproduce on a fresh engine:\n%s",
				c.Report.ID, c.Reproducer.SQL())
		}
	}
}

// TestTriageDeterminism: triage is a pure function of (engine config,
// crashes, triage config) — two identical campaigns triaged independently
// must agree on every status, replay tally, and minimized reproducer.
func TestTriageDeterminism(t *testing.T) {
	run := func() []*oracle.Crash {
		opts := core.Options{Dialect: sqlt.DialectMariaDB, Seed: 7, Hazards: true, FaultRate: 0.002}
		f := core.New(opts)
		runner := harness.Run(f, 25000, 25000)
		triage.New(runner.Config(), triage.Config{Replays: 4, Budget: 128}).Run(runner.Oracle)
		return runner.Oracle.Crashes()
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("crash counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Report.StackKey() != b[i].Report.StackKey() ||
			a[i].Status != b[i].Status ||
			a[i].Replays != b[i].Replays ||
			a[i].OriginalLen != b[i].OriginalLen ||
			a[i].MinimizedLen != b[i].MinimizedLen ||
			a[i].Reproducer.SQL() != b[i].Reproducer.SQL() {
			t.Fatalf("crash %d diverged:\nA: %s %s %d/%d %d->%d\nB: %s %s %d/%d %d->%d",
				i,
				a[i].Report.ID, a[i].Status, a[i].Replays, 4, a[i].OriginalLen, a[i].MinimizedLen,
				b[i].Report.ID, b[i].Status, b[i].Replays, 4, b[i].OriginalLen, b[i].MinimizedLen)
		}
	}
}

// TestFlakyClassification: an organic injected-fault crash replays against a
// fresh fault schedule, so only some replays reproduce its stack — the
// definition of FLAKY. The fault stream is a pure function of (rate, seed),
// so the classification itself is deterministic.
func TestFlakyClassification(t *testing.T) {
	cfg := minidb.Config{Dialect: sqlt.DialectMariaDB, FaultRate: 0.5, FaultSeed: 3}

	// Drive the runner until a fault fires organically.
	r := harness.NewRunnerWithConfig(cfg)
	tc := sqlparse.MustParseScript("SELECT 1;\nSELECT 2;\nSELECT 3;")
	for i := 0; i < 50 && r.Oracle.Count() == 0; i++ {
		r.Execute(tc)
	}
	crashes := r.Oracle.Crashes()
	if len(crashes) == 0 {
		t.Fatal("rate-0.5 injection produced no contained panic in 50 executions")
	}

	triage.New(cfg, triage.Config{Replays: 8}).Run(r.Oracle)

	flaky := 0
	for _, c := range crashes {
		if !strings.HasPrefix(c.Report.ID, "ORGANIC-") {
			continue
		}
		if c.Status == string(triage.Flaky) {
			flaky++
			if c.Replays == 0 || c.Replays == 8 {
				t.Fatalf("FLAKY with replay tally %d/8", c.Replays)
			}
		}
		// Whatever the class, the invariants hold.
		if c.MinimizedLen > c.OriginalLen {
			t.Fatalf("%s: minimized %d > original %d", c.Report.ID, c.MinimizedLen, c.OriginalLen)
		}
	}
	if flaky == 0 {
		for _, c := range crashes {
			t.Logf("%s: %s %d/8", c.Report.ID, c.Status, c.Replays)
		}
		t.Fatal("fault-injected crashes produced no FLAKY classification")
	}
}

// TestLostClassification: a stack key no replay can reproduce is LOST, and
// its reproducer is left untouched (it is the only evidence there is).
func TestLostClassification(t *testing.T) {
	o := oracle.New()
	tc := sqlparse.MustParseScript("SELECT 1;\nSELECT 2;")
	o.Record(&minidb.BugReport{
		ID: "GHOST", Dialect: sqlt.DialectMariaDB, Component: "Engine",
		Kind: "SEGV", Stack: []string{"engine::path_removed_last_tuesday"},
	}, tc, 1)

	sum := triage.New(hazardCfg(), triage.Config{Replays: 3}).Run(o)
	if sum.Lost != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	c := o.Crashes()[0]
	if c.Status != string(triage.Lost) || c.Replays != 0 {
		t.Fatalf("status = %s, replays = %d", c.Status, c.Replays)
	}
	if c.MinimizedLen != 2 || len(c.Reproducer) != 2 {
		t.Fatal("LOST crashes must keep their original reproducer")
	}
}

// TestBudgetBoundsMinimization: a one-replay budget cannot finish ddmin, but
// triage must still terminate and return a reproducing (if longer) sequence.
func TestBudgetBoundsMinimization(t *testing.T) {
	o, c := recordCrash(t, hazardCfg(), noisyMDEV26419)

	tr := triage.New(hazardCfg(), triage.Config{Replays: 2, Budget: 1})
	tr.Run(o)
	if c.Status != string(triage.Stable) {
		t.Fatalf("status = %s", c.Status)
	}
	if c.MinimizedLen > c.OriginalLen {
		t.Fatalf("budgeted minimization grew the reproducer: %d -> %d", c.OriginalLen, c.MinimizedLen)
	}
	// The (at most one) accepted candidate still reproduces.
	fresh := harness.NewRunnerWithConfig(hazardCfg())
	_, _, crash := fresh.Execute(c.Reproducer)
	if crash == nil || crash.StackKey() != c.Report.StackKey() {
		t.Fatal("budget-cut minimization returned a non-reproducing sequence")
	}
	// Steps: 2 verification replays + at most 1 ddmin candidate.
	if tr.Steps() > 3 {
		t.Fatalf("budget 1 spent %d replays", tr.Steps())
	}
}
