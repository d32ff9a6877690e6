package minidb

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// buildWideTable returns an engine with a populated table so scans charge
// plenty of watchdog steps.
func buildWideTable(t *testing.T, limits Limits) *Engine {
	t.Helper()
	e := New(Config{Dialect: sqlt.DialectPostgres, Limits: limits})
	e.reset()
	stmts := []string{"CREATE TABLE w (a INT, b INT);"}
	for i := 0; i < 32; i++ {
		stmts = append(stmts, "INSERT INTO w VALUES (1, 2), (3, 4), (5, 6), (7, 8);")
	}
	for _, sql := range stmts {
		if _, err := e.ExecStmt(sqlparse.MustParse(sql)); err != nil {
			t.Fatalf("setup %q: %v", sql, err)
		}
	}
	return e
}

func TestWatchdogTripsOnAdversarialQuery(t *testing.T) {
	limits := DefaultLimits()
	limits.MaxStepsPerStmt = 64 // far below what a 128-row scan charges
	e := buildWideTable(t, limits)

	_, err := e.ExecStmt(sqlparse.MustParse(
		"SELECT a + b FROM w WHERE a + 1 > 0 AND b * 2 > 0;"))
	if err == nil {
		t.Fatal("adversarial query must trip the watchdog")
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("error must identify the watchdog, got: %v", err)
	}
}

func TestWatchdogChargeResetsPerStatement(t *testing.T) {
	limits := DefaultLimits()
	// Generous enough for any single statement below, but smaller than the
	// whole script's total charge: without the per-statement reset the later
	// statements would trip.
	limits.MaxStepsPerStmt = 600
	e := buildWideTable(t, limits)

	for i := 0; i < 5; i++ {
		if _, err := e.ExecStmt(sqlparse.MustParse("SELECT a FROM w WHERE a = 1;")); err != nil {
			t.Fatalf("statement %d tripped a fresh watchdog budget: %v", i, err)
		}
	}
}

func TestWatchdogDisabledWhenZero(t *testing.T) {
	// Tests that build engines with partial Limits literals get
	// MaxStepsPerStmt == 0; that must mean "no watchdog", not "trip on the
	// first step".
	e := buildWideTable(t, Limits{
		MaxRowsPerTable: 128,
		MaxResultRows:   512,
		MaxTriggerDepth: 4,
		MaxRewriteDepth: 8,
		MaxTriggerFires: 64,
		// MaxStepsPerStmt deliberately omitted
	})
	if _, err := e.ExecStmt(sqlparse.MustParse("SELECT a + b FROM w;")); err != nil {
		t.Fatalf("zero step budget must disable the watchdog: %v", err)
	}
}

func TestWatchdogDefaultNeverTripsOnSeeds(t *testing.T) {
	// The default budget must be far above anything a legitimate statement
	// charges, or the fuzzer would drown in spurious watchdog errors.
	e := buildWideTable(t, DefaultLimits())
	if _, err := e.ExecStmt(sqlparse.MustParse(
		"SELECT a + b FROM w WHERE a * 2 + b > 0 ORDER BY a;")); err != nil {
		t.Fatalf("default limits tripped on an ordinary query: %v", err)
	}
}

// TestFaultInjectorDeterministicSchedule: the fault schedule is a pure
// function of (FaultRate, FaultSeed, exec index). Two engines agree, and an
// engine rebuilt before every execution — as containment rebuilds one after
// each contained panic — draws the same faults with no state carried over.
func TestFaultInjectorDeterministicSchedule(t *testing.T) {
	cfg := Config{Dialect: sqlt.DialectPostgres, FaultRate: 0.3, FaultSeed: 42}
	tc := sqlparse.MustParseScript(
		"CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
	run := func(rebuild bool) []int {
		e := New(cfg)
		var panicsAt []int
		for i := 0; i < 50; i++ {
			if rebuild {
				e = New(cfg)
			}
			out := func() (out Outcome) {
				defer func() { recover() }()
				return e.RunTestCaseAt(tc, i)
			}()
			if out.Executed == 0 { // zeroed Outcome: the run panicked
				panicsAt = append(panicsAt, i)
			}
		}
		return panicsAt
	}
	a, b, c := run(false), run(false), run(true)
	if len(a) == 0 {
		t.Fatal("rate 0.3 over 150 statements must inject at least one fault")
	}
	if len(a) == 50 {
		t.Fatal("rate 0.3 faulted every execution: the exec index does not key the schedule")
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
		t.Fatalf("schedules differ:\n%v\n%v\nrebuilt %v", a, b, c)
	}
}

func TestOrganicReportNormalizesAndDeduplicates(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMySQL, FaultRate: 1, FaultSeed: 1})
	tc := sqlparse.MustParseScript("CREATE TABLE t (a INT);")

	capture := func() *BugReport {
		var rep *BugReport
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					buf := make([]byte, 64<<10)
					buf = buf[:runtime.Stack(buf, false)]
					rep = OrganicReport(rec, e.Dialect(), e.TypeWindow(), buf)
				}
			}()
			e.RunTestCase(tc)
		}()
		return rep
	}

	r1, r2 := capture(), capture()
	if r1 == nil || r2 == nil {
		t.Fatal("rate-1 injector must panic every statement")
	}
	if r1.Kind != "PANIC" {
		t.Fatalf("organic kind = %q", r1.Kind)
	}
	if !strings.HasPrefix(r1.ID, "ORGANIC-") {
		t.Fatalf("organic ID = %q", r1.ID)
	}
	if len(r1.Stack) == 0 {
		t.Fatal("organic report must carry a normalized stack")
	}
	for _, f := range r1.Stack {
		// Receivers like (*Engine) survive; argument lists and addresses
		// must not — they vary per run and would break dedup.
		if strings.Contains(f, "0x") || strings.HasSuffix(f, ")") {
			t.Fatalf("frame %q not normalized", f)
		}
		if strings.HasPrefix(f, modulePrefix) {
			t.Fatalf("frame %q keeps the module prefix", f)
		}
	}
	// Same code path twice -> same dedup key.
	if r1.StackKey() != r2.StackKey() {
		t.Fatalf("same panic site produced different keys:\n%v\n%v", r1.Stack, r2.Stack)
	}
}
