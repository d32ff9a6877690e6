package experiment

import (
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/sqlt"
)

// tinyBudgets keep unit tests fast; shape assertions use generous margins.
func tinyBudgets() Budgets { return Budgets{DayStmts: 12000, ContinuousStmts: 30000, Seed: 1} }

func TestRunCampaignAllFuzzers(t *testing.T) {
	for _, f := range []FuzzerName{FuzzerLEGO, FuzzerLEGOMinus, FuzzerSquirrel,
		FuzzerSQLancer, FuzzerSQLsmith, FuzzerLEGORandomSeq, FuzzerLEGONoCovGate} {
		d := sqlt.DialectPostgres
		cr := RunCampaign(f, d, 3000, 1, 0)
		if cr.Fuzzer != f || cr.Dialect != d {
			t.Fatalf("%s: identity fields wrong", f)
		}
		if cr.Branches == 0 {
			t.Fatalf("%s: zero coverage", f)
		}
		if cr.Execs == 0 {
			t.Fatalf("%s: zero executions", f)
		}
	}
}

// TestCampaignCurve: the Figure 9 curve is sampled as the campaign runs,
// so it only climbs, and its last point is the campaign's final state.
func TestCampaignCurve(t *testing.T) {
	for _, f := range figure9Fuzzers {
		cr := RunCampaign(f, sqlt.DialectPostgres, 20000, 1, 0)
		if len(cr.Curve) < 2 {
			t.Fatalf("%s: %d curve points over 20000 statements", f, len(cr.Curve))
		}
		for i := 1; i < len(cr.Curve); i++ {
			p, q := cr.Curve[i-1], cr.Curve[i]
			if q.Execs <= p.Execs || q.Branches < p.Branches {
				t.Fatalf("%s: curve falls from %+v to %+v", f, p, q)
			}
		}
		if last := cr.Curve[len(cr.Curve)-1]; last != (CurvePoint{cr.Execs, cr.Branches}) {
			t.Fatalf("%s: last curve point %+v, campaign ended at %d execs and %d branches", f, last, cr.Execs, cr.Branches)
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	a := RunCampaign(FuzzerLEGO, sqlt.DialectMySQL, 5000, 7, 0)
	b := RunCampaign(FuzzerLEGO, sqlt.DialectMySQL, 5000, 7, 0)
	if a.Branches != b.Branches || a.Bugs() != b.Bugs() || a.GenAffinities != b.GenAffinities {
		t.Fatal("campaigns must be deterministic per seed")
	}
}

func TestCampaignSeedsDiffer(t *testing.T) {
	if campaignSeed(1, FuzzerLEGO, sqlt.DialectMySQL) == campaignSeed(1, FuzzerSquirrel, sqlt.DialectMySQL) {
		t.Fatal("fuzzers must not share RNG streams")
	}
	if campaignSeed(1, FuzzerLEGO, sqlt.DialectMySQL) == campaignSeed(1, FuzzerLEGO, sqlt.DialectMariaDB) {
		t.Fatal("dialects must not share RNG streams")
	}
}

// TestFigure9Shape asserts the paper's coverage ordering: LEGO beats every
// baseline on every dialect. It needs the quick budget — below ~26k
// statements SQLsmith still leads on PostgreSQL (the curves cross early in
// the paper's Figure 9 too).
func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the quick budget")
	}
	res := Figure9(QuickBudgets())
	for _, d := range sqlt.Dialects() {
		lego := res.Branches[d][FuzzerLEGO]
		for _, base := range []FuzzerName{FuzzerSquirrel, FuzzerSQLancer, FuzzerSQLsmith} {
			bv := res.Branches[d][base]
			if bv < 0 {
				continue
			}
			if lego <= bv {
				t.Errorf("%s: LEGO (%d) must beat %s (%d)", d, lego, base, bv)
			}
		}
	}
	if res.Branches[sqlt.DialectMySQL][FuzzerSQLsmith] != -1 {
		t.Error("SQLsmith must be excluded outside PostgreSQL")
	}
	out := res.Format()
	if !strings.Contains(out, "LEGO vs") {
		t.Error("Format must include the improvement ratios")
	}
}

// TestTable2Shape asserts the affinity-abundance ordering: LEGO >> SQLancer
// > SQUIRREL in total (the paper's 3707 / 770 / 119).
func TestTable2Shape(t *testing.T) {
	res := Table2(tinyBudgets())
	tot := res.Totals()
	if !(tot[FuzzerLEGO] > tot[FuzzerSQLancer] && tot[FuzzerSQLancer] > tot[FuzzerSquirrel]) {
		t.Fatalf("affinity ordering broken: LEGO=%d SQLancer=%d SQUIRREL=%d",
			tot[FuzzerLEGO], tot[FuzzerSQLancer], tot[FuzzerSquirrel])
	}
	if !strings.Contains(res.Format(), "Table II") {
		t.Error("format header")
	}
}

// TestTable3Shape asserts the bug-count ordering: generation-based fuzzers
// find nothing, SQUIRREL finds a few (MySQL/MariaDB only), LEGO finds the
// most everywhere.
func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the quick budget")
	}
	res := Table3(QuickBudgets())
	tot := res.Totals()
	if tot[FuzzerSQLancer] != 0 {
		t.Errorf("SQLancer found %d bugs, want 0 (valid-only generation)", tot[FuzzerSQLancer])
	}
	if tot[FuzzerSQLsmith] != 0 {
		t.Errorf("SQLsmith found %d bugs, want 0", tot[FuzzerSQLsmith])
	}
	if tot[FuzzerLEGO] <= tot[FuzzerSquirrel] {
		t.Errorf("LEGO (%d) must beat SQUIRREL (%d)", tot[FuzzerLEGO], tot[FuzzerSquirrel])
	}
	if res.Bugs[sqlt.DialectPostgres][FuzzerSquirrel] != 0 ||
		res.Bugs[sqlt.DialectComdb2][FuzzerSquirrel] != 0 {
		t.Error("SQUIRREL's bugs are confined to MySQL/MariaDB, as in the paper")
	}
}

// TestTable4Shape asserts the ablation direction: LEGO strictly beats LEGO-
// on affinities and branches for every dialect, and Comdb2 (fewest types)
// gains least.
func TestTable4Shape(t *testing.T) {
	res := Table4(tinyBudgets())
	minImprove, maxImprove := 1<<30, -1
	var minDialect sqlt.Dialect
	for _, d := range sqlt.Dialects() {
		if res.AffLego[d] <= res.AffMinus[d] {
			t.Errorf("%s: affinity increment missing (%d vs %d)", d, res.AffLego[d], res.AffMinus[d])
		}
		if res.BrLego[d] <= res.BrMinus[d] {
			t.Errorf("%s: branch improvement missing (%d vs %d)", d, res.BrLego[d], res.BrMinus[d])
		}
		imp := (res.BrLego[d] - res.BrMinus[d]) * 100 / res.BrMinus[d]
		if imp < minImprove {
			minImprove, minDialect = imp, d
		}
		if imp > maxImprove {
			maxImprove = imp
		}
	}
	if minDialect != sqlt.DialectComdb2 {
		t.Logf("note: smallest improvement on %s, paper has Comdb2 (budget-dependent)", minDialect)
	}
	if res.Types[sqlt.DialectComdb2] != 24 {
		t.Error("Comdb2 type count must be 24")
	}
}

func TestTable1CountsAgainstSeededCorpus(t *testing.T) {
	res := Table1(tinyBudgets())
	if res.Total == 0 {
		t.Fatal("continuous fuzzing must find bugs")
	}
	for _, d := range sqlt.Dialects() {
		if res.PerDialect[d] > res.Seeded[d] {
			t.Errorf("%s: found %d > seeded %d", d, res.PerDialect[d], res.Seeded[d])
		}
	}
	if res.Seeded[sqlt.DialectPostgres] != 6 || res.Seeded[sqlt.DialectMySQL] != 21 ||
		res.Seeded[sqlt.DialectMariaDB] != 42 || res.Seeded[sqlt.DialectComdb2] != 33 {
		t.Error("seeded corpus must match Table I's 6/21/42/33")
	}
	if !strings.Contains(res.Format(), "Table I") {
		t.Error("format header")
	}
}

func TestLengthStudyRuns(t *testing.T) {
	b := tinyBudgets()
	b.DayStmts = 6000
	res := LengthStudy(b)
	if len(res.Lens) != 3 {
		t.Fatal("three lengths")
	}
	for _, l := range res.Lens {
		if res.Bugs[l] == 0 {
			t.Errorf("LEN=%d found no bugs at all", l)
		}
	}
	if !strings.Contains(res.Format(), "LEN=5") {
		t.Error("format rows")
	}
}

func TestFormattingHelpers(t *testing.T) {
	tbl := formatTable([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(tbl, "---") {
		t.Error("separator missing")
	}
	if pct(120, 100) != "+20%" {
		t.Errorf("pct = %q", pct(120, 100))
	}
	if pct(80, 100) != "-20%" {
		t.Errorf("pct = %q", pct(80, 100))
	}
	if pct(1, 0) != "n/a" {
		t.Error("pct zero base")
	}
}
