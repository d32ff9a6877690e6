package core

import (
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// TestResumeRejectsMismatchedCampaign: resuming under different options
// would silently produce a diverged schedule; CheckIdentity must fail
// instead, and accept the options the campaign ran under.
func TestResumeRejectsMismatchedCampaign(t *testing.T) {
	f := New(Options{Dialect: sqlt.DialectPostgres, Seed: 2})
	o := f.Options()
	st := &checkpoint.State{Dialect: uint8(o.Dialect), Seed: o.Seed, MaxLen: o.MaxLen, DisableHazards: !o.Hazards}
	if err := CheckIdentity(Options{Dialect: sqlt.DialectPostgres, Seed: 2}, st); err != nil {
		t.Fatalf("matching options rejected: %v", err)
	}

	cases := []struct {
		opts Options
		want string
	}{
		{Options{Dialect: sqlt.DialectMySQL, Seed: 2}, "dialect"},
		{Options{Dialect: sqlt.DialectPostgres, Seed: 3}, "seed"},
		{Options{Dialect: sqlt.DialectPostgres, Seed: 2, MaxLen: 8}, "len"},
		{Options{Dialect: sqlt.DialectPostgres, Seed: 2, DisableSequenceAlgorithms: true}, "DisableSequenceAlgorithms"},
		{Options{Dialect: sqlt.DialectPostgres, Seed: 2, Hazards: true}, "Hazards"},
		{Options{Dialect: sqlt.DialectPostgres, Seed: 2, SplitLongSeeds: true}, "SplitLongSeeds"},
		{Options{Dialect: sqlt.DialectPostgres, Seed: 2, FaultRate: 0.01}, "FaultRate"},
	}
	for i, c := range cases {
		if err := CheckIdentity(c.opts, st); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("case %d: mismatched resume must fail naming %s, got %v", i, c.want, err)
		}
	}

	// The options are identity in both directions: a campaign that ran
	// with them rejects options without them.
	st.DisableSequenceAlgorithms, st.SplitLongSeeds, st.FaultRate = true, true, 0.01
	if err := CheckIdentity(Options{Dialect: sqlt.DialectPostgres, Seed: 2}, st); err == nil {
		t.Fatal("a LEGO- campaign resumed as LEGO must fail")
	}
	if err := CheckIdentity(Options{Dialect: sqlt.DialectPostgres, Seed: 2,
		DisableSequenceAlgorithms: true, SplitLongSeeds: true, FaultRate: 0.01}, st); err != nil {
		t.Fatalf("matching options rejected: %v", err)
	}
}

// TestFaultInjectedCampaignSurvives is the acceptance test for containment:
// a full-budget campaign against an engine that keeps panicking organically
// must complete (no fuzzer death), count its contained panics, and surface
// them as deduplicated PANIC bugs with reproducers.
func TestFaultInjectedCampaignSurvives(t *testing.T) {
	f := New(Options{Dialect: sqlt.DialectMySQL, Seed: 9, Hazards: true, FaultRate: 0.001})
	runner := harness.Run(f, 30000, 30000) // would panic the test process if containment leaked

	if runner.Stmts < 30000 {
		t.Fatalf("campaign died early: %d statements", runner.Stmts)
	}
	if runner.EnginePanics == 0 {
		t.Fatal("rate-0.001 over 30k statements must inject faults")
	}

	organic := 0
	hits := 0
	for _, c := range runner.Oracle.Crashes() {
		if !strings.HasPrefix(c.Report.ID, "ORGANIC-") {
			continue
		}
		organic++
		hits += c.Hits
		if c.Report.Kind != "PANIC" {
			t.Fatalf("organic bug kind = %q", c.Report.Kind)
		}
		if len(c.Report.Stack) == 0 {
			t.Fatal("organic bug lacks a stack")
		}
		if c.Reproducer.SQL() == "" {
			t.Fatal("organic bug lacks a reproducer")
		}
	}
	// Two injection sites -> at most two unique organic bugs, however many
	// times they fired: that is the dedup working.
	if organic < 1 || organic > 2 {
		t.Fatalf("organic unique bugs = %d (want 1..2): %v", organic, runner.Oracle.IDs())
	}
	if hits != runner.EnginePanics {
		t.Fatalf("organic hits %d != contained panics %d", hits, runner.EnginePanics)
	}
	t.Logf("contained %d panics into %d unique organic bugs", runner.EnginePanics, organic)
}

// TestMaxLenClampPreventsPanic: MaxLen 1 used to panic randomSequences
// (Intn(0)); Options.fill clamps it to the smallest affinity-carrying
// length.
func TestMaxLenClampPreventsPanic(t *testing.T) {
	o := Options{MaxLen: 1}
	o.fill()
	if o.MaxLen != 2 {
		t.Fatalf("MaxLen clamped to %d, want 2", o.MaxLen)
	}
	// End to end: the RandomSequences ablation exercises the Intn that
	// panicked before the clamp.
	f := New(Options{Dialect: sqlt.DialectPostgres, Seed: 1, MaxLen: 1, RandomSequences: true})
	harness.Run(f, 3000, 3000)
	if f.opts.MaxLen != 2 {
		t.Fatalf("fuzzer MaxLen = %d", f.opts.MaxLen)
	}
}
