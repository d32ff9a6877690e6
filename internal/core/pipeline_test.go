package core

import (
	"testing"

	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// TestAffinityPipeline verifies the Figure 4 data flow end to end: mutation
// discovers affinities, synthesis consumes them, instantiations land in the
// pool and the library.
func TestAffinityPipeline(t *testing.T) {
	f := New(Options{Dialect: sqlt.DialectPostgres, Seed: 3})
	// Initial seeds alone already teach basic affinities (Algorithm 2 runs
	// on every ingested case).
	if !f.AffinityMap().Has(sqlt.CreateTable, sqlt.Insert) {
		t.Fatal("seed corpus must teach CREATE TABLE -> INSERT")
	}
	if !f.AffinityMap().Has(sqlt.Insert, sqlt.Select) {
		t.Fatal("seed corpus must teach INSERT -> SELECT")
	}
	before := f.Affinities()
	harness.Run(f, 30000, 30000)
	if f.Affinities() <= before {
		t.Fatal("fuzzing must discover new affinities")
	}
	if f.Library().TypesCovered() < 10 {
		t.Fatalf("library covers only %d types", f.Library().TypesCovered())
	}
	// pool sequences must include ones absent from the initial corpus
	grown := false
	for _, seed := range f.Pool().All() {
		if s := seed.Types(); len(s) > 0 && s[0] != sqlt.CreateTable && s[0] != sqlt.SetVar {
			grown = true
			break
		}
	}
	if !grown {
		t.Fatal("pool never left the initial sequence shapes")
	}
}

// TestLegoFindsSequenceBugsThatMinusCannot: the headline claim. The
// Fig. 3-style bug (CREATE TABLE -> INSERT -> CREATE TRIGGER -> SELECT with
// a trigger present) is structurally unreachable for LEGO-, whose mutants
// keep the seed corpus's type sequences.
func TestLegoFindsSequenceBugsThatMinusCannot(t *testing.T) {
	budget := 150000
	minus := New(Options{Dialect: sqlt.DialectMySQL, Seed: 5, Hazards: true,
		DisableSequenceAlgorithms: true})
	rMinus := harness.Run(minus, budget, budget)
	for _, c := range rMinus.Oracle.Crashes() {
		if c.Report.ID == "CVE-2021-35643" {
			t.Fatal("LEGO- found the trigger-sequence bug: it should be unreachable")
		}
	}

	found := false
	for seed := int64(5); seed < 9 && !found; seed++ {
		full := New(Options{Dialect: sqlt.DialectMySQL, Seed: seed, Hazards: true})
		r := harness.Run(full, budget, budget)
		for _, c := range r.Oracle.Crashes() {
			if c.Report.ID == "CVE-2021-35643" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("LEGO failed to find CVE-2021-35643 across 4 seeds")
	}
}

func TestRandomSequenceAblationStillRuns(t *testing.T) {
	f := New(Options{Dialect: sqlt.DialectComdb2, Seed: 2, RandomSequences: true})
	r := harness.Run(f, 10000, 10000)
	if r.Branches() == 0 {
		t.Fatal("random-sequence ablation must still cover branches")
	}
}

func TestNoCoverageGateGathersMoreAffinities(t *testing.T) {
	// The budget must be large enough for the ungated run's extra analysis
	// to dominate schedule noise: below ~40k statements the comparison
	// flips depending on the RNG stream, at 60k it holds for every seed.
	gated := New(Options{Dialect: sqlt.DialectMySQL, Seed: 6})
	harness.Run(gated, 60000, 60000)
	open := New(Options{Dialect: sqlt.DialectMySQL, Seed: 6, NoCoverageGate: true})
	harness.Run(open, 60000, 60000)
	if open.Affinities() < gated.Affinities() {
		t.Fatalf("ungated analysis (%d) must find at least as many affinities as gated (%d)",
			open.Affinities(), gated.Affinities())
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	o.Fill()
	if o.MaxLen != 5 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	if instPerSeq != 2 || maxSeqPerAffinity != 48 || conventionalPerSeed != 8 {
		t.Fatalf("iteration work shares are %d instantiations per sequence, %d sequences per affinity, %d conventional mutants per seed; want 2, 48, 8",
			instPerSeq, maxSeqPerAffinity, conventionalPerSeed)
	}
}

func TestStepHonoursBudgetCallback(t *testing.T) {
	f := New(Options{Dialect: sqlt.DialectPostgres, Seed: 1})
	execsBefore := f.Runner().Execs
	f.Step(func() bool { return true }) // immediately exhausted
	// At most the pool selection happened; no executions.
	if f.Runner().Execs != execsBefore {
		t.Fatalf("exhausted step still executed %d cases", f.Runner().Execs-execsBefore)
	}
}

func TestAccessors(t *testing.T) {
	f := New(Options{Dialect: sqlt.DialectMariaDB, Seed: 1})
	if f.Runner() == nil || f.Pool() == nil || f.Library() == nil || f.AffinityMap() == nil {
		t.Fatal("accessors")
	}
}

// TestSplitLongSeeds covers the paper's §VI future-work extension: long
// retained seeds are split into overlapping short halves that enter the
// pool as independent seeds.
func TestSplitLongSeeds(t *testing.T) {
	f := New(Options{Dialect: sqlt.DialectMariaDB, Seed: 4, SplitLongSeeds: true, MaxLen: 3})
	harness.Run(f, 30000, 30000)
	// With MaxLen 3, any retained seed longer than 6 statements must have
	// produced shorter companions; verify the pool contains seeds that are
	// strict prefixes/suffixes in type-sequence terms.
	longSeeds, shortSeeds := 0, 0
	for _, s := range f.Pool().All() {
		if len(s.TC) > 6 {
			longSeeds++
		} else {
			shortSeeds++
		}
	}
	if shortSeeds == 0 {
		t.Fatal("splitting produced no short seeds")
	}
	t.Logf("pool: %d long, %d short", longSeeds, shortSeeds)

	// splitSeed itself: halves overlap and re-validate
	seed := f.Pool().All()[0].TC
	for len(seed) <= 7 {
		seed = append(seed, seed...)
	}
	halves := f.splitSeed(seed)
	if len(halves) != 2 {
		t.Fatalf("halves = %d", len(halves))
	}
	if len(halves[0]) >= len(seed) || len(halves[1]) >= len(seed) {
		t.Fatal("halves must be shorter than the original")
	}
	if len(halves[0])+len(halves[1]) < len(seed) {
		t.Fatal("halves must cover the original (with overlap)")
	}
}
