package baselines

import (
	"testing"

	"github.com/seqfuzz/lego/internal/affinity"
	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/sqlt"
)

func TestSquirrelSmoke(t *testing.T) {
	s := NewSquirrel(sqlt.DialectMariaDB, 1, false)
	r := harness.Run(s, 5000, 5000)
	if r.Stmts < 5000 {
		t.Fatalf("stmts = %d", r.Stmts)
	}
	if r.Branches() == 0 {
		t.Fatal("no coverage")
	}
	if s.Pool().Len() == 0 {
		t.Fatal("pool must retain seeds")
	}
}

// TestSquirrelPreservesSequences is the paper's central observation about
// mutation-based baselines: every retained seed's SQL Type Sequence already
// existed in the initial corpus, because intra-statement mutation cannot
// change it.
func TestSquirrelPreservesSequences(t *testing.T) {
	s := NewSquirrel(sqlt.DialectMySQL, 2, false)
	harness.Run(s, 8000, 8000)

	initial := map[string]bool{}
	for _, tc := range harness.InitialSeeds(sqlt.DialectMySQL) {
		initial[tc.Types().String()] = true
	}
	for _, seed := range s.Pool().All() {
		if !initial[seed.Types().String()] {
			t.Fatalf("SQUIRREL invented a new sequence: %v", seed.Types())
		}
	}
}

func TestSQLancerSmoke(t *testing.T) {
	s := NewSQLancer(sqlt.DialectPostgres, 1, false)
	r := harness.Run(s, 5000, 5000)
	if r.Stmts < 5000 || r.Branches() == 0 {
		t.Fatalf("stmts=%d branches=%d", r.Stmts, r.Branches())
	}
}

// TestSQLancerGeneratesValidSQL verifies the defining property of the
// rule-based baseline: its statements are semantically valid, so campaigns
// have (near-)zero error rates and never trip cErr-gated hazards.
func TestSQLancerGeneratesValidSQL(t *testing.T) {
	s := NewSQLancer(sqlt.DialectMariaDB, 3, false)
	errors, stmts := 0, 0
	for i := 0; i < 100; i++ {
		tc := s.generate()
		out := s.runner.Eng.RunTestCase(tc)
		errors += out.Errors
		stmts += out.Executed
	}
	if errors != 0 {
		t.Fatalf("%d/%d SQLancer statements errored — rule-based generation must be valid", errors, stmts)
	}
}

func TestSQLancerEmbedsManyAffinities(t *testing.T) {
	// Table II's inversion: SQLancer's corpora contain more distinct
	// affinities than SQUIRREL's (which are frozen to the seed corpus).
	lancer := NewSQLancer(sqlt.DialectMySQL, 4, false)
	harness.Run(lancer, 20000, 20000)
	squirrel := NewSquirrel(sqlt.DialectMySQL, 4, false)
	harness.Run(squirrel, 20000, 20000)
	if lancer.Runner().GenAff.Count() <= squirrel.Runner().GenAff.Count() {
		t.Fatalf("SQLancer affinities (%d) must exceed SQUIRREL's (%d)",
			lancer.Runner().GenAff.Count(), squirrel.Runner().GenAff.Count())
	}
}

func TestSQLsmithSmoke(t *testing.T) {
	s := NewSQLsmith(sqlt.DialectPostgres, 1, false)
	r := harness.Run(s, 5000, 5000)
	if r.Stmts < 5000 || r.Branches() == 0 {
		t.Fatalf("stmts=%d branches=%d", r.Stmts, r.Branches())
	}
}

// TestSQLsmithSequenceIsConstant: SQLsmith generates one statement per test
// case over a fixed schema, so its SQL Type Sequence never varies — the
// reason Table II excludes it.
func TestSQLsmithSequenceIsConstant(t *testing.T) {
	s := NewSQLsmith(sqlt.DialectPostgres, 5, false)
	aff := affinity.NewMap()
	base := -1
	for i := 0; i < 50; i++ {
		s.Step(func() bool { return false })
		aff = s.runner.GenAff
		if base == -1 {
			base = aff.Count()
		}
	}
	if aff.Count() != base {
		t.Fatalf("SQLsmith affinity count grew from %d to %d", base, aff.Count())
	}
}

func TestBaselinesDeterministic(t *testing.T) {
	a := harness.Run(NewSQLancer(sqlt.DialectComdb2, 9, true), 4000, 4000)
	b := harness.Run(NewSQLancer(sqlt.DialectComdb2, 9, true), 4000, 4000)
	if a.Branches() != b.Branches() || a.Oracle.Count() != b.Oracle.Count() {
		t.Fatal("SQLancer must be deterministic per seed")
	}
	c := harness.Run(NewSquirrel(sqlt.DialectComdb2, 9, true), 4000, 4000)
	d := harness.Run(NewSquirrel(sqlt.DialectComdb2, 9, true), 4000, 4000)
	if c.Branches() != d.Branches() {
		t.Fatal("SQUIRREL must be deterministic per seed")
	}
}
