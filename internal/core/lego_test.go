package core

import (
	"testing"

	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/sqlt"
)

func TestLegoSmoke(t *testing.T) {
	f := New(Options{Dialect: sqlt.DialectMySQL, Seed: 1, Hazards: true})
	r := harness.Run(f, 12000, 12000)
	if r.Stmts < 12000 {
		t.Fatalf("stmts = %d", r.Stmts)
	}
	if r.Branches() == 0 {
		t.Fatal("no branches covered")
	}
	if f.Affinities() == 0 {
		t.Fatal("no affinities discovered")
	}
	if f.Pool().Len() < 7 {
		t.Fatalf("pool did not grow: %d", f.Pool().Len())
	}
	t.Logf("execs=%d branches=%d affinities=%d pool=%d bugs=%d lib=%d",
		r.Execs, r.Branches(), f.Affinities(), f.Pool().Len(), r.Oracle.Count(), f.Library().Size())
}

func TestLegoMinusDisablesSequenceWork(t *testing.T) {
	minus := New(Options{Dialect: sqlt.DialectMySQL, Seed: 1, DisableSequenceAlgorithms: true})
	r := harness.Run(minus, 500, 500)
	if minus.Affinities() != 0 {
		t.Fatalf("LEGO- must not analyze affinities, got %d", minus.Affinities())
	}
	if r.Branches() == 0 {
		t.Fatal("LEGO- should still cover branches")
	}
}

func TestLegoDeterministic(t *testing.T) {
	a := harness.Run(New(Options{Dialect: sqlt.DialectComdb2, Seed: 42, Hazards: true}), 800, 800)
	b := harness.Run(New(Options{Dialect: sqlt.DialectComdb2, Seed: 42, Hazards: true}), 800, 800)
	if a.Branches() != b.Branches() || a.Oracle.Count() != b.Oracle.Count() {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)",
			a.Branches(), a.Oracle.Count(), b.Branches(), b.Oracle.Count())
	}
}
