package instantiate

import (
	"math/rand"

	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Instantiator assembles executable test cases from SQL Type Sequences: for
// each sequence entry it randomly selects a type-matched structure from the
// library (or generates a fresh one when the library has none), concatenates
// the statements, and runs the dependency fixer.
type Instantiator struct {
	Rng   *rand.Rand
	Lib   *Library
	Gen   *Generator
	Fixer *Fixer
}

// New returns an instantiator bound to a library and dialect.
func New(rng *rand.Rand, lib *Library, dialect sqlt.Dialect) *Instantiator {
	return &Instantiator{
		Rng:   rng,
		Lib:   lib,
		Gen:   NewGenerator(rng, dialect),
		Fixer: NewFixer(rng),
	}
}

// Statement produces one statement of the requested type: a library
// structure when available (biased toward reuse, as the paper's library
// does), else a generated one. A library structure is returned itself, not
// a copy: it is shared with the library and frozen, so only a copy may be
// changed, and the fixer copies just the nodes it repairs (Fixer). fresh
// reports a generated statement, which is the caller's own.
func (in *Instantiator) Statement(t sqlt.Type) (s sqlast.Statement, fresh bool) {
	if s := in.Lib.pick(in.Rng, t); s != nil && in.Rng.Intn(4) != 0 {
		return s, false
	}
	return in.Gen.Gen(t), true
}

// TestCase instantiates a SQL Type Sequence into an executable test case.
// Because structure selection is random, calling it repeatedly on the same
// sequence yields diverse test cases (the paper instantiates each sequence
// multiple times). The case shares the library structures it uses, and
// the fixer copies only the nodes of those it repairs.
func (in *Instantiator) TestCase(seq sqlt.Sequence) sqlast.TestCase {
	tc := make(sqlast.TestCase, 0, len(seq))
	var buf [8]int
	generated := buf[:0]
	for i, t := range seq {
		s, fresh := in.Statement(t)
		if fresh {
			generated = append(generated, i)
		}
		tc = append(tc, s)
	}
	in.Fixer.Fix(tc, generated...)
	return tc
}
