package mutate

import (
	"math/rand"
	"testing"

	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/instantiate"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// TestMutantsNeverAliasSeedOrLibrary: the mutation operators and the
// instantiator clone only the statements they keep, so it is easy to hand
// out a seed's or the library's statement by mistake. For every harness
// seed of every dialect, no output statement may be a seed or library
// statement, and mutating every output statement in place must leave the
// seeds' and the library's rendered SQL as it was.
func TestMutantsNeverAliasSeedOrLibrary(t *testing.T) {
	for _, d := range sqlt.Dialects() {
		seeds := harness.InitialSeeds(d)
		rng := rand.New(rand.NewSource(1))
		lib := instantiate.NewLibrary()
		for _, tc := range seeds {
			lib.Harvest(tc)
		}
		m := New(rng, instantiate.New(rng, lib, d), d)

		// Harvest stores the seeds' statements themselves, not copies, so
		// these are also every structure the library holds.
		held := map[sqlast.Statement]string{}
		for _, tc := range seeds {
			for _, s := range tc {
				held[s] = s.SQL()
			}
		}
		ops := []struct {
			name string
			run  func(tc sqlast.TestCase, i int) sqlast.TestCase
		}{
			{"SubstituteType", m.SubstituteType},
			{"InsertAfter", m.InsertAfter},
			{"DeleteAt", m.DeleteAt},
			{"MutateValues", func(tc sqlast.TestCase, _ int) sqlast.TestCase { return m.MutateValues(tc) }},
			{"Instantiator.TestCase", func(tc sqlast.TestCase, _ int) sqlast.TestCase { return m.Inst.TestCase(tc.Types()) }},
		}
		for _, tc := range seeds {
			for i := range tc {
				for _, op := range ops {
					out := op.run(tc, i)
					for j, s := range out {
						if _, aliased := held[s]; aliased {
							t.Fatalf("%s: %s(seed, %d) statement %d is a seed or library statement: %s", d, op.name, i, j, s.SQL())
						}
						m.mutateStatement(s)
					}
				}
			}
		}
		for s, want := range held {
			if got := s.SQL(); got != want {
				t.Errorf("%s: a mutant changed a seed or library statement:\nwas: %s\nnow: %s", d, want, got)
			}
		}
	}
}
