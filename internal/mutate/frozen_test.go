package mutate

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/instantiate"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// TestMutantsNeverWriteSeedOrLibrary: mutants share the seed's and the
// library's statements by design, and an operator's output shares the
// frozen subtrees the fixer did not copy, so the invariant is that nothing
// writes a held statement. For every harness seed of every dialect, after
// each of the five operators every seed and library statement must be
// reflect.DeepEqual to a clone taken beforehand. The outputs then join the
// held statements and the library, as an ingested test case does, and a
// second round of all five operators over every output must leave every
// held statement, old and new, equal to its clone.
func TestMutantsNeverWriteSeedOrLibrary(t *testing.T) {
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
		held := map[sqlast.Statement]sqlast.Statement{}
		hold := func(tcs []sqlast.TestCase) {
			for _, tc := range tcs {
				for _, s := range tc {
					if _, ok := held[s]; !ok {
						held[s] = s.Clone()
					}
				}
			}
		}
		hold(seeds)
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
		// check fails the test if anything wrote a held statement.
		check := func(what string) {
			for s, before := range held {
				if !reflect.DeepEqual(s, before) {
					t.Fatalf("%s: %s wrote a held statement:\nwas: %s\nnow: %s", d, what, before.SQL(), s.SQL())
				}
			}
		}
		// round runs every operator at every index of every case in in. It
		// checks the held statements after each operator in the first
		// round, and after each case in the second, whose cases and held
		// statements are many more.
		round := func(n int, in []sqlast.TestCase) (out []sqlast.TestCase) {
			for _, tc := range in {
				for i := range tc {
					for _, op := range ops {
						if mutant := op.run(tc, i); len(mutant) > 0 {
							out = append(out, mutant)
						}
						if n == 1 {
							check(fmt.Sprintf("round 1: %s(%q, %d)", op.name, tc.SQL(), i))
						}
					}
				}
				if n == 2 {
					check(fmt.Sprintf("round 2: an operator on %q", tc.SQL()))
				}
			}
			return out
		}
		outs := round(1, seeds)
		hold(outs)
		for _, tc := range outs {
			lib.Harvest(tc)
		}
		round(2, outs)
	}
}
