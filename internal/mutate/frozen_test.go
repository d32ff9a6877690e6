package mutate

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/instantiate"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// TestMutantsNeverWriteSeedOrLibrary: mutants share the seed's and the
// library's statements by design, so the invariant is that nothing writes
// them. For every harness seed of every dialect, after each of the five
// operators every seed and library statement must be reflect.DeepEqual to a
// clone taken beforehand. An output statement that is not one of those is
// one the operator made or changed, and it must be fresh: changing it in
// place must leave every seed and library statement as it was.
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
		for _, tc := range seeds {
			for _, s := range tc {
				held[s] = s.Clone()
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
					for _, s := range op.run(tc, i) {
						if _, shared := held[s]; !shared {
							m.mutateStatement(s)
						}
					}
					for s, before := range held {
						if !reflect.DeepEqual(s, before) {
							t.Fatalf("%s: %s(seed, %d) wrote a seed or library statement:\nwas: %s\nnow: %s", d, op.name, i, before.SQL(), s.SQL())
						}
					}
				}
			}
		}
	}
}
