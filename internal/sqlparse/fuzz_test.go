package sqlparse_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/instantiate"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// FuzzRenderFixpoint checks the round trip a resumed campaign rests on: the
// seed pool, the structure library rebuilt from it and the crash
// reproducers all come back from rendered SQL. For any script that parses,
// rendering it and parsing the rendering must succeed and give the same
// SQL and the same type sequence, so parse→render→parse is a fixpoint.
// Arbitrary bytes must never make the parser or the renderer panic. The
// seeds are every dialect's initial seed corpus and statements from every
// dialect's generator.
//
// Plain `go test` runs the seeds; `make selffuzz` searches for 15 s.
func FuzzRenderFixpoint(f *testing.F) {
	addScriptSeeds(f)
	f.Fuzz(func(t *testing.T, sql string) {
		tc, err := sqlparse.ParseScript(sql)
		if err != nil {
			return
		}
		rendered := tc.SQL()
		again, err := sqlparse.ParseScript(rendered)
		if err != nil {
			t.Fatalf("rendering does not parse: %v\ninput:    %q\nrendered: %q", err, sql, rendered)
		}
		if got := again.SQL(); got != rendered {
			t.Fatalf("render is not a fixpoint\ninput:    %q\nrendered: %q\nagain:    %q", sql, rendered, got)
		}
		if a, b := tc.Types(), again.Types(); !a.Equal(b) {
			t.Fatalf("reparse changed the type sequence %v to %v\nrendered: %q", a, b, rendered)
		}
	})
}

// FuzzCloneMatchesReparse checks the copy contract every mutation rests on:
// for every statement of any script that parses, Clone must render the same
// SQL as the original and as the render+reparse oracle, and the clone must
// share no mutable memory with the original. It is seeded like
// FuzzRenderFixpoint.
//
// Plain `go test` runs the seeds; `make selffuzz` searches for 15 s.
func FuzzCloneMatchesReparse(f *testing.F) {
	addScriptSeeds(f)
	f.Fuzz(func(t *testing.T, sql string) {
		tc, err := sqlparse.ParseScript(sql)
		if err != nil {
			return
		}
		for _, s := range tc {
			want := s.SQL()
			c := s.Clone()
			if got := c.SQL(); got != want {
				t.Fatalf("clone renders differently\ninput:    %q\noriginal: %q\nclone:    %q", sql, want, got)
			}
			if got := sqlparse.CloneStatementByReparse(s).SQL(); got != want {
				t.Fatalf("reparse clone renders differently\ninput:    %q\noriginal: %q\nreparse:  %q", sql, want, got)
			}
			assertNoSharedMemory(t, want, reflect.ValueOf(s), reflect.ValueOf(c))
		}
	})
}

// FuzzFixCopyOnWriteMatchesClone checks the fixer's copy-on-write
// contract, which lets mutants share seed and library statements. For any
// script that parses, an ownership mask and an RNG seed: Fix over the parsed
// statements, owning a clone of each statement whose mask bit is set and
// sharing the rest, must render the same SQL as Fix over a full clone that
// owns every statement, and leave the RNG in the same state. Every parsed
// statement must stay reflect.DeepEqual to a clone taken before the fix.
// It is seeded like FuzzRenderFixpoint, with two masks, and by the
// committed seeds in testdata, whose shared statements need repairs deep
// inside a WITH, a trigger body, nested subqueries, a join's ON, every kind
// of expression, and a multi-row INSERT and a MERGE.
//
// Plain `go test` runs the seeds; `make selffuzz` searches for 15 s.
func FuzzFixCopyOnWriteMatchesClone(f *testing.F) {
	addScriptSeeds(f, uint64(0), int64(1))
	addScriptSeeds(f, uint64(0x5555555555555555), int64(2))
	f.Fuzz(func(t *testing.T, sql string, mask uint64, seed int64) {
		tc, err := sqlparse.ParseScript(sql)
		if err != nil {
			return
		}
		before := tc.Clone()

		full := tc.Clone()
		all := make([]int, len(full))
		for i := range all {
			all[i] = i
		}
		wantRng := rand.New(rand.NewSource(seed))
		instantiate.NewFixer(wantRng).Fix(full, all...)

		cow := slices.Clone(tc)
		var owned []int
		for i := range cow {
			if i < 64 && mask&(1<<i) != 0 {
				cow[i] = cow[i].Clone()
				owned = append(owned, i)
			}
		}
		gotRng := rand.New(rand.NewSource(seed))
		instantiate.NewFixer(gotRng).Fix(cow, owned...)

		if got, want := cow.SQL(), full.SQL(); got != want {
			t.Fatalf("copy-on-write fix differs from fixing a clone\ninput: %q\nowned: %v\ncow:   %q\nclone: %q", sql, owned, got, want)
		}
		if gotRng.Int63() != wantRng.Int63() {
			t.Fatalf("copy-on-write fix drew differently from fixing a clone\ninput: %q\nowned: %v", sql, owned)
		}
		for i, s := range tc {
			if !reflect.DeepEqual(s, before[i]) {
				t.Fatalf("fix wrote statement %d, which it was given shared\ninput: %q\nwas: %q\nnow: %q", i, sql, before[i].SQL(), s.SQL())
			}
		}
	})
}

// addScriptSeeds adds every dialect's initial seed corpus and 16 statements
// from every dialect's generator, each script followed by extra as the
// target's further arguments.
func addScriptSeeds(f *testing.F, extra ...any) {
	add := func(sql string) { f.Add(append([]any{sql}, extra...)...) }
	for _, d := range sqlt.Dialects() {
		for _, tc := range harness.InitialSeeds(d) {
			add(tc.SQL())
		}
		g := instantiate.NewGenerator(rand.New(rand.NewSource(int64(d)+1)), d)
		for i := 0; i < 16; i++ {
			add(g.Gen(g.RandomType()).SQL())
		}
	}
}
