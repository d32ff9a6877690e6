package sqlparse_test

import (
	"math/rand"
	"reflect"
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

// addScriptSeeds adds every dialect's initial seed corpus and 16 statements
// from every dialect's generator.
func addScriptSeeds(f *testing.F) {
	for _, d := range sqlt.Dialects() {
		for _, tc := range harness.InitialSeeds(d) {
			f.Add(tc.SQL())
		}
		g := instantiate.NewGenerator(rand.New(rand.NewSource(int64(d)+1)), d)
		for i := 0; i < 16; i++ {
			f.Add(g.Gen(g.RandomType()).SQL())
		}
	}
}
