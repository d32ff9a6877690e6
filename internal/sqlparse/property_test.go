// Property tests driving the parser with the fuzzer's own statement
// generator: every generated statement must parse, and printing must be a
// fixed point after one round trip. This is the contract the structure
// library and the clone-by-reparse mechanism depend on.
package sqlparse_test

import (
	"math/rand"
	"testing"

	"github.com/seqfuzz/lego/internal/instantiate"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

func TestGeneratedStatementsRoundTrip(t *testing.T) {
	for _, d := range sqlt.Dialects() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xC0FFEE))
			g := instantiate.NewGenerator(rng, d)
			for i := 0; i < 2000; i++ {
				ty := g.RandomType()
				s := g.Gen(ty)
				sql1 := s.SQL()
				p1, err := sqlparse.Parse(sql1)
				if err != nil {
					t.Fatalf("generated %s does not parse: %v\n%s", ty, err, sql1)
				}
				sql2 := p1.SQL()
				if sql1 != sql2 {
					t.Fatalf("print/parse not a fixed point for %s:\n  1: %s\n  2: %s", ty, sql1, sql2)
				}
				if p1.Type() != ty {
					t.Fatalf("type drift: generated %s, parsed %s\n%s", ty, p1.Type(), sql1)
				}
			}
		})
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := instantiate.NewGenerator(rng, sqlt.DialectPostgres)
	for i := 0; i < 200; i++ {
		s := g.Gen(g.RandomType())
		c := s.Clone()
		if c.SQL() != s.SQL() {
			t.Fatalf("clone differs:\n  orig:  %s\n  clone: %s", s.SQL(), c.SQL())
		}
	}
}

func TestCloneTestCase(t *testing.T) {
	tc := sqlparse.MustParseScript(`
CREATE TABLE t (a INT);
INSERT INTO t VALUES (1);
`)
	c := tc.Clone()
	if c.SQL() != tc.SQL() {
		t.Fatal("test-case clone differs")
	}
	if &c[0] == &tc[0] {
		t.Fatal("clone must not share statement slots")
	}
}
