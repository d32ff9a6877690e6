package corpus

import (
	"math/rand"
	"testing"

	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

func TestEmptyPool(t *testing.T) {
	p := NewPool(rand.New(rand.NewSource(1)))
	if p.Select() != nil {
		t.Fatal("empty pool selects nil")
	}
	if p.Len() != 0 {
		t.Fatal("empty pool length")
	}
}

func TestAddAndSelect(t *testing.T) {
	p := NewPool(rand.New(rand.NewSource(1)))
	tc := sqlparse.MustParseScript("SELECT 1;")
	s := p.Add(tc, 5)
	if s.NewEdges != 5 || len(p.All()) != 1 || p.All()[0] != s {
		t.Fatalf("seed = %+v", s)
	}
	got := p.Select()
	if got != s {
		t.Fatal("single-seed pool selects it")
	}
	if p.Picks()[0] != 1 {
		t.Fatal("the pick count must increment")
	}
}

func TestSelectionPrefersProductiveSeeds(t *testing.T) {
	p := NewPool(rand.New(rand.NewSource(2)))
	weak := p.Add(sqlparse.MustParseScript("SELECT 1;"), 0)
	strong := p.Add(sqlparse.MustParseScript("SELECT 2;"), 100)

	strongPicks := 0
	for i := 0; i < 200; i++ {
		if p.Select() == strong {
			strongPicks++
		}
	}
	if strongPicks < 120 {
		t.Fatalf("strong seed picked only %d/200 times", strongPicks)
	}
	_ = weak
}

func TestPickedPenaltyRotatesSchedule(t *testing.T) {
	p := NewPool(rand.New(rand.NewSource(3)))
	a := p.Add(sqlparse.MustParseScript("SELECT 1;"), 10)
	b := p.Add(sqlparse.MustParseScript("SELECT 2;"), 10)
	seen := map[*Seed]int{}
	for i := 0; i < 100; i++ {
		seen[p.Select()]++
	}
	if seen[a] == 0 || seen[b] == 0 {
		t.Fatalf("schedule starved a seed: %v", seen)
	}
}

func TestSequences(t *testing.T) {
	p := NewPool(rand.New(rand.NewSource(4)))
	p.Add(sqlparse.MustParseScript("CREATE TABLE t (a INT); INSERT INTO t VALUES (1);"), 1)
	p.Add(sqlparse.MustParseScript("SELECT 1;"), 1)
	seeds := p.All()
	if len(seeds) != 2 {
		t.Fatal("All must list both")
	}
	if got := seeds[0].Types(); !got.Equal(sqlt.Sequence{sqlt.CreateTable, sqlt.Insert}) {
		t.Fatalf("seq0 = %v", got)
	}
}

// TestAdoptSharesSeeds: two pools adopting one seed hold the same object,
// each with its own pick count.
func TestAdoptSharesSeeds(t *testing.T) {
	a := NewPool(rand.New(rand.NewSource(4)))
	b := NewPool(rand.New(rand.NewSource(4)))
	s := a.Add(sqlparse.MustParseScript("CREATE TABLE t (a INT); INSERT INTO t VALUES (1);"), 1)
	b.Adopt(s, 3)
	if a.Select() != s || b.Select() != s || b.All()[0] != s {
		t.Fatal("both pools must schedule the shared seed")
	}
	if a.Picks()[0] != 1 || b.Picks()[0] != 4 {
		t.Fatalf("picks = %v and %v, want [1] and [4]", a.Picks(), b.Picks())
	}
}
