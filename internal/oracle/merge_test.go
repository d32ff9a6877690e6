package oracle

import (
	"testing"

	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/sqlparse"
)

func TestMergeKeepsShortestReproducer(t *testing.T) {
	long := sqlparse.MustParseScript("SELECT 1; SELECT 2; SELECT 3;")
	short := sqlparse.MustParseScript("SELECT 1;")

	a := New()
	a.Record(report("BUG-1", "Optimizer", "SEGV", "f", "g"), long, 10)
	b := New()
	b.Record(report("BUG-1", "Optimizer", "SEGV", "f", "g"), short, 40)
	b.Record(report("BUG-2", "Parser", "UAF", "p"), long, 50)

	a.Merge(b)
	if a.Count() != 2 {
		t.Fatalf("count = %d, want 2", a.Count())
	}
	c := a.Crashes()[0]
	if len(c.Reproducer) != 1 {
		t.Fatalf("merged reproducer has %d statements, want the shortest (1)", len(c.Reproducer))
	}
	if c.Hits != 2 {
		t.Fatalf("hits = %d, want 2 (summed across oracles)", c.Hits)
	}
	if c.FoundAtExec != 10 {
		t.Fatalf("found-at = %d, want the earliest (10)", c.FoundAtExec)
	}

	// Merging the other way never lengthens a reproducer.
	b.Merge(a)
	if got := b.Crashes()[0]; len(got.Reproducer) != 1 {
		t.Fatalf("reverse merge lengthened reproducer to %d statements", len(got.Reproducer))
	}
}

func TestMergeCopiesEntries(t *testing.T) {
	tc := sqlparse.MustParseScript("SELECT 1; SELECT 2;")
	src := New()
	src.Record(report("BUG-1", "Optimizer", "SEGV", "f"), tc, 5)

	dst := New()
	dst.Merge(src)
	// Mutating the merged copy (as triage does) must not write into src.
	dst.Crashes()[0].Status = "STABLE"
	dst.Crashes()[0].Reproducer = sqlparse.MustParseScript("SELECT 1;")
	if src.Crashes()[0].Status != "" || len(src.Crashes()[0].Reproducer) != 2 {
		t.Fatal("merge shared the crash entry; mutations leaked into the source oracle")
	}
}

// TestMergeDrainsBarriers drives Merge the way the campaign executor does:
// once per barrier, over every shard's oracle of that epoch in shard order,
// emptying the shards after. Hits sum, the strictly shorter reproducer wins
// (the earlier barrier or lower shard on a tie), new keys append in shard
// order, and FoundAtExec is fixed at the barrier that first merges a key.
func TestMergeDrainsBarriers(t *testing.T) {
	k1 := func() *minidb.BugReport { return report("BUG-1", "Optimizer", "SEGV", "f") }
	k2 := func() *minidb.BugReport { return report("BUG-2", "Parser", "UAF", "p") }
	k3 := func() *minidb.BugReport { return report("BUG-3", "Storage", "BOF", "s") }
	k4 := func() *minidb.BugReport { return report("BUG-4", "Item", "AF", "i") }
	tc := sqlparse.MustParseScript

	campaign := New()
	s0, s1 := New(), New()
	drain := func() {
		campaign.Merge(s0, s1)
		s0.Reset()
		s1.Reset()
	}

	// Epoch 1.
	s0.Record(k1(), tc("SELECT 1; SELECT 2; SELECT 3;"), 50)
	s0.Record(k2(), tc("SELECT 4; SELECT 5;"), 60)
	s1.Record(k3(), tc("SELECT 6;"), 20)
	s1.Record(k1(), tc("SELECT 7; SELECT 8;"), 40)
	s1.Record(k1(), tc("SELECT 9; SELECT 10;"), 45)
	drain()
	if s0.Count() != 0 || s1.Count() != 0 || len(s0.Crashes()) != 0 {
		t.Fatal("Reset left sightings in a shard oracle")
	}

	// Epoch 2: shard 0 sees BUG-3 at a smaller local exec count than shard
	// 1's epoch-1 sighting, with a reproducer of equal length; both shards
	// find BUG-4; shard 0 finds a strictly shorter BUG-1.
	s1.Record(k4(), tc("SELECT 11; SELECT 12;"), 100)
	s0.Record(k3(), tc("SELECT 13;"), 5)
	s0.Record(k4(), tc("SELECT 14; SELECT 15;"), 90)
	s0.Record(k1(), tc("SELECT 16;"), 7)
	drain()

	type want struct {
		id      string
		found   int
		hits    int
		repro   string
		comment string
	}
	wants := []want{
		{"BUG-1", 40, 4, "SELECT 16;\n", "shorter reproducer replaces; found-at fixed at barrier 1"},
		{"BUG-2", 60, 1, "SELECT 4;\nSELECT 5;\n", "one sighting"},
		{"BUG-3", 20, 2, "SELECT 6;\n", "a later smaller exec count and an equal-length reproducer move nothing"},
		{"BUG-4", 90, 2, "SELECT 14;\nSELECT 15;\n", "new at barrier 2: smallest exec count, shard 0 wins the tie"},
	}
	got := campaign.Crashes()
	if len(got) != len(wants) {
		t.Fatalf("campaign oracle holds %d crashes, want %d", len(got), len(wants))
	}
	for i, w := range wants {
		g := got[i]
		if g.Report.ID != w.id || g.FoundAtExec != w.found || g.Hits != w.hits || g.Reproducer.SQL() != w.repro {
			t.Errorf("crash %d = %s found-at %d hits %d repro %q; want %s %d %d %q (%s)",
				i, g.Report.ID, g.FoundAtExec, g.Hits, g.Reproducer.SQL(), w.id, w.found, w.hits, w.repro, w.comment)
		}
	}
}
