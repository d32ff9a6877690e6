package instantiate

import (
	"math/rand"
	"testing"

	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// TestGeneratorCoversEveryType verifies Gen produces a statement of the
// requested type for every type of every dialect, and that the statement
// survives a print->parse round trip (i.e. it is syntactically valid).
func TestGeneratorCoversEveryType(t *testing.T) {
	for _, d := range sqlt.Dialects() {
		g := NewGenerator(rand.New(rand.NewSource(1)), d)
		for _, ty := range d.Types() {
			for rep := 0; rep < 5; rep++ {
				s := g.Gen(ty)
				if s == nil {
					t.Fatalf("%s: Gen(%s) returned nil", d, ty)
				}
				if got := s.Type(); got != ty {
					t.Fatalf("%s: Gen(%s) produced type %s", d, ty, got)
				}
				sql := s.SQL()
				if _, err := sqlparse.Parse(sql); err != nil {
					t.Fatalf("%s: Gen(%s) produced unparseable SQL %q: %v", d, ty, sql, err)
				}
			}
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1 := NewGenerator(rand.New(rand.NewSource(9)), sqlt.DialectPostgres)
	g2 := NewGenerator(rand.New(rand.NewSource(9)), sqlt.DialectPostgres)
	for i := 0; i < 50; i++ {
		ty := g1.RandomType()
		if ty != g2.RandomType() {
			t.Fatal("RandomType diverged")
		}
		if g1.Gen(ty).SQL() != g2.Gen(ty).SQL() {
			t.Fatal("Gen diverged")
		}
	}
}

func TestRandomTypeRespectsDialect(t *testing.T) {
	g := NewGenerator(rand.New(rand.NewSource(3)), sqlt.DialectComdb2)
	for i := 0; i < 200; i++ {
		ty := g.RandomType()
		if !sqlt.DialectComdb2.Supports(ty) {
			t.Fatalf("RandomType produced unsupported %s", ty)
		}
	}
}

func TestLibraryHarvestAndPick(t *testing.T) {
	lib := NewLibrary()
	tc := sqlparse.MustParseScript(`
CREATE TABLE t (a INT);
INSERT INTO t VALUES (1);
SELECT * FROM t;
`)
	lib.Harvest(tc)
	if lib.Size() != 3 || lib.TypesCovered() != 3 {
		t.Fatalf("size=%d types=%d", lib.Size(), lib.TypesCovered())
	}
	rng := rand.New(rand.NewSource(1))
	s := lib.Pick(rng, sqlt.Insert)
	if s == nil || s.Type() != sqlt.Insert {
		t.Fatalf("picked %v", s)
	}
	// picks are clones: mutating one must not affect the library
	s.(*sqlast.InsertStmt).Table = "zzz"
	s2 := lib.Pick(rng, sqlt.Insert)
	if s2.(*sqlast.InsertStmt).Table == "zzz" {
		t.Fatal("library structures must be isolated from picks")
	}
	if lib.Pick(rng, sqlt.Vacuum) != nil {
		t.Fatal("missing type picks nil")
	}
}

func TestLibrarySkipsRecentDuplicates(t *testing.T) {
	lib := NewLibrary()
	tc := sqlparse.MustParseScript("SELECT 1;")
	lib.Harvest(tc)
	lib.Harvest(tc)
	if lib.Size() != 1 {
		t.Fatalf("size = %d, duplicate should be skipped", lib.Size())
	}
}

func TestLibraryEviction(t *testing.T) {
	lib := NewLibrary()
	lib.MaxPerType = 4
	g := NewGenerator(rand.New(rand.NewSource(5)), sqlt.DialectPostgres)
	for i := 0; i < 20; i++ {
		lib.Harvest(sqlast.TestCase{g.Gen(sqlt.Select)})
	}
	if lib.Size() > 4 {
		t.Fatalf("size = %d, want <= MaxPerType", lib.Size())
	}
}

// TestFixerResolvesDependencies checks the §III-B example behaviour: after
// fixing, statements reference objects that exist, so the semantic error
// rate drops dramatically when executed.
func TestFixerResolvesDependencies(t *testing.T) {
	tc := sqlparse.MustParseScript(`
CREATE TABLE v0 (x INT PRIMARY KEY, y INT);
INSERT INTO v2 (v1) VALUES (100);
SELECT zz FROM nowhere;
`)
	f := NewFixer(rand.New(rand.NewSource(1)))
	f.Fix(tc)

	ins := tc[1].(*sqlast.InsertStmt)
	if ins.Table != "v0" {
		t.Fatalf("insert table = %q, want v0", ins.Table)
	}
	if len(ins.Cols) != 0 {
		t.Fatal("fixer drops the stale column list")
	}
	if len(ins.Rows[0]) != 2 {
		t.Fatalf("row arity = %d, want 2", len(ins.Rows[0]))
	}
	sel := tc[2].(*sqlast.SelectStmt)
	bt := sel.From[0].(*sqlast.BaseTable)
	if bt.Name != "v0" {
		t.Fatalf("select table = %q, want v0", bt.Name)
	}
	cr := sel.Items[0].X.(*sqlast.ColRef)
	if cr.Name != "x" && cr.Name != "y" {
		t.Fatalf("column ref = %q, want x or y", cr.Name)
	}
}

// TestFixerTableWithoutColumns: a table constraint may name a column of a
// table that has none. The fixer must leave the name be and draw nothing,
// where it used to panic drawing from an empty column list.
func TestFixerTableWithoutColumns(t *testing.T) {
	tc := sqlparse.MustParseScript(`CREATE TABLE t (PRIMARY KEY (a));`)
	rng := rand.New(rand.NewSource(1))
	NewFixer(rng).Fix(tc)
	if got := tc[0].(*sqlast.CreateTableStmt).Constraints[0].Columns[0]; got != "a" {
		t.Fatalf("constraint column = %q, want a", got)
	}
	if got, want := rng.Int63(), rand.New(rand.NewSource(1)).Int63(); got != want {
		t.Fatal("the fixer drew from the RNG")
	}
}

func TestFixerRenamesDuplicateCreates(t *testing.T) {
	tc := sqlparse.MustParseScript(`
CREATE TABLE t0 (a INT);
CREATE TABLE t0 (b INT);
`)
	f := NewFixer(rand.New(rand.NewSource(1)))
	f.Fix(tc)
	n1 := tc[0].(*sqlast.CreateTableStmt).Name
	n2 := tc[1].(*sqlast.CreateTableStmt).Name
	if n1 == n2 {
		t.Fatalf("duplicate create not renamed: %q", n2)
	}
}

func TestFixerTracksDrops(t *testing.T) {
	tc := sqlparse.MustParseScript(`
CREATE TABLE t0 (a INT);
CREATE TABLE t1 (b INT);
DROP TABLE t0;
INSERT INTO t0 VALUES (1);
`)
	f := NewFixer(rand.New(rand.NewSource(1)))
	f.Fix(tc)
	ins := tc[3].(*sqlast.InsertStmt)
	if ins.Table != "t1" {
		t.Fatalf("insert into dropped table not redirected: %q", ins.Table)
	}
}

func TestFixerPreparedAndCursors(t *testing.T) {
	tc := sqlparse.MustParseScript(`
CREATE TABLE t0 (a INT);
PREPARE q0 AS SELECT a FROM t0;
EXECUTE somethingelse;
DECLARE cur0 CURSOR FOR SELECT a FROM t0;
FETCH 2 FROM nosuchcursor;
CLOSE nosuchcursor;
`)
	f := NewFixer(rand.New(rand.NewSource(1)))
	f.Fix(tc)
	if tc[2].(*sqlast.ExecuteStmt).Name != "q0" {
		t.Fatal("execute not redirected to existing prepared statement")
	}
	if tc[4].(*sqlast.FetchStmt).Cursor != "cur0" {
		t.Fatal("fetch not redirected to existing cursor")
	}
	if tc[5].(*sqlast.CloseCursorStmt).Name != "cur0" {
		t.Fatal("close not redirected to existing cursor")
	}
}

// TestInstantiationExecutability is the integration property behind §III-B:
// instantiated sequences must mostly execute, not just parse. We require a
// sub-60% statement error rate over many random sequences (unfixed random
// SQL would be far worse).
func TestInstantiationExecutability(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lib := NewLibrary()
	lib.Harvest(sqlparse.MustParseScript(`
CREATE TABLE t0 (c0 INT, c1 INT);
INSERT INTO t0 VALUES (1, 2);
SELECT c0 FROM t0;
`))
	inst := New(rng, lib, sqlt.DialectPostgres)
	eng := minidb.New(minidb.Config{Dialect: sqlt.DialectPostgres})

	types := sqlt.DialectPostgres.Types()
	totalStmts, totalErrs := 0, 0
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(4)
		seq := make(sqlt.Sequence, n)
		seq[0] = sqlt.CreateTable
		for j := 1; j < n; j++ {
			seq[j] = types[rng.Intn(len(types))]
		}
		tc := inst.TestCase(seq)
		if !tc.Types().Equal(seq) {
			t.Fatalf("instantiated types %v != requested %v", tc.Types(), seq)
		}
		out := eng.RunTestCase(tc)
		totalStmts += out.Executed
		totalErrs += out.Errors
	}
	rate := float64(totalErrs) / float64(totalStmts)
	if rate > 0.6 {
		t.Fatalf("statement error rate %.2f too high — dependency fixing is broken", rate)
	}
	t.Logf("error rate %.2f over %d statements", rate, totalStmts)
}

func TestInstantiateDiversity(t *testing.T) {
	// "one SQL Type Sequence will be instantiated multiple times to
	// increase the diversity" — repeated instantiation differs.
	rng := rand.New(rand.NewSource(2))
	inst := New(rng, NewLibrary(), sqlt.DialectMySQL)
	seq := sqlt.Sequence{sqlt.CreateTable, sqlt.Insert, sqlt.Select}
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		seen[inst.TestCase(seq).SQL()] = true
	}
	if len(seen) < 3 {
		t.Fatalf("only %d distinct instantiations in 10 tries", len(seen))
	}
}
