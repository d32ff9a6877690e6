// Property tests for the structural clone that replaced clone-by-reparse on
// the hot path. The contract: for every statement the fuzzer can produce,
// the structural clone renders byte-identical SQL, agrees with the old
// render+reparse oracle, shares no mutable memory with the original, and
// mutating a clone never changes the original.
package sqlparse_test

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/instantiate"
	"github.com/seqfuzz/lego/internal/mutate"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// TestStructuralCloneMatchesReparse drives the structural clone with the
// fuzzer's own generator across every dialect and compares it against the
// render+reparse oracle.
func TestStructuralCloneMatchesReparse(t *testing.T) {
	for _, d := range sqlt.Dialects() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xBEEF))
			g := instantiate.NewGenerator(rng, d)
			for i := 0; i < 2000; i++ {
				s := g.Gen(g.RandomType())
				want := s.SQL()
				structural := s.Clone()
				oracle := sqlparse.CloneStatementByReparse(s)
				if got := structural.SQL(); got != want {
					t.Fatalf("structural clone differs from original:\n  orig:  %s\n  clone: %s", want, got)
				}
				if got := oracle.SQL(); got != want {
					t.Fatalf("reparse oracle differs from original:\n  orig:   %s\n  oracle: %s", want, got)
				}
			}
		})
	}
}

// TestStructuralCloneMatchesReparseOnSeeds runs the same comparison over
// every statement of the shipped seed corpus.
func TestStructuralCloneMatchesReparseOnSeeds(t *testing.T) {
	for _, d := range sqlt.Dialects() {
		for _, tc := range harness.InitialSeeds(d) {
			for _, s := range tc {
				want := s.SQL()
				if got := s.Clone().SQL(); got != want {
					t.Fatalf("structural clone differs on seed statement:\n  orig:  %s\n  clone: %s", want, got)
				}
				if got := sqlparse.CloneStatementByReparse(s).SQL(); got != want {
					t.Fatalf("reparse oracle differs on seed statement: %s", want)
				}
			}
		}
	}
}

// TestStructuralCloneAliasingFree checks, by reflection walk, that a clone
// shares no pointer, slice, or map with its original — the property that
// makes canonical library storage and in-place mutation of clones safe.
func TestStructuralCloneAliasingFree(t *testing.T) {
	rng := rand.New(rand.NewSource(0xA11A5))
	g := instantiate.NewGenerator(rng, sqlt.DialectPostgres)
	for i := 0; i < 500; i++ {
		s := g.Gen(g.RandomType())
		c := s.Clone()
		assertNoSharedMemory(t, s.SQL(), reflect.ValueOf(s), reflect.ValueOf(c))
	}
}

// assertNoSharedMemory fails if a and b reach any common mutable memory.
// Strings are exempt (immutable backing arrays may be shared).
func assertNoSharedMemory(t *testing.T, ctx string, a, b reflect.Value) {
	t.Helper()
	if !a.IsValid() || !b.IsValid() {
		return
	}
	switch a.Kind() {
	case reflect.Ptr:
		if a.IsNil() || b.IsNil() {
			return
		}
		// Zero-size objects (e.g. CheckpointStmt{}) all live at the runtime's
		// canonical address; identical pointers carry no shared state there.
		if a.Type().Elem().Size() == 0 {
			return
		}
		if a.Pointer() == b.Pointer() {
			t.Fatalf("clone shares %s pointer with original\nstatement: %s", a.Type(), ctx)
		}
		assertNoSharedMemory(t, ctx, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return
		}
		assertNoSharedMemory(t, ctx, a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() || b.IsNil() || a.Len() == 0 {
			return
		}
		if a.Pointer() == b.Pointer() {
			t.Fatalf("clone shares %s slice with original\nstatement: %s", a.Type(), ctx)
		}
		for i := 0; i < a.Len() && i < b.Len(); i++ {
			assertNoSharedMemory(t, ctx, a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if a.IsNil() || b.IsNil() {
			return
		}
		if a.Pointer() == b.Pointer() {
			t.Fatalf("clone shares %s map with original\nstatement: %s", a.Type(), ctx)
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			assertNoSharedMemory(t, ctx, a.Field(i), b.Field(i))
		}
	}
}

// TestMutatedCloneLeavesOriginalIntact applies every mutation operator to
// clones of generated test cases and verifies the originals render the same
// SQL before and after — in-place mutation must only ever touch the clone.
func TestMutatedCloneLeavesOriginalIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	inst := instantiate.New(rng, instantiate.NewLibrary(), sqlt.DialectMariaDB)
	m := &mutate.Mutator{Rng: rng, Inst: inst, MaxStatements: 8}
	for i := 0; i < 300; i++ {
		tc := inst.TestCase(sqlt.Sequence{sqlt.CreateTable, sqlt.Insert, sqlt.Update, sqlt.Select})
		before := tc.SQL()
		switch i % 4 {
		case 0:
			m.MutateValues(tc)
		case 1:
			m.SubstituteType(tc, rng.Intn(len(tc)))
		case 2:
			m.InsertAfter(tc, rng.Intn(len(tc)))
		case 3:
			m.DeleteAt(tc, rng.Intn(len(tc)))
		}
		if after := tc.SQL(); after != before {
			t.Fatalf("mutation %d changed the original test case:\n  before: %s\n  after:  %s", i%4, before, after)
		}
	}
}
