package coverage

import (
	"reflect"
	"testing"
)

// mapFrom builds a map holding exactly the given edge states.
func mapFrom(edges []EdgeState) *Map {
	m := NewMap()
	m.Import(edges)
	return m
}

// unionExports computes the set union of two exports by mask-OR per index.
func unionExports(a, b []EdgeState) []EdgeState {
	masks := map[uint32]uint8{}
	for _, e := range a {
		masks[e.Idx] |= e.Mask
	}
	for _, e := range b {
		masks[e.Idx] |= e.Mask
	}
	u := NewMap()
	var flat []EdgeState
	for idx, mask := range masks {
		flat = append(flat, EdgeState{Idx: idx, Mask: mask})
	}
	u.Import(flat) // Import + Export canonicalizes the order
	return u.Export()
}

func TestMergeIsUnionOfExports(t *testing.T) {
	a := []EdgeState{{Idx: 3, Mask: 0b0001}, {Idx: 10, Mask: 0b0110}, {Idx: 500, Mask: 0b1000}}
	b := []EdgeState{{Idx: 3, Mask: 0b0100}, {Idx: 99, Mask: 0b0001}}

	ab := mapFrom(a)
	ab.Merge(mapFrom(b))
	ba := mapFrom(b)
	ba.Merge(mapFrom(a))

	want := unionExports(a, b)
	if got := ab.Export(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge(A,B).Export() = %v, want union %v", got, want)
	}
	// Commutativity: merge(A,B) == merge(B,A).
	if !reflect.DeepEqual(ab.Export(), ba.Export()) {
		t.Fatalf("merge not commutative:\nA·B %v\nB·A %v", ab.Export(), ba.Export())
	}
	if ab.EdgeCount() != ba.EdgeCount() {
		t.Fatalf("edge counts diverge: %d vs %d", ab.EdgeCount(), ba.EdgeCount())
	}
	// Distinct indices: 3, 10, 99, 500.
	if ab.EdgeCount() != 4 {
		t.Fatalf("edge count = %d, want 4", ab.EdgeCount())
	}
}

func TestMergeIdempotent(t *testing.T) {
	a := []EdgeState{{Idx: 1, Mask: 2}, {Idx: 7, Mask: 5}}
	m := mapFrom(a)
	m.Merge(mapFrom(a))
	m.Merge(mapFrom(m.Export()))
	if got := m.Export(); !reflect.DeepEqual(got, mapFrom(a).Export()) {
		t.Fatalf("self-merge changed state: %v", got)
	}
	if m.EdgeCount() != 2 {
		t.Fatalf("edge count = %d, want 2", m.EdgeCount())
	}
}

func TestExportPreSized(t *testing.T) {
	m := mapFrom([]EdgeState{{Idx: 1, Mask: 1}, {Idx: 2, Mask: 1}, {Idx: 3, Mask: 1}})
	out := m.Export()
	if len(out) != 3 || cap(out) != 3 {
		t.Fatalf("export len/cap = %d/%d, want 3/3 (pre-sized to edge count)", len(out), cap(out))
	}
}
