package affinity

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/seqfuzz/lego/internal/sqlt"
)

// refMap is the map-of-sets representation the bit matrix replaced, kept as
// the reference the matrix must agree with.
type refMap map[sqlt.Type]map[sqlt.Type]bool

func (r refMap) add(t1, t2 sqlt.Type) bool {
	if t1 == t2 || !t1.Valid() || !t2.Valid() || r[t1][t2] {
		return false
	}
	if r[t1] == nil {
		r[t1] = map[sqlt.Type]bool{}
	}
	r[t1][t2] = true
	return true
}

func (r refMap) count() int {
	n := 0
	for _, set := range r {
		n += len(set)
	}
	return n
}

func (r refMap) successors(t sqlt.Type) []sqlt.Type {
	var out []sqlt.Type
	for t2 := range r[t] {
		out = append(out, t2)
	}
	slices.Sort(out)
	return out
}

func (r refMap) pairs() []Pair {
	var out []Pair
	for t1 := range r {
		for _, t2 := range r.successors(t1) {
			out = append(out, Pair{From: t1, To: t2})
		}
	}
	slices.SortFunc(out, func(a, b Pair) int {
		if a.From != b.From {
			return int(a.From) - int(b.From)
		}
		return int(a.To) - int(b.To)
	})
	return out
}

// merge adds other's pairs in canonical order, returning those new to r.
func (r refMap) merge(other refMap) []Pair {
	var fresh []Pair
	for _, p := range other.pairs() {
		if r.add(p.From, p.To) {
			fresh = append(fresh, p)
		}
	}
	return fresh
}

// analyze is Algorithm 2 over r.
func (r refMap) analyze(seq sqlt.Sequence) []Pair {
	var fresh []Pair
	last := sqlt.Invalid
	for _, cur := range seq {
		if last != sqlt.Invalid && last != cur && r.add(last, cur) {
			fresh = append(fresh, Pair{From: last, To: cur})
		}
		last = cur
	}
	return fresh
}

// TestMatrixMatchesMapOfSets drives the bit matrix and the reference with
// the same random operations over every statement type plus Invalid and
// one code past the last type, self pairs included, and demands the same
// answers from Add, Has, Count, Pairs, Successors, Merge, Analyze and
// Tally.
func TestMatrixMatchesMapOfSets(t *testing.T) {
	last := sqlt.Type(sqlt.NumTypes)
	if !last.Valid() || (last + 1).Valid() {
		t.Fatalf("type %d should be the last valid type", last)
	}
	rng := rand.New(rand.NewSource(27))
	typ := func() sqlt.Type {
		switch rng.Intn(8) {
		case 0:
			return sqlt.Invalid
		case 1:
			return last
		case 2:
			return last + 1
		}
		return sqlt.Type(rng.Intn(sqlt.NumTypes + 2))
	}
	seq := func() sqlt.Sequence {
		s := make(sqlt.Sequence, rng.Intn(8))
		for i := range s {
			s[i] = typ()
			if i > 0 && rng.Intn(4) == 0 {
				s[i] = s[i-1] // adjacent duplicates
			}
		}
		return s
	}
	check := func(trial int, m *Map, r refMap) {
		t.Helper()
		if m.Count() != r.count() {
			t.Fatalf("trial %d: Count %d, reference %d", trial, m.Count(), r.count())
		}
		if got, want := m.Pairs(), r.pairs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Pairs %v, reference %v", trial, got, want)
		}
		for ty := sqlt.Invalid; ty <= last+1; ty++ {
			if got, want := m.Successors(ty), r.successors(ty); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Successors(%d) %v, reference %v", trial, ty, got, want)
			}
		}
	}

	for trial := 0; trial < 200; trial++ {
		m, r := NewMap(), refMap{}
		n := rng.Intn(300)
		for i := 0; i < n; i++ {
			t1, t2 := typ(), typ()
			if rng.Intn(10) == 0 {
				t2 = t1 // self pair
			}
			if got, want := m.Add(t1, t2), r.add(t1, t2); got != want {
				t.Fatalf("trial %d: Add(%d, %d) = %v, reference %v", trial, t1, t2, got, want)
			}
			t3, t4 := typ(), typ()
			if got, want := m.Has(t3, t4), r[t3][t4]; got != want {
				t.Fatalf("trial %d: Has(%d, %d) = %v, reference %v", trial, t3, t4, got, want)
			}
		}
		check(trial, m, r)

		// Merge a second random map, then analyze random sequences.
		o, ro := NewMap(), refMap{}
		for i := rng.Intn(300); i > 0; i-- {
			t1, t2 := typ(), typ()
			o.Add(t1, t2)
			ro.add(t1, t2)
		}
		if got, want := m.Merge(o), r.merge(ro); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Merge fresh %v, reference %v", trial, got, want)
		}
		check(trial, m, r)
		var seqs []sqlt.Sequence
		for i := rng.Intn(20); i > 0; i-- {
			s := seq()
			seqs = append(seqs, s)
			if got, want := m.Analyze(s), r.analyze(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Analyze(%v) fresh %v, reference %v", trial, s, got, want)
			}
		}
		check(trial, m, r)
		tally := refMap{}
		for _, s := range seqs {
			tally.analyze(s)
		}
		if got, want := Tally(seqs), tally.count(); got != want {
			t.Fatalf("trial %d: Tally %d, reference %d", trial, got, want)
		}
	}
}
