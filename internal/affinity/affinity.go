// Package affinity implements type-affinity analysis (paper §III-A,
// Algorithm 2). A type-affinity is the partially ordered tuple
// (type1, type2): statements of type1 can meaningfully be followed by
// statements of type2. Affinities are harvested from the SQL Type Sequences
// of test cases that covered new branches, and drive progressive sequence
// synthesis (package seqsynth).
package affinity

import (
	"slices"

	"github.com/seqfuzz/lego/internal/sqlt"
)

// Pair is one type-affinity (t1 could be followed by t2).
type Pair struct {
	From sqlt.Type
	To   sqlt.Type
}

// String renders the affinity in arrow notation.
func (p Pair) String() string { return p.From.String() + " -> " + p.To.String() }

// Map is the type-affinity map T of Algorithm 2: key statement type ->
// set of statement types that may follow it.
type Map struct {
	m     map[sqlt.Type]map[sqlt.Type]bool
	count int
}

// NewMap returns an empty affinity map.
func NewMap() *Map {
	return &Map{m: map[sqlt.Type]map[sqlt.Type]bool{}}
}

// Add records the affinity t1 -> t2, returning true when it is new.
// Self-affinities (t1 == t2) are rejected, as in Algorithm 2 lines 5-7:
// "composing only one type does not contribute much to the abundance".
func (m *Map) Add(t1, t2 sqlt.Type) bool {
	if t1 == t2 || !t1.Valid() || !t2.Valid() {
		return false
	}
	set, ok := m.m[t1]
	if !ok {
		set = map[sqlt.Type]bool{}
		m.m[t1] = set
	}
	if set[t2] {
		return false
	}
	set[t2] = true
	m.count++
	return true
}

// Has reports whether the affinity t1 -> t2 is recorded.
func (m *Map) Has(t1, t2 sqlt.Type) bool { return m.m[t1][t2] }

// Count returns the number of distinct affinities (the Table II metric).
func (m *Map) Count() int { return m.count }

// sortedKeys returns the map's keys in canonical (ascending) order, so
// every iteration over an affinity set walks it identically in every run —
// the invariant legolint's detrange analyzer enforces.
func sortedKeys[V any](m map[sqlt.Type]V) []sqlt.Type {
	out := make([]sqlt.Type, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// Successors returns the recorded follow-set of t in sorted order.
func (m *Map) Successors(t sqlt.Type) []sqlt.Type {
	set := m.m[t]
	if len(set) == 0 {
		return nil
	}
	return sortedKeys(set)
}

// Pairs returns every recorded affinity in canonical order: by From, then
// by To. Each pair is packed into one integer, From in the high half, so a
// single sort of plain integers orders them, faster than sorting the pairs
// through a comparison function.
func (m *Map) Pairs() []Pair {
	if m.count == 0 {
		return nil
	}
	keys := make([]uint32, 0, m.count)
	for t1, set := range m.m {
		for t2 := range set {
			keys = append(keys, uint32(t1)<<16|uint32(t2))
		}
	}
	slices.Sort(keys)
	out := make([]Pair, len(keys))
	for i, k := range keys {
		out[i] = Pair{From: sqlt.Type(k >> 16), To: sqlt.Type(k)}
	}
	return out
}

// Merge folds every affinity of other into m, returning the pairs that were
// new to m in canonical (sorted) order — the cross-pollination primitive of
// the sharded executor's epoch barrier. Merging is commutative in the final
// pair set; the returned fresh list is deterministic because Pairs returns
// sorted pairs.
func (m *Map) Merge(other *Map) []Pair {
	var fresh []Pair
	for _, p := range other.Pairs() {
		if m.Add(p.From, p.To) {
			fresh = append(fresh, p)
		}
	}
	return fresh
}

// Analyze implements Algorithm 2: it parses the SQL Type Sequence of a test
// case and folds every adjacent-pair affinity into the map, returning the
// pairs that were new. Adjacent duplicates are skipped.
func (m *Map) Analyze(seq sqlt.Sequence) []Pair {
	var fresh []Pair
	last := sqlt.Invalid
	for _, cur := range seq {
		if last != sqlt.Invalid {
			if last == cur {
				last = cur
				continue
			}
			if m.Add(last, cur) {
				fresh = append(fresh, Pair{From: last, To: cur})
			}
		}
		last = cur
	}
	return fresh
}

// Tally counts the distinct affinities present in a sequence without
// mutating any map — used to score corpora for the Table II comparison.
func Tally(seqs []sqlt.Sequence) int {
	m := NewMap()
	for _, s := range seqs {
		m.Analyze(s)
	}
	return m.Count()
}
