// Package affinity implements type-affinity analysis (paper §III-A,
// Algorithm 2). A type-affinity is the partially ordered tuple
// (type1, type2): statements of type1 can meaningfully be followed by
// statements of type2. Affinities are harvested from the SQL Type Sequences
// of test cases that covered new branches, and drive progressive sequence
// synthesis (package seqsynth).
package affinity

import (
	"math/bits"

	"github.com/seqfuzz/lego/internal/sqlt"
)

// Pair is one type-affinity (t1 could be followed by t2).
type Pair struct {
	From sqlt.Type
	To   sqlt.Type
}

// String renders the affinity in arrow notation.
func (p Pair) String() string { return p.From.String() + " -> " + p.To.String() }

// words is the number of 64-bit words in one row of a Map: one bit per
// statement type, Invalid included.
const words = (sqlt.NumTypes + 64) / 64

// Map is the type-affinity map T of Algorithm 2: key statement type ->
// set of statement types that may follow it. It is a fixed bit matrix over
// the statement types, row t1 holding t2's bit when t1 -> t2 is recorded,
// so every walk over it (Pairs, Successors, Merge) visits pairs in
// canonical order, by From and then by To, without sorting. The zero value
// is an empty map.
type Map struct {
	rows  [sqlt.NumTypes + 1][words]uint64
	count int
}

// NewMap returns an empty affinity map.
func NewMap() *Map { return &Map{} }

// Add records the affinity t1 -> t2, returning true when it is new.
// Self-affinities (t1 == t2) are rejected, as in Algorithm 2 lines 5-7:
// "composing only one type does not contribute much to the abundance".
func (m *Map) Add(t1, t2 sqlt.Type) bool {
	if t1 == t2 || !t1.Valid() || !t2.Valid() {
		return false
	}
	w, bit := &m.rows[t1][t2/64], uint64(1)<<(t2%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	m.count++
	return true
}

// Has reports whether the affinity t1 -> t2 is recorded.
func (m *Map) Has(t1, t2 sqlt.Type) bool {
	return t1.Valid() && t2.Valid() && m.rows[t1][t2/64]&(uint64(1)<<(t2%64)) != 0
}

// Count returns the number of distinct affinities (the Table II metric).
func (m *Map) Count() int { return m.count }

// appendRow appends the pairs from -> t for every t set in row, ascending.
func appendRow(out []Pair, from sqlt.Type, row *[words]uint64) []Pair {
	for w, bitsLeft := range row {
		for ; bitsLeft != 0; bitsLeft &= bitsLeft - 1 {
			out = append(out, Pair{From: from, To: sqlt.Type(w*64 + bits.TrailingZeros64(bitsLeft))})
		}
	}
	return out
}

// Successors returns the recorded follow-set of t in ascending order, nil
// when it is empty.
func (m *Map) Successors(t sqlt.Type) []sqlt.Type {
	if !t.Valid() {
		return nil
	}
	row := &m.rows[t]
	n := 0
	for _, w := range row {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil
	}
	out := make([]sqlt.Type, 0, n)
	for w, bitsLeft := range row {
		for ; bitsLeft != 0; bitsLeft &= bitsLeft - 1 {
			out = append(out, sqlt.Type(w*64+bits.TrailingZeros64(bitsLeft)))
		}
	}
	return out
}

// Pairs returns every recorded affinity in canonical order: by From, then
// by To.
func (m *Map) Pairs() []Pair {
	if m.count == 0 {
		return nil
	}
	out := make([]Pair, 0, m.count)
	for t := range m.rows {
		out = appendRow(out, sqlt.Type(t), &m.rows[t])
	}
	return out
}

// Merge folds every affinity of other into m, returning the pairs that were
// new to m in canonical order — the cross-pollination primitive of the
// sharded executor's epoch barrier. It ORs other's rows into m's; merging
// is commutative in the final pair set.
func (m *Map) Merge(other *Map) []Pair {
	var fresh []Pair
	for t := range m.rows {
		var add [words]uint64
		for w := range add {
			add[w] = other.rows[t][w] &^ m.rows[t][w]
			m.rows[t][w] |= add[w]
			m.count += bits.OnesCount64(add[w])
		}
		fresh = appendRow(fresh, sqlt.Type(t), &add)
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
