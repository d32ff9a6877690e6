package instantiate

import (
	"math/rand"

	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Library is the global AST structure store of paper §III-B: "when finding a
// new seed, LEGO parses each of its statements to extract AST structures and
// saves them into the global library. In instantiation, for each entry in
// the SQL Type Sequence, LEGO randomly selects a type-matched structure."
type Library struct {
	// byType[t] holds type t's structures, indexed by type since pick runs
	// for every instantiated statement.
	byType [][]entry
	// MaxPerType bounds memory; older structures are evicted FIFO.
	MaxPerType int
}

// entry is a stored structure and the SQL it rendered to when harvested,
// kept so the duplicate check compares text without re-rendering.
type entry struct {
	stmt sqlast.Statement
	sql  string
}

// NewLibrary returns an empty structure library.
func NewLibrary() *Library {
	return &Library{byType: make([][]entry, sqlt.NumTypes+1), MaxPerType: 64}
}

// Harvest stores every statement of the test case, keyed by type. Stored
// statements are the harvested case's own, not copies, and are frozen from
// then on: nothing writes a pool seed's or library entry's statement (the
// mutator clones a statement before it changes it, and the fixer copies
// the nodes it repairs), so an entry's text stays its statement's
// rendering, and the entries can be handed out as they are
// (Instantiator.Statement).
func (l *Library) Harvest(tc sqlast.TestCase) {
	for _, s := range tc {
		t := s.Type()
		bucket := l.byType[t]
		// skip exact duplicates of the most recent few entries
		sql := s.SQL()
		dup := false
		for i := len(bucket) - 1; i >= 0 && i >= len(bucket)-4; i-- {
			if bucket[i].sql == sql {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		bucket = append(bucket, entry{s, sql})
		if len(bucket) > l.MaxPerType {
			bucket = bucket[len(bucket)-l.MaxPerType:]
		}
		l.byType[t] = bucket
	}
}

// Pick returns a fresh clone of a random stored structure of type t, or nil
// when the library has none.
func (l *Library) Pick(rng *rand.Rand, t sqlt.Type) sqlast.Statement {
	if s := l.pick(rng, t); s != nil {
		return s.Clone()
	}
	return nil
}

// pick is Pick without the clone: it returns the stored structure itself,
// which may be kept but is frozen: the caller changes only a copy.
func (l *Library) pick(rng *rand.Rand, t sqlt.Type) sqlast.Statement {
	if int(t) >= len(l.byType) || len(l.byType[t]) == 0 {
		return nil
	}
	bucket := l.byType[t]
	return bucket[rng.Intn(len(bucket))].stmt
}

// Size returns the total number of stored structures.
func (l *Library) Size() int {
	n := 0
	for _, b := range l.byType {
		n += len(b)
	}
	return n
}

// TypesCovered returns how many statement types have at least one structure.
func (l *Library) TypesCovered() int {
	n := 0
	for _, b := range l.byType {
		if len(b) > 0 {
			n++
		}
	}
	return n
}
