package instantiate

import (
	"math/rand"

	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Library is the global AST structure store of paper §III-B: "when finding a
// new seed, LEGO parses each of its statements to extract AST structures and
// saves them into the global library. In instantiation, for each entry in
// the SQL Type Sequence, LEGO randomly selects a type-matched structure."
type Library struct {
	byType map[sqlt.Type][]sqlast.Statement
	// MaxPerType bounds memory; older structures are evicted FIFO.
	MaxPerType int
}

// NewLibrary returns an empty structure library.
func NewLibrary() *Library {
	return &Library{byType: map[sqlt.Type][]sqlast.Statement{}, MaxPerType: 64}
}

// Harvest stores every statement of the test case, keyed by type. Stored
// statements are canonical aliases of the harvested case, not copies: the
// fuzz loop never mutates a statement in place (mutation always operates on
// fresh clones), so the library only has to clone on the way out (Pick).
func (l *Library) Harvest(tc sqlast.TestCase) {
	for _, s := range tc {
		t := s.Type()
		bucket := l.byType[t]
		// skip exact duplicates of the most recent few entries
		sql := s.SQL()
		dup := false
		for i := len(bucket) - 1; i >= 0 && i >= len(bucket)-4; i-- {
			if bucket[i].SQL() == sql {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		bucket = append(bucket, s)
		if len(bucket) > l.MaxPerType {
			bucket = bucket[len(bucket)-l.MaxPerType:]
		}
		l.byType[t] = bucket
	}
}

// Pick returns a fresh clone of a random stored structure of type t, or nil
// when the library has none.
func (l *Library) Pick(rng *rand.Rand, t sqlt.Type) sqlast.Statement {
	bucket := l.byType[t]
	if len(bucket) == 0 {
		return nil
	}
	return sqlparse.CloneStatement(bucket[rng.Intn(len(bucket))])
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
