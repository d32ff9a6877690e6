package minidb

import "bytes"

// keySet numbers distinct row keys (RowKey's bytes) in the order they are
// first added, without building a string per key: the keys sit back to
// back in one buffer and are chained by hash. DISTINCT, set operations,
// GROUP BY, window partitions and DISTINCT aggregates use one from their
// evaluation scratch; once its buffers have grown, adding and finding keys
// allocate nothing.
type keySet struct {
	buf   []byte
	ends  []int            // key i is buf[ends[i-1]:ends[i]] (from 0 for i = 0)
	prev  []int            // the key added before i with the same hash, or -1
	heads map[uint64]int32 // hash → the last key added with it, plus 1
}

// reset empties the set, keeping its storage.
func (s *keySet) reset() {
	s.buf, s.ends, s.prev = s.buf[:0], s.ends[:0], s.prev[:0]
	if s.heads == nil {
		s.heads = map[uint64]int32{}
	}
	clear(s.heads)
}

// add returns the number of vals' key, adding it when absent (added).
func (s *keySet) add(vals ...Value) (n int, added bool) {
	start := len(s.buf)
	s.buf = appendRowKey(s.buf, vals)
	h := hashKey(s.buf[start:])
	if n = s.lookup(h, start); n >= 0 {
		s.buf = s.buf[:start]
		return n, false
	}
	s.prev = append(s.prev, int(s.heads[h])-1)
	s.ends = append(s.ends, len(s.buf))
	s.heads[h] = int32(len(s.ends))
	return len(s.ends) - 1, true
}

// has reports whether vals' key is in the set.
func (s *keySet) has(vals ...Value) bool {
	start := len(s.buf)
	s.buf = appendRowKey(s.buf, vals)
	found := s.lookup(hashKey(s.buf[start:]), start) >= 0
	s.buf = s.buf[:start]
	return found
}

// lookup returns the number of the key equal to buf[start:], whose hash is
// h, or -1.
func (s *keySet) lookup(h uint64, start int) int {
	key := s.buf[start:]
	for n := int(s.heads[h]) - 1; n >= 0; n = s.prev[n] {
		from := 0
		if n > 0 {
			from = s.ends[n-1]
		}
		if bytes.Equal(s.buf[from:s.ends[n]], key) {
			return n
		}
	}
	return -1
}

// hashKey is FNV-1a over a key's bytes.
func hashKey(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
