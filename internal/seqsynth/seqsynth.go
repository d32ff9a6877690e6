// Package seqsynth implements progressive sequence synthesis (paper §III-B,
// Algorithm 3). When a new type-affinity t1 -> t2 is discovered, exactly the
// new SQL Type Sequences containing that affinity — no longer than LEN — are
// enumerated, using the Prefix Sequence index: a map from (ending type,
// length) to the indexes of already-generated sequences.
package seqsynth

import (
	"slices"

	"github.com/seqfuzz/lego/internal/affinity"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// psKey is the (τ, λ) key of the Prefix Sequence map.
type psKey struct {
	end sqlt.Type
	len int
}

// Synthesizer incrementally enumerates SQL Type Sequences from a growing
// affinity map.
type Synthesizer struct {
	// LEN is the maximum sequence length (the paper evaluates 3/5/8 in §VI;
	// 5 is the default).
	LEN int
	// MaxPerAffinity caps how many new sequences one affinity may yield,
	// bounding the state explosion of challenge C1.
	MaxPerAffinity int

	aff    *affinity.Map
	s      []sqlt.Sequence // vector S of all generated sequences
	ps     map[psKey][]int // Prefix Sequence index
	starts map[sqlt.Type]bool
	// rot rotates the successor enumeration start point so successive
	// affinities explore different regions of the sequence tree instead of
	// always descending into the lexicographically first subtree.
	rot int
}

// New returns a synthesizer over the given affinity map.
func New(aff *affinity.Map, maxLen int) *Synthesizer {
	if maxLen < 2 {
		maxLen = 2
	}
	return &Synthesizer{
		LEN:            maxLen,
		MaxPerAffinity: 256,
		aff:            aff,
		ps:             map[psKey][]int{},
		starts:         map[sqlt.Type]bool{},
	}
}

// AddStart registers a starting statement type (paper: "beginning from
// specific starting statement types (e.g., CREATE TABLE)"). Each start type
// seeds a length-1 prefix sequence.
func (sy *Synthesizer) AddStart(t sqlt.Type) {
	if !t.Valid() || sy.starts[t] {
		return
	}
	sy.starts[t] = true
	sy.record(sqlt.Sequence{t})
}

// NumSequences returns how many sequences have been generated in total.
func (sy *Synthesizer) NumSequences() int { return len(sy.s) }

// State is the synthesizer's serializable state. The Prefix Sequence index
// is derived from Seqs, so only the sequence vector, the start-type set,
// and the rotation counter need to travel.
type State struct {
	Seqs   []sqlt.Sequence
	Starts []sqlt.Type
	Rot    int
}

// Export snapshots the synthesizer for checkpointing. Seqs shares the
// generated sequences with the synthesizer instead of cloning them: every
// sequence is immutable once built, so the view stays valid as synthesis
// continues, but callers must not write through it. Starts are sorted so
// identical campaigns produce byte-identical snapshots (the set's order
// never influences synthesis, only its serialization). No sequences or no
// starts export as nil, which checkpoints encode as JSON null.
func (sy *Synthesizer) Export() State {
	st := State{Seqs: sy.s[:len(sy.s):len(sy.s)], Rot: sy.rot}
	if len(sy.starts) > 0 {
		st.Starts = make([]sqlt.Type, 0, len(sy.starts))
	}
	for t := range sy.starts {
		st.Starts = append(st.Starts, t)
	}
	slices.Sort(st.Starts)
	return st
}

// Import replaces the synthesizer's state with a previously exported
// snapshot, rebuilding the Prefix Sequence index by replaying the sequence
// vector in order.
func (sy *Synthesizer) Import(st State) {
	sy.s = nil
	sy.ps = map[psKey][]int{}
	sy.starts = map[sqlt.Type]bool{}
	sy.rot = st.Rot
	for _, t := range st.Starts {
		sy.starts[t] = true
	}
	for _, seq := range st.Seqs {
		if len(seq) > 0 {
			sy.record(seq.Clone())
		}
	}
}

// record appends a sequence to S and indexes it in PS. S keeps seq itself,
// which nothing writes afterwards.
func (sy *Synthesizer) record(seq sqlt.Sequence) int {
	idx := len(sy.s)
	sy.s = append(sy.s, seq)
	k := psKey{end: seq[len(seq)-1], len: len(seq)}
	sy.ps[k] = append(sy.ps[k], idx)
	return idx
}

// OnNewAffinity implements Algorithm 3. Given the newly discovered affinity
// t1 -> t2, it synthesizes every new sequence of length <= LEN containing
// the affinity and returns them. Because t1 -> t2 is new, all sequences
// generated through it are new. The returned sequences are the ones S
// holds: sequences are immutable, and callers must not write them.
func (sy *Synthesizer) OnNewAffinity(t1, t2 sqlt.Type) []sqlt.Sequence {
	var out []sqlt.Sequence
	emit := func(seq sqlt.Sequence) bool {
		if len(out) >= sy.MaxPerAffinity {
			return false
		}
		out = append(out, seq)
		return true
	}

	for level := 1; level <= sy.LEN-1; level++ {
		// record() only indexes sequences longer than level, so this list
		// does not change while it is walked
		for _, seqIndex := range sy.ps[psKey{end: t1, len: level}] {
			seq := extend(sy.s[seqIndex], t2)
			sy.record(seq)
			if !emit(seq) {
				return out
			}
			if !sy.listSeq(level+1, t2, seq, emit) {
				return out
			}
		}
	}
	return out
}

// listSeq recursively extends seq (currently ending at nodeType with the
// given level) by every known affinity successor, recording and emitting
// each extension (Algorithm 3, lines 14-25).
func (sy *Synthesizer) listSeq(level int, nodeType sqlt.Type, seq sqlt.Sequence, emit func(sqlt.Sequence) bool) bool {
	if level >= sy.LEN {
		return true
	}
	succ := sy.aff.Successors(nodeType)
	sy.rot++
	for i := range succ {
		nextType := succ[(i+sy.rot)%len(succ)]
		ext := extend(seq, nextType)
		if !sy.listSeq(level+1, nextType, ext, emit) {
			return false
		}
		sy.record(ext)
		if !emit(ext) {
			return false
		}
	}
	return true
}

// extend returns a new sequence, seq followed by t, of capacity len(seq)+1.
func extend(seq sqlt.Sequence, t sqlt.Type) sqlt.Sequence {
	ext := make(sqlt.Sequence, len(seq)+1)
	ext[copy(ext, seq)] = t
	return ext
}
