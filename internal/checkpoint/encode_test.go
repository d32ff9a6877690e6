package checkpoint

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"github.com/seqfuzz/lego/internal/sqlt"
)

// stream draws a State's values from fuzz bytes; an exhausted stream
// yields zeros, so every input builds a state.
type stream []byte

func (s *stream) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// int draws an integer of 0 to 8 bytes, negated on an odd first byte, so
// zero, small and extreme values all occur.
func (s *stream) int() int64 {
	head := s.byte()
	var v uint64
	for i := 0; i < int(head>>1)%9; i++ {
		v = v<<8 | uint64(s.byte())
	}
	if head&1 == 1 {
		return -int64(v)
	}
	return int64(v)
}

// str draws up to 31 raw bytes: quotes, escapes, control bytes, <, >, &,
// U+2028 and invalid UTF-8 all come straight from the input.
func (s *stream) str() string {
	n := int(s.byte() % 32)
	if n > len(*s) {
		n = len(*s)
	}
	out := string((*s)[:n])
	*s = (*s)[n:]
	return out
}

// count draws a section length: -1 for a nil section, else 0 to 6.
func (s *stream) count() int { return int(s.byte()%8) - 1 }

// slice returns a nil slice for count -1 and an empty or filled one
// otherwise, so nil and empty sections both occur.
func slice[T any](s *stream, draw func() T) []T {
	n := s.count()
	if n < 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = draw()
	}
	return out
}

func (s *stream) typ() sqlt.Type { return sqlt.Type(s.int()) }

func (s *stream) pair() [2]sqlt.Type { return [2]sqlt.Type{s.typ(), s.typ()} }

// buildState draws a State covering every field, with zero and non-zero
// omitempty fields, seeds with and without a cached Entry, and rate as its
// chaos rate, its fault rate, both or neither. It fails t if a seed's Entry
// differs from json.Marshal of its fields.
func buildState(t *testing.T, s *stream, rate float64) *State {
	flags := s.byte()
	st := &State{
		Version:                   int(s.int()),
		Dialect:                   sqlt.Dialect(s.byte()),
		Seed:                      s.int(),
		MaxLen:                    int(s.int()),
		DisableSequenceAlgorithms: flags&1 != 0,
		DisableHazards:            flags&2 != 0,
		SplitLongSeeds:            flags&4 != 0,
		Workers:                   int(s.int()),
		EpochStmts:                int(s.int()),
		Epoch:                     int(s.int()),
		Execs:                     int(s.int()),
		Stmts:                     int(s.int()),
		ChaosSeed:                 s.int(),
		MaxEpochRetries:           int(s.int()),
	}
	if flags&8 == 0 {
		st.ChaosRate = rate
	}
	if flags&16 != 0 {
		st.FaultRate = rate
	}
	st.Crashes = slice(s, func() Crash {
		return Crash{
			ID: s.str(), Component: s.str(), Kind: s.str(),
			Stack:      slice(s, s.str),
			Window:     slice(s, s.typ),
			Reproducer: s.str(), FoundAtExec: int(s.int()), Hits: int(s.int()),
			Status: s.str(), OriginalLen: int(s.int()), MinimizedLen: int(s.int()), Replays: int(s.int()),
		}
	})
	st.Seeds = slice(s, func() Seed {
		sd := Seed{SQL: s.str(), NewEdges: int(s.int()), Split: s.byte()&1 == 1}
		if s.byte()&1 == 1 {
			// The form a snapshot carries: the entry alone, which must be
			// json.Marshal's bytes for the fields.
			want, err := json.Marshal(sd)
			if err != nil {
				t.Fatal(err)
			}
			sd = Seed{NewEdges: sd.NewEdges, Split: sd.Split, Entry: string(AppendSeed(nil, sd))}
			if sd.Entry != string(want) {
				t.Fatalf("seed entry differs from json.Marshal\ngot  %q\nwant %q", sd.Entry, want)
			}
		}
		return sd
	})
	st.Coverage = slice(s, func() Edge { return Edge{uint32(s.int()), s.byte()} })
	st.Incidents = slice(s, func() Incident {
		return Incident{int(s.int()), int(s.int()), s.str(), int(s.int()), s.str(), s.str()}
	})
	st.Shards = slice(s, func() Shard {
		return Shard{
			Execs: int(s.int()), Stmts: int(s.int()), EnginePanics: int(s.int()),
			RNG:         uint64(s.int()),
			Pool:        slice(s, func() int { return int(s.int()) }),
			Picked:      slice(s, func() int { return int(s.int()) }),
			Affinity:    slice(s, s.pair),
			GenAffinity: slice(s, s.pair),
			SynthSeqs:   slice(s, func() sqlt.Sequence { return slice(s, s.typ) }),
			SynthStarts: slice(s, s.typ),
			SynthRot:    int(s.int()),
			Pending:     slice(s, s.pair),
			Quarantined: s.byte()&1 == 1,
			Retries:     int(s.int()),
		}
	})
	return st
}

// checkEncoding fails unless AppendState writes exactly what json.Marshal
// does for st, failing where it fails, and every cached seed entry decodes
// to the seed's fields.
func checkEncoding(t *testing.T, st *State) {
	t.Helper()
	want, werr := json.Marshal(st)
	prefix := []byte("prefix")
	got, gerr := AppendState(prefix, st)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("json.Marshal error %v, AppendState error %v", werr, gerr)
	}
	if werr != nil {
		if gerr.Error() != werr.Error() || !bytes.Equal(got, prefix) {
			t.Fatalf("AppendState failed with %q and %q appended, json.Marshal with %q", gerr, got[len(prefix):], werr)
		}
		return
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendState differs from json.Marshal\ngot  %q\nwant %q", got[len(prefix):], want)
	}
	for i, s := range st.Seeds {
		if s.Entry == "" {
			continue
		}
		var f Seed
		if err := json.Unmarshal([]byte(s.Entry), &f); err != nil {
			t.Fatalf("seed %d: entry %q does not decode: %v", i, s.Entry, err)
		}
		if f.NewEdges != s.NewEdges || f.Split != s.Split {
			t.Fatalf("seed %d: entry %q disagrees with its fields %+v", i, s.Entry, s)
		}
	}
}

// FuzzEncodeMatchesMarshal: for any State, the checkpoint encoder must
// write json.Marshal's bytes: null for nil slices, omitted zero omitempty
// fields, HTML-escaped strings with U+2028, U+2029, control bytes and
// invalid UTF-8 escaped as json.Marshal does, and json.Marshal's float
// formatting and error for the fault and chaos rates. A seed's cached entry is built
// by AppendSeed from the same fields, the way corpus.Seed builds it, so
// its bytes are held to json.Marshal too.
//
// Plain `go test` runs the seeds; `make selffuzz` searches for 15 s.
func FuzzEncodeMatchesMarshal(f *testing.F) {
	f.Add([]byte{}, 0.0)
	f.Add([]byte("\x03\x05\x07\x01\x02\x03"), 0.1)
	for _, rate := range []float64{1e-7, 1e21, 1e20, 1.5e-300, -0.0, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.05, math.NaN(), math.Inf(1)} {
		in := []byte{2, 1, 3, 4}
		for i := 0; i < 40; i++ {
			in = append(in, byte(i*37), byte(len(hostile)))
			in = append(in, hostile...)
		}
		f.Add(in, rate)
	}
	f.Fuzz(func(t *testing.T, data []byte, rate float64) {
		s := stream(data)
		checkEncoding(t, buildState(t, &s, rate))
	})
}

// hostile holds every class of character json.Marshal escapes: HTML
// characters, U+2028 and U+2029, control bytes with and without a short
// escape, a quote and a backslash, invalid UTF-8 (a lone byte, a truncated
// sequence) next to valid multi-byte runes.
const hostile = "<a>&\u2028\u2029\x00\x01\x08\x0c\n\r\t\x1f\"\\\xff\xc3(\xe2\x82\xf0\x9f\x98\x80\u00e9"

// TestEncodeSample pins the encoder on the hand-built sample state with
// hostile strings, a seed carrying only its entry, and every omitempty
// field set and unset.
func TestEncodeSample(t *testing.T) {
	st := sample()
	st.Seeds[0].SQL = hostile
	st.Crashes[0].Reproducer, st.Crashes[0].Stack[0] = hostile, hostile
	st.Crashes = append(st.Crashes, Crash{ID: "x", Window: sqlt.Sequence{}, Status: "s", OriginalLen: 1, MinimizedLen: 1, Replays: 1})
	checkEncoding(t, st)
	want, err := json.Marshal(st.Seeds[1])
	if err != nil {
		t.Fatal(err)
	}
	st.Seeds[1] = Seed{NewEdges: 1, Split: true, Entry: string(AppendSeed(nil, st.Seeds[1]))}
	if st.Seeds[1].Entry != string(want) {
		t.Fatalf("entry %q, json.Marshal %q", st.Seeds[1].Entry, want)
	}
	st.Seeds = append(st.Seeds, Seed{Entry: string(AppendSeed(nil, Seed{SQL: hostile}))})
	st.ChaosRate, st.ChaosSeed, st.MaxEpochRetries = 0.25, 7, 3
	st.Incidents = []Incident{{Epoch: 1, Shard: 0, Kind: "WORKER_PANIC", Retries: 1, Outcome: "RETRIED"}}
	st.Shards[0].Quarantined, st.Shards[0].Retries = true, 2
	checkEncoding(t, st)
	st.DisableSequenceAlgorithms, st.DisableHazards, st.SplitLongSeeds, st.FaultRate = true, true, true, 0.002
	checkEncoding(t, st)
	st.Crashes, st.Seeds, st.Shards = nil, []Seed{}, nil
	checkEncoding(t, st)
	// Every section empty but not nil, and a worker entry all nil.
	st.Crashes, st.Seeds, st.Coverage = []Crash{}, nil, []Edge{}
	st.Shards = []Shard{{Pool: []int{}, Picked: []int{}, Affinity: [][2]sqlt.Type{}, GenAffinity: [][2]sqlt.Type{},
		SynthSeqs: []sqlt.Sequence{nil, {}}, SynthStarts: sqlt.Sequence{}, Pending: [][2]sqlt.Type{}}, {}}
	checkEncoding(t, st)
	st.Shards = []Shard{}
	checkEncoding(t, st)
}

// TestSeqsEncoderMatchesMarshal: fed a vector that grows, nil and empty
// sequences included, a SeqsEncoder returns json.Marshal's array less its
// closing bracket at every length, later calls leave earlier results as
// they were, and AppendState copies the result in for SynthSeqs.
func TestSeqsEncoderMatchesMarshal(t *testing.T) {
	var enc SeqsEncoder
	if got := enc.Encode(nil); got != nil {
		t.Fatalf("a nil vector encodes as %q, want nil (AppendState writes null)", got)
	}
	seqs := []sqlt.Sequence{}
	var got, want [][]byte
	for i := range 40 {
		w, err := json.Marshal(seqs)
		if err != nil {
			t.Fatal(err)
		}
		got, want = append(got, enc.Encode(seqs)), append(want, w)
		switch i % 4 {
		case 0:
			seqs = append(seqs, sqlt.Sequence{sqlt.Type(i), sqlt.Type(100 + i)})
		case 1:
			seqs = append(seqs, nil, sqlt.Sequence{})
		case 2:
			seqs = append(seqs, sqlt.Sequence{sqlt.Type(i)}, sqlt.Sequence{1, 2, 3}, sqlt.Sequence{sqlt.Type(1000 * i)})
		}
	}
	for i := range got {
		if g := append(bytes.Clone(got[i]), ']'); !bytes.Equal(g, want[i]) {
			t.Fatalf("length %d: encoded %q, json.Marshal %q", i, g, want[i])
		}
	}
	checkEncoding(t, &State{Shards: []Shard{{SynthSeqs: seqs, SynthSeqsJSON: enc.Encode(seqs)}}})
}
