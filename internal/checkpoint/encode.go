package checkpoint

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// This file is the checkpoint's encoder: it appends a State's JSON form to
// a buffer, byte for byte what json.Marshal writes for it, without
// reflection, field by field in declaration order. Seeds carrying an Entry
// are copied in as encoded. FuzzEncodeMatchesMarshal and
// TestEncodeMatchesMarshalOnCampaigns hold the encoder to json.Marshal.

// AppendState appends st's JSON encoding to dst. The only error is
// json.Marshal's for a value it cannot encode (a NaN or infinite fault or
// chaos rate); dst is then returned as it was.
func AppendState(dst []byte, st *State) ([]byte, error) {
	b := appendInt(append(dst, `{"version":`...), int64(st.Version))
	b = appendInt(append(b, `,"dialect":`...), int64(st.Dialect))
	b = appendInt(append(b, `,"seed":`...), st.Seed)
	b = appendInt(append(b, `,"max_len":`...), int64(st.MaxLen))
	if st.DisableSequenceAlgorithms {
		b = append(b, `,"disable_sequence_algorithms":true`...)
	}
	if st.DisableHazards {
		b = append(b, `,"disable_hazards":true`...)
	}
	if st.SplitLongSeeds {
		b = append(b, `,"split_long_seeds":true`...)
	}
	if st.FaultRate != 0 {
		var err error
		if b, err = appendFloat(append(b, `,"fault_rate":`...), st.FaultRate); err != nil {
			return dst, err
		}
	}
	b = appendInt(append(b, `,"workers":`...), int64(st.Workers))
	if st.EpochStmts != 0 {
		b = appendInt(append(b, `,"epoch_stmts":`...), int64(st.EpochStmts))
	}
	if st.Epoch != 0 {
		b = appendInt(append(b, `,"epoch":`...), int64(st.Epoch))
	}
	b = appendInt(append(b, `,"execs":`...), int64(st.Execs))
	b = appendInt(append(b, `,"stmts":`...), int64(st.Stmts))
	b = appendArray(append(b, `,"crashes":`...), st.Crashes, appendCrash)
	b = appendArray(append(b, `,"seeds":`...), st.Seeds, func(b []byte, s *Seed) []byte { return AppendSeed(b, *s) })
	b = appendArray(append(b, `,"coverage":`...), st.Coverage, func(b []byte, e *Edge) []byte {
		b = appendInt(append(b, `{"i":`...), int64(e.Idx))
		return append(appendInt(append(b, `,"m":`...), int64(e.Mask)), '}')
	})
	if st.ChaosRate != 0 {
		var err error
		if b, err = appendFloat(append(b, `,"chaos_rate":`...), st.ChaosRate); err != nil {
			return dst, err
		}
	}
	if st.ChaosSeed != 0 {
		b = appendInt(append(b, `,"chaos_seed":`...), st.ChaosSeed)
	}
	if st.MaxEpochRetries != 0 {
		b = appendInt(append(b, `,"max_epoch_retries":`...), int64(st.MaxEpochRetries))
	}
	if len(st.Incidents) > 0 {
		b = appendArray(append(b, `,"incidents":`...), st.Incidents, appendIncident)
	}
	b = appendArray(append(b, `,"shards":`...), st.Shards, appendShard)
	return append(b, '}'), nil
}

// AppendSeed appends s's JSON object to dst: Entry when s carries one, the
// encoded fields otherwise.
func AppendSeed(dst []byte, s Seed) []byte {
	if s.Entry != "" {
		return append(dst, s.Entry...)
	}
	dst = appendString(append(dst, `{"sql":`...), s.SQL)
	dst = appendInt(append(dst, `,"new_edges":`...), int64(s.NewEdges))
	if s.Split {
		dst = append(dst, `,"split":true`...)
	}
	return append(dst, '}')
}

func appendCrash(b []byte, c *Crash) []byte {
	b = appendString(append(b, `{"id":`...), c.ID)
	b = appendString(append(b, `,"component":`...), c.Component)
	b = appendString(append(b, `,"kind":`...), c.Kind)
	b = appendArray(append(b, `,"stack":`...), c.Stack, func(b []byte, f *string) []byte { return appendString(b, *f) })
	if len(c.Window) > 0 {
		b = appendInts(append(b, `,"window":`...), c.Window)
	}
	b = appendString(append(b, `,"reproducer":`...), c.Reproducer)
	b = appendInt(append(b, `,"found_at_exec":`...), int64(c.FoundAtExec))
	b = appendInt(append(b, `,"hits":`...), int64(c.Hits))
	if c.Status != "" {
		b = appendString(append(b, `,"status":`...), c.Status)
	}
	if c.OriginalLen != 0 {
		b = appendInt(append(b, `,"original_len":`...), int64(c.OriginalLen))
	}
	if c.MinimizedLen != 0 {
		b = appendInt(append(b, `,"minimized_len":`...), int64(c.MinimizedLen))
	}
	if c.Replays != 0 {
		b = appendInt(append(b, `,"replays":`...), int64(c.Replays))
	}
	return append(b, '}')
}

func appendIncident(b []byte, in *Incident) []byte {
	b = appendInt(append(b, `{"epoch":`...), int64(in.Epoch))
	b = appendInt(append(b, `,"shard":`...), int64(in.Shard))
	b = appendString(append(b, `,"kind":`...), in.Kind)
	b = appendInt(append(b, `,"retries":`...), int64(in.Retries))
	b = appendString(append(b, `,"outcome":`...), in.Outcome)
	if in.Detail != "" {
		b = appendString(append(b, `,"detail":`...), in.Detail)
	}
	return append(b, '}')
}

func appendShard(b []byte, sh *Shard) []byte {
	b = appendInt(append(b, `{"execs":`...), int64(sh.Execs))
	b = appendInt(append(b, `,"stmts":`...), int64(sh.Stmts))
	b = appendInt(append(b, `,"engine_panics":`...), int64(sh.EnginePanics))
	b = strconv.AppendUint(append(b, `,"rng":`...), sh.RNG, 10)
	b = appendInts(append(b, `,"pool":`...), sh.Pool)
	b = appendInts(append(b, `,"picked":`...), sh.Picked)
	b = appendArray(append(b, `,"affinity":`...), sh.Affinity, appendPair)
	b = appendArray(append(b, `,"gen_affinity":`...), sh.GenAffinity, appendPair)
	b = appendArray(append(b, `,"synth_seqs":`...), sh.SynthSeqs, func(b []byte, seq *[]uint16) []byte { return appendInts(b, *seq) })
	b = appendInts(append(b, `,"synth_starts":`...), sh.SynthStarts)
	b = appendInt(append(b, `,"synth_rot":`...), int64(sh.SynthRot))
	b = appendArray(append(b, `,"pending":`...), sh.Pending, appendPair)
	if sh.Quarantined {
		b = append(b, `,"quarantined":true`...)
	}
	if sh.Retries != 0 {
		b = appendInt(append(b, `,"retries":`...), int64(sh.Retries))
	}
	return append(b, '}')
}

func appendPair(b []byte, p *[2]uint16) []byte {
	b = appendInt(append(b, '['), int64(p[0]))
	return append(appendInt(append(b, ','), int64(p[1])), ']')
}

// appendArray appends xs as a JSON array, each element by elem, or null for
// a nil slice.
func appendArray[T any](b []byte, xs []T, elem func([]byte, *T) []byte) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, &xs[i])
	}
	return append(b, ']')
}

// appendInts appends a JSON array of integers, or null for a nil slice: an
// appendArray for the longest sections, without a call per element.
func appendInts[T int | uint16](b []byte, xs []T) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, int64(x))
	}
	return append(b, ']')
}

// appendInt appends x in decimal. Statement type codes, most of what a
// checkpoint holds, are below 100 and take the fast path.
func appendInt(b []byte, x int64) []byte {
	switch {
	case x >= 0 && x < 10:
		return append(b, byte('0'+x))
	case x >= 10 && x < 100:
		return append(b, byte('0'+x/10), byte('0'+x%10))
	}
	return strconv.AppendInt(b, x, 10)
}

// appendFloat appends f as json.Marshal formats a float64: like %g, but in
// plain notation from 1e-6 up to 1e21 and with exponents unpadded. It
// returns json.Marshal's error for NaN and the infinities.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string the way json.Marshal does:
// quotes, backslashes and control characters escaped (\b, \f, \n, \r and
// \t in short form), <, > and & escaped for HTML, each invalid UTF-8 byte
// replaced by \ufffd, and U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
