package core

import (
	"fmt"

	"github.com/seqfuzz/lego/internal/affinity"
	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/corpus"
	"github.com/seqfuzz/lego/internal/seqsynth"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// This file converts a worker's live state to and from checkpoint form.
// SnapshotShard must be taken at a Step boundary (the campaign executor
// snapshots only at epoch barriers): everything the fuzzing loop reads —
// affinities, synthesizer, counters, and the RNG stream position — is
// captured, and the structure library is rebuilt from the pool, so a
// resumed worker replays the exact schedule the uninterrupted one would
// have run. The campaign (package shard) stores the pool and coverage,
// which workers share. The worker's crash oracle is not captured: the
// executor drains it into the campaign oracle at every barrier, so it is
// empty at every snapshot, and a resumed worker starts with an empty one.

// SnapshotShard serializes the fuzzer's worker state but its pool. It
// builds the wire form in one pass, every slice sized up front. The
// synthesizer's vector only grows and its sequences never change, so each
// sequence is converted to wire form once, by the first snapshot that sees
// it: the snapshot shares the converted prefix, which later snapshots only
// append to.
func (f *Fuzzer) SnapshotShard() checkpoint.Shard {
	st := checkpoint.Shard{
		Execs:        f.runner.Execs,
		Stmts:        f.runner.Stmts,
		EnginePanics: f.runner.EnginePanics,
		RNG:          f.src.State(),
	}
	st.Affinity = exportPairs(f.aff)
	st.GenAffinity = exportPairs(f.runner.GenAff)

	synth := f.synth.Export()
	fresh := synth.Seqs[len(f.synthWire):]
	n := 0
	for _, seq := range fresh {
		n += len(seq)
	}
	flat := make([]uint16, n)
	for _, seq := range fresh {
		out := flat[:len(seq):len(seq)]
		flat = flat[len(seq):]
		for j, t := range seq {
			out[j] = uint16(t)
		}
		f.synthWire = append(f.synthWire, out)
	}
	if len(f.synthWire) > 0 {
		st.SynthSeqs = f.synthWire[:len(f.synthWire):len(f.synthWire)]
	}
	st.SynthStarts = makeN[uint16](len(synth.Starts))
	for i, t := range synth.Starts {
		st.SynthStarts[i] = uint16(t)
	}
	st.SynthRot = synth.Rot
	st.Pending = makeN[[2]uint16](len(f.pending))
	for i, p := range f.pending {
		st.Pending[i] = [2]uint16{uint16(p.From), uint16(p.To)}
	}
	return st
}

// CheckIdentity reports whether opts describe the campaign the checkpoint
// was taken from: dialect, seed, MaxLen, the LEGO- ablation, hazards, seed
// splitting and the fault rate. A mismatch is an error naming the option,
// since the restored schedule would silently diverge from the original.
func CheckIdentity(opts Options, st *checkpoint.State) error {
	opts.fill()
	if sqlt.Dialect(st.Dialect) != opts.Dialect {
		return fmt.Errorf("resume: checkpoint is for dialect %s, options say %s",
			sqlt.Dialect(st.Dialect), opts.Dialect)
	}
	if st.Seed != opts.Seed || st.MaxLen != opts.MaxLen {
		return fmt.Errorf("resume: checkpoint campaign (seed %d, len %d) does not match options (seed %d, len %d)",
			st.Seed, st.MaxLen, opts.Seed, opts.MaxLen)
	}
	flags := []struct {
		name       string
		ckpt, opts bool
	}{
		{"DisableSequenceAlgorithms", st.DisableSequenceAlgorithms, opts.DisableSequenceAlgorithms},
		{"Hazards", !st.DisableHazards, opts.Hazards},
		{"SplitLongSeeds", st.SplitLongSeeds, opts.SplitLongSeeds},
	}
	for _, f := range flags {
		if f.ckpt != f.opts {
			return fmt.Errorf("resume: checkpoint campaign has %s %v, options say %v", f.name, f.ckpt, f.opts)
		}
	}
	if st.FaultRate != opts.FaultRate {
		return fmt.Errorf("resume: checkpoint campaign has FaultRate %v, options say %v", st.FaultRate, opts.FaultRate)
	}
	return nil
}

// ResumeShard rebuilds one worker from its checkpoint entry; opts carry the
// worker's own seed, and pool the seeds sh.Pool indexes. The structure
// library is rebuilt by harvesting the pool in pool order, skipping split
// halves, which replays exactly the Harvest calls that built it.
func ResumeShard(opts Options, sh *checkpoint.Shard, pool []*corpus.Seed) *Fuzzer {
	f := newFuzzer(opts)
	f.src.SetState(sh.RNG)
	f.runner.Execs = sh.Execs
	f.runner.Stmts = sh.Stmts
	f.runner.EnginePanics = sh.EnginePanics

	for j, s := range pool {
		f.pool.Adopt(s, sh.Picked[j])
		if !s.Split {
			f.lib.Harvest(s.TC)
		}
	}

	importPairs(f.aff, sh.Affinity)
	importPairs(f.runner.GenAff, sh.GenAffinity)

	var synth seqsynth.State
	for _, seq := range sh.SynthSeqs {
		synth.Seqs = append(synth.Seqs, importSeq(seq))
	}
	synth.Starts = importSeq(sh.SynthStarts)
	synth.Rot = sh.SynthRot
	f.synth.Import(synth)

	for _, p := range sh.Pending {
		f.pending = append(f.pending, affinity.Pair{From: sqlt.Type(p[0]), To: sqlt.Type(p[1])})
	}
	return f
}

func exportPairs(m *affinity.Map) [][2]uint16 {
	pairs := m.Pairs()
	out := makeN[[2]uint16](len(pairs))
	for i, p := range pairs {
		out[i] = [2]uint16{uint16(p.From), uint16(p.To)}
	}
	return out
}

func importPairs(m *affinity.Map, pairs [][2]uint16) {
	for _, p := range pairs {
		m.Add(sqlt.Type(p[0]), sqlt.Type(p[1]))
	}
}

// makeN returns a length-n slice for the export helpers to fill, or nil
// when n is 0: an empty section encodes as JSON null, the form checkpoints
// have always carried, so the state payload keeps its bytes.
func makeN[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

func importSeq(raw []uint16) sqlt.Sequence {
	var out sqlt.Sequence
	for _, t := range raw {
		out = append(out, sqlt.Type(t))
	}
	return out
}
