package core

import (
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

// SnapshotShard serializes the fuzzer's worker state but its pool. The
// synthesizer's vector is shared, not copied: it only grows, and its
// sequences never change; so is its encoding, which the fuzzer's encoder
// extends by the sequences synthesized since the last snapshot.
func (f *Fuzzer) SnapshotShard() checkpoint.Shard {
	synth := f.synth.Export()
	return checkpoint.Shard{
		Execs:        f.runner.Execs,
		Stmts:        f.runner.Stmts,
		EnginePanics: f.runner.EnginePanics,
		RNG:          f.src.State(),
		Affinity:     exportPairs(f.aff.Pairs()),
		GenAffinity:  exportPairs(f.runner.GenAff.Pairs()),
		SynthSeqs:    synth.Seqs,
		SynthStarts:  synth.Starts,
		SynthRot:     synth.Rot,
		Pending:      exportPairs(f.pending),

		SynthSeqsJSON: f.synthJSON.Encode(synth.Seqs),
	}
}

// EncodeSynth encodes the sequences synthesized since the last snapshot,
// so that the next SnapshotShard, taken while every shard is parked, finds
// them encoded.
func (f *Fuzzer) EncodeSynth() { f.synthJSON.Encode(f.synth.Export().Seqs) }

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

	f.synth.Import(seqsynth.State{Seqs: sh.SynthSeqs, Starts: sh.SynthStarts, Rot: sh.SynthRot})
	for _, p := range sh.Pending {
		f.pending = append(f.pending, affinity.Pair{From: p[0], To: p[1]})
	}
	return f
}

// exportPairs returns pairs in checkpoint form, nil for none: an empty
// section encodes as JSON null, the form checkpoints have always carried.
func exportPairs(pairs []affinity.Pair) [][2]sqlt.Type {
	if len(pairs) == 0 {
		return nil
	}
	out := make([][2]sqlt.Type, len(pairs))
	for i, p := range pairs {
		out[i] = [2]sqlt.Type{p.From, p.To}
	}
	return out
}

func importPairs(m *affinity.Map, pairs [][2]sqlt.Type) {
	for _, p := range pairs {
		m.Add(p[0], p[1])
	}
}
