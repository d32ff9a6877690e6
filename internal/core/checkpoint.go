package core

import (
	"fmt"

	"github.com/seqfuzz/lego/internal/affinity"
	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/corpus"
	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/oracle"
	"github.com/seqfuzz/lego/internal/seqsynth"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// This file converts a worker's live state to and from checkpoint form.
// SnapshotShard must be taken at a Step boundary (the campaign executor
// snapshots only at epoch barriers): everything the fuzzing loop reads —
// pool, affinities, synthesizer, coverage, oracle, counters, and the RNG
// stream position — is captured, and the structure library is rebuilt from
// the pool, so a resumed worker replays the exact schedule the
// uninterrupted one would have run.

// SnapshotShard serializes the fuzzer's worker state. It builds the wire
// form in one pass: every slice is sized up front, and synthesized
// sequences are converted straight from the synthesizer's own vector into
// one shared []uint16 backing array.
func (f *Fuzzer) SnapshotShard() checkpoint.Shard {
	st := checkpoint.Shard{
		Execs:        f.runner.Execs,
		Stmts:        f.runner.Stmts,
		EnginePanics: f.runner.EnginePanics,
		RNG:          f.src.State(),
	}

	seeds := f.pool.All()
	st.Pool = makeN[checkpoint.PoolSeed](len(seeds))
	for i, s := range seeds {
		st.Pool[i] = checkpoint.PoolSeed{SQL: s.SQL(), NewEdges: s.NewEdges, Picked: s.Picked, Split: s.Split}
	}
	st.Affinity = exportPairs(f.aff)
	st.GenAffinity = exportPairs(f.runner.GenAff)
	edges := f.runner.Cov.Export()
	st.Coverage = makeN[checkpoint.Edge](len(edges))
	for i, e := range edges {
		st.Coverage[i] = checkpoint.Edge{Idx: e.Idx, Mask: e.Mask}
	}
	st.Crashes = ExportCrashes(f.runner.Oracle)

	synth := f.synth.Export()
	n := 0
	for _, seq := range synth.Seqs {
		n += len(seq)
	}
	flat := make([]uint16, n)
	st.SynthSeqs = makeN[[]uint16](len(synth.Seqs))
	for i, seq := range synth.Seqs {
		out := flat[:len(seq):len(seq)]
		flat = flat[len(seq):]
		for j, t := range seq {
			out[j] = uint16(t)
		}
		st.SynthSeqs[i] = out
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
// was taken from (dialect, seed, MaxLen); a mismatch is an error, since the
// restored schedule would silently diverge from the original.
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
	return nil
}

// ResumeShard rebuilds one worker from its checkpoint entry; opts carry the
// worker's own seed. The structure library is rebuilt by harvesting the
// pool in pool order, skipping split halves, which replays exactly the
// Harvest calls that built it.
func ResumeShard(opts Options, sh *checkpoint.Shard) (*Fuzzer, error) {
	f := newFuzzer(opts)
	f.src.SetState(sh.RNG)
	f.runner.Execs = sh.Execs
	f.runner.Stmts = sh.Stmts
	f.runner.EnginePanics = sh.EnginePanics

	seeds := make([]*corpus.Seed, len(sh.Pool))
	for i, ps := range sh.Pool {
		tc, err := sqlparse.ParseScript(ps.SQL)
		if err != nil {
			return nil, fmt.Errorf("resume: pool seed %d: %w", i, err)
		}
		seeds[i] = &corpus.Seed{TC: tc, NewEdges: ps.NewEdges, Picked: ps.Picked, Split: ps.Split}
		if !ps.Split {
			f.lib.Harvest(tc)
		}
	}
	f.pool.Import(seeds)

	importPairs(f.aff, sh.Affinity)
	importPairs(f.runner.GenAff, sh.GenAffinity)

	var edges []coverage.EdgeState
	for _, e := range sh.Coverage {
		edges = append(edges, coverage.EdgeState{Idx: e.Idx, Mask: e.Mask})
	}
	f.runner.Cov.Import(edges)

	crashes, err := ImportCrashes(opts.Dialect, sh.Crashes)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	f.runner.Oracle.Import(crashes)

	var synth seqsynth.State
	for _, seq := range sh.SynthSeqs {
		synth.Seqs = append(synth.Seqs, importSeq(seq))
	}
	for _, t := range sh.SynthStarts {
		synth.Starts = append(synth.Starts, sqlt.Type(t))
	}
	synth.Rot = sh.SynthRot
	f.synth.Import(synth)

	for _, p := range sh.Pending {
		f.pending = append(f.pending, affinity.Pair{From: sqlt.Type(p[0]), To: sqlt.Type(p[1])})
	}
	return f, nil
}

// ExportCrashes converts an oracle's deduplicated crashes to checkpoint
// form, in discovery order. Shared by worker snapshots and the campaign
// executor's export of its merged oracle.
func ExportCrashes(o *oracle.Oracle) []checkpoint.Crash {
	crashes := o.Crashes()
	out := makeN[checkpoint.Crash](len(crashes))
	for i, c := range crashes {
		out[i] = checkpoint.Crash{
			ID:          c.Report.ID,
			Component:   c.Report.Component,
			Kind:        c.Report.Kind,
			Stack:       append([]string(nil), c.Report.Stack...),
			Window:      exportSeq(c.Report.Window),
			Reproducer:  c.Reproducer.SQL(),
			FoundAtExec: c.FoundAtExec,
			Hits:        c.Hits,

			Status:       c.Status,
			OriginalLen:  c.OriginalLen,
			MinimizedLen: c.MinimizedLen,
			Replays:      c.Replays,
		}
	}
	return out
}

// ImportCrashes is ExportCrashes's inverse: it re-parses the reproducers and
// rebuilds oracle entries in checkpoint order.
func ImportCrashes(d sqlt.Dialect, crashes []checkpoint.Crash) ([]*oracle.Crash, error) {
	var out []*oracle.Crash
	for i, c := range crashes {
		tc, err := sqlparse.ParseScript(c.Reproducer)
		if err != nil {
			return nil, fmt.Errorf("crash %d reproducer: %w", i, err)
		}
		out = append(out, &oracle.Crash{
			Report: &minidb.BugReport{
				ID:        c.ID,
				Dialect:   d,
				Component: c.Component,
				Kind:      c.Kind,
				Stack:     append([]string(nil), c.Stack...),
				Window:    importSeq(c.Window),
			},
			Reproducer:  tc,
			FoundAtExec: c.FoundAtExec,
			Hits:        c.Hits,

			Status:       c.Status,
			OriginalLen:  c.OriginalLen,
			MinimizedLen: c.MinimizedLen,
			Replays:      c.Replays,
		})
	}
	return out, nil
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

func exportSeq(seq sqlt.Sequence) []uint16 {
	out := makeN[uint16](len(seq))
	for i, t := range seq {
		out[i] = uint16(t)
	}
	return out
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
