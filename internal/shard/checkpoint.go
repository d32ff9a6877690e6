package shard

import (
	"fmt"
	"slices"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/corpus"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/oracle"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Snapshot captures the whole campaign as a checkpoint state: one worker
// entry per shard (in shard-index order) plus the merged view at the top
// level, which holds the campaign's only copy of the crashes, the seeds and
// the coverage. Snapshots are only taken at epoch barriers, so the worker
// entries are exactly the states an uninterrupted campaign passes through.
// Seeds are stored by content, not object: each shard ingests its own copy
// of the initial corpus, while a resumed campaign shares one. A seed's
// content is its cached checkpoint entry, which encodes its script and
// fields one to one (scripts are valid UTF-8), so the store is what keying
// on the script and fields would give.
//
// The chaos identity is written only when the chaos plane is armed, and the
// retry budget only once it can shape the schedule, so Resume can insist on
// exactly the values that matter.
func (e *Executor) Snapshot() *checkpoint.State {
	// Campaign identity comes from shard 0, which runs the base seed.
	co := e.shards[0].Options()
	n := e.shards[0].Pool().Len()
	st := &checkpoint.State{
		Dialect: uint8(co.Dialect),
		Seed:    co.Seed,
		MaxLen:  co.MaxLen,

		Workers:    len(e.shards),
		EpochStmts: e.opts.EpochStmts,
		Epoch:      e.epoch,

		// Campaign aggregates: counters are totals, the curve is sampled
		// once per barrier, and the crashes are the campaign oracle.
		Execs:        e.Execs(),
		Stmts:        e.Stmts(),
		EnginePanics: e.EnginePanics(),
		Curve:        slices.Clone(e.curve),
		Crashes:      exportCrashes(e.oracle),
		Seeds:        make([]checkpoint.Seed, 0, n),

		Incidents: slices.Clone(e.incidents),
		Shards:    make([]checkpoint.Shard, len(e.shards)),
	}
	if e.seedIDs == nil {
		e.seedIDs, e.contentIDs = map[*corpus.Seed]int{}, map[string]int{}
	}
	stored := make([]int, len(e.contentIDs)) // content id -> store index+1, 0 if not stored yet
	for i, sh := range e.shards {
		w := sh.SnapshotShard()
		seeds := sh.Pool().All()
		w.Pool = make([]int, len(seeds))
		for j, s := range seeds {
			id, ok := e.seedIDs[s]
			if !ok {
				if id, ok = e.contentIDs[s.Entry()]; !ok {
					id = len(e.contentIDs)
					e.contentIDs[s.Entry()] = id
					stored = append(stored, 0)
				}
				e.seedIDs[s] = id
			}
			if stored[id] == 0 {
				st.Seeds = append(st.Seeds, checkpoint.Seed{NewEdges: s.NewEdges, Split: s.Split, Entry: s.Entry()})
				stored[id] = len(st.Seeds)
			}
			w.Pool[j] = stored[id] - 1
		}
		w.Picked = slices.Clone(sh.Pool().Picks())
		w.Quarantined = e.quarantined[i]
		w.Retries = e.retries[i]
		st.Shards[i] = w
	}
	st.Coverage = e.campaignCov().Export()
	if e.opts.ChaosRate != 0 {
		st.ChaosRate = e.opts.ChaosRate
		st.ChaosSeed = e.opts.ChaosSeed
	}
	if e.opts.ChaosRate != 0 || len(e.incidents) > 0 {
		// The retry budget shapes the schedule only once failures exist (or
		// can exist); record it exactly then, so Resume can insist on it.
		st.MaxEpochRetries = e.opts.MaxEpochRetries
	}
	return st
}

// Resume rebuilds a campaign from a checkpoint. The topology
// (Workers, EpochStmts) is part of the campaign's identity — resuming under
// a different one would move every epoch barrier — so mismatches fail
// loudly, like core.CheckIdentity does for seed and dialect.
func Resume(opts Options, st *checkpoint.State) (*Executor, error) {
	opts.fill()
	if err := core.CheckIdentity(opts.Core, st); err != nil {
		return nil, err
	}
	if st.Workers != opts.Workers || len(st.Shards) != opts.Workers {
		return nil, fmt.Errorf("shard: resume: checkpoint has %d workers (%d shard entries), options request %d", st.Workers, len(st.Shards), opts.Workers)
	}
	if st.EpochStmts < 1 {
		return nil, fmt.Errorf("shard: resume: checkpoint has no epoch budget (%d statements): an older build wrote it for a one-worker campaign", st.EpochStmts)
	}
	if st.EpochStmts != opts.EpochStmts {
		return nil, fmt.Errorf("shard: resume: checkpoint epoch budget is %d statements, options request %d", st.EpochStmts, opts.EpochStmts)
	}
	// The chaos identity is campaign identity: the fault schedule shapes the
	// incident journal and, through retries, every shard's RNG consumption,
	// so resuming under a different schedule would silently diverge.
	if st.ChaosRate != opts.ChaosRate {
		return nil, fmt.Errorf("shard: resume: checkpoint chaos rate is %v, options request %v", st.ChaosRate, opts.ChaosRate)
	}
	if st.ChaosRate != 0 && st.ChaosSeed != opts.ChaosSeed {
		return nil, fmt.Errorf("shard: resume: checkpoint chaos seed is %d, options request %d", st.ChaosSeed, opts.ChaosSeed)
	}
	if st.MaxEpochRetries != 0 && st.MaxEpochRetries != opts.MaxEpochRetries {
		return nil, fmt.Errorf("shard: resume: checkpoint retry budget is %d epochs, options request %d", st.MaxEpochRetries, opts.MaxEpochRetries)
	}

	// Each stored seed is parsed once, and shards share the objects.
	store := make([]*corpus.Seed, len(st.Seeds))
	for k, s := range st.Seeds {
		sql, err := s.Script()
		if err != nil {
			return nil, fmt.Errorf("shard: resume: seed %d: %w", k, err)
		}
		tc, err := sqlparse.ParseScript(sql)
		if err != nil {
			return nil, fmt.Errorf("shard: resume: seed %d: %w", k, err)
		}
		store[k] = &corpus.Seed{TC: tc, NewEdges: s.NewEdges, Split: s.Split}
	}
	e := newExecutor(opts)
	e.epoch = st.Epoch
	e.shards = make([]*core.Fuzzer, opts.Workers)
	e.poolMark = make([]int, opts.Workers)
	e.retries = make([]int, opts.Workers)
	e.quarantined = make([]bool, opts.Workers)
	e.incidents = slices.Clone(st.Incidents)
	for i, ss := range st.Shards {
		pool := make([]*corpus.Seed, len(ss.Pool))
		for j, k := range ss.Pool {
			pool[j] = store[k]
		}
		e.resumeShard(i, st, pool)
		e.quarantined[i] = ss.Quarantined
		e.retries[i] = ss.Retries
	}

	// The top-level crash list is the campaign oracle; the shards' oracles
	// start empty, as they are after every barrier.
	crashes, err := importCrashes(opts.Core.Dialect, st.Crashes)
	if err != nil {
		return nil, fmt.Errorf("shard: resume: %w", err)
	}
	e.oracle.Import(crashes)
	e.curve = slices.Clone(st.Curve)
	// The restored states are barrier states; if supervision is armed, the
	// first runEpoch re-snapshots them lazily before any worker runs.
	return e, nil
}

// resumeShard rebuilds shard i from its entry in st over its pool's seeds,
// with the campaign's coverage, for Resume and the supervisor's restore.
func (e *Executor) resumeShard(i int, st *checkpoint.State, pool []*corpus.Seed) {
	f := core.ResumeShard(e.coreOpts(i), &st.Shards[i], pool)
	f.Runner().Cov.Import(st.Coverage)
	e.shards[i] = f
	e.poolMark[i] = f.Pool().Len()
}

// exportCrashes converts the campaign oracle's crashes to checkpoint form,
// in discovery order. No crashes encode as JSON null, the form checkpoints
// have always carried.
func exportCrashes(o *oracle.Oracle) []checkpoint.Crash {
	crashes := o.Crashes()
	if len(crashes) == 0 {
		return nil
	}
	out := make([]checkpoint.Crash, len(crashes))
	for i, c := range crashes {
		window := make([]uint16, len(c.Report.Window))
		for j, t := range c.Report.Window {
			window[j] = uint16(t)
		}
		out[i] = checkpoint.Crash{
			ID:          c.Report.ID,
			Component:   c.Report.Component,
			Kind:        c.Report.Kind,
			Stack:       append([]string(nil), c.Report.Stack...),
			Window:      window,
			Reproducer:  c.ReproducerSQL(),
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

// importCrashes is exportCrashes's inverse: it re-parses the reproducers and
// rebuilds oracle entries in checkpoint order.
func importCrashes(d sqlt.Dialect, crashes []checkpoint.Crash) ([]*oracle.Crash, error) {
	var out []*oracle.Crash
	for i, c := range crashes {
		tc, err := sqlparse.ParseScript(c.Reproducer)
		if err != nil {
			return nil, fmt.Errorf("crash %d reproducer: %w", i, err)
		}
		var window sqlt.Sequence
		for _, t := range c.Window {
			window = append(window, sqlt.Type(t))
		}
		out = append(out, &oracle.Crash{
			Report: &minidb.BugReport{
				ID:        c.ID,
				Dialect:   d,
				Component: c.Component,
				Kind:      c.Kind,
				Stack:     append([]string(nil), c.Stack...),
				Window:    window,
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
