package shard

import (
	"fmt"
	"slices"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/core"
)

// Snapshot captures the whole campaign as a checkpoint state: one worker
// entry per shard (in shard-index order) plus the merged view at the top
// level. Snapshots are only taken at epoch barriers, so the
// worker entries are exactly the states an uninterrupted campaign passes
// through.
//
// The chaos identity is written only when the chaos plane is armed, and the
// retry budget only once it can shape the schedule, so Resume can insist on
// exactly the values that matter.
func (e *Executor) Snapshot() *checkpoint.State {
	shards := make([]checkpoint.Shard, len(e.shards))
	for i, sh := range e.shards {
		shards[i] = sh.SnapshotShard()
		shards[i].Quarantined = e.quarantined[i]
		shards[i].Retries = e.retries[i]
	}
	// Campaign identity comes from shard 0, which runs the base seed.
	co := e.shards[0].Options()
	st := &checkpoint.State{
		Dialect: uint8(co.Dialect),
		Seed:    co.Seed,
		MaxLen:  co.MaxLen,

		Workers:    len(e.shards),
		EpochStmts: e.opts.EpochStmts,
		Epoch:      e.epoch,

		// Campaign aggregates: counters are totals, the curve is sampled
		// once per barrier, and the crashes are the merged oracle.
		Execs:        e.Execs(),
		Stmts:        e.Stmts(),
		EnginePanics: e.EnginePanics(),
		Curve:        slices.Clone(e.curve),
		Crashes:      core.ExportCrashes(e.oracle),

		Incidents: slices.Clone(e.incidents),
		Shards:    shards,
	}
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

	e := newExecutor(opts)
	e.epoch = st.Epoch
	e.retries = make([]int, opts.Workers)
	e.quarantined = make([]bool, opts.Workers)
	e.incidents = slices.Clone(st.Incidents)
	for i := range st.Shards {
		ss := &st.Shards[i]
		f, err := core.ResumeShard(e.coreOpts(i), ss)
		if err != nil {
			return nil, fmt.Errorf("shard: resume shard %d: %w", i, err)
		}
		e.shards = append(e.shards, f)
		e.quarantined[i] = ss.Quarantined
		e.retries[i] = ss.Retries
	}

	// Snapshots are taken post-barrier, so every shard's pool deltas have
	// already been donated.
	e.poolMark = make([]int, len(e.shards))
	for i, sh := range e.shards {
		e.poolMark[i] = sh.Pool().Len()
	}

	// The top-level crash list is the merged oracle.
	crashes, err := core.ImportCrashes(opts.Core.Dialect, st.Crashes)
	if err != nil {
		return nil, fmt.Errorf("shard: resume: %w", err)
	}
	e.oracle.Import(crashes)
	e.curve = slices.Clone(st.Curve)
	// The restored states are barrier states; if supervision is armed, the
	// first runEpoch re-snapshots them lazily before any worker runs.
	return e, nil
}
