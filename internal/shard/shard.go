// Package shard runs every LEGO campaign of the facade: N workers with
// deterministic epoch-barrier merges — the reproduction's answer to the
// paper's parallel AFL++ instances per target (§IV), made bit-for-bit
// replayable by the determinism substrate (exportable RNG state, byte-exact
// checkpoints, legolint's static gates). A one-worker campaign runs the same
// executor with one shard, as AFL++ runs one instance through the same loop
// as N.
//
// # Model
//
// Each worker ("shard") is a complete, private core.Fuzzer: its own engine,
// tracer, coverage map, seed pool, affinity map, synthesizer, and a seeded
// RNG stream derived as Seed + shardID. Shards run concurrently, but only
// between barriers, and they share no mutable state while running — the
// goroutine scheduler can interleave them arbitrarily without affecting any
// shard's schedule.
//
// With two or more shards, every EpochStmts statements of per-shard budget
// all shards stop at an epoch barrier, a hard statement count, and the
// coordinator merges them in fixed shard-index order:
//
//   - coverage maps OR-fold into the first active shard's map, which then
//     folds back into every other active shard, so no worker re-explores
//     territory a sibling owns;
//   - seeds retained during the epoch cross-pollinate into every peer's
//     pool (the same immutable seed object, analyzed for affinities new to
//     the peer unless it is a split half);
//   - affinity maps union, and pairs new to a shard are queued for its
//     progressive synthesis;
//   - every shard's crash sightings of the epoch drain into the campaign's
//     one crash oracle, under its shortest-reproducer invariant, and the
//     shard oracles start the next epoch empty.
//
// A lone shard has nothing to merge, so its epoch end is soft: it runs
// whole fuzzing iterations until it has executed EpochStmts more
// statements, and only the campaign budget cuts an iteration short. Its
// barriers only mark save and stop points, and its schedule is exactly the
// uninterrupted core.Fuzzer loop.
//
// Because shards are deterministic between barriers and every merge walks
// shards in index order on the coordinator goroutine, the merged report and
// checkpoint depend only on (core.Options, Workers, EpochStmts) — never on
// goroutine scheduling or GOMAXPROCS. Synchronization is confined to two
// points: the barrier (a WaitGroup), and the checkpoint hand-off, where the
// coordinator passes a barrier snapshot to one background save goroutine
// and collects its result over a channel before the next snapshot. The
// snapshot is taken while the shards are parked and shares nothing with
// them, so the save overlapping the next epoch cannot change what it holds.
// sync/atomic must not appear between barriers, where workers are required
// to be plain sequential code.
package shard

import (
	"errors"

	"github.com/seqfuzz/lego/internal/affinity"
	"github.com/seqfuzz/lego/internal/chaos"
	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/corpus"
	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/oracle"
	"github.com/seqfuzz/lego/internal/triage"
)

// DefaultEpochStmts is the per-shard statement budget between merge
// barriers when Options.EpochStmts is zero. Small enough that discoveries
// propagate while they still matter, large enough that barrier cost
// (O(map size + deltas) per shard) stays far below epoch cost.
const DefaultEpochStmts = 2000

// DefaultMaxEpochRetries is the per-shard cumulative retry budget when
// Options.MaxEpochRetries is zero: how many epoch re-runs a shard is granted
// across the whole campaign before a further failure quarantines it.
const DefaultMaxEpochRetries = 3

// Options configures a sharded campaign.
type Options struct {
	// Core is the per-shard fuzzer configuration. Core.Seed is the base
	// seed: shard i runs the stream Core.Seed + i.
	Core core.Options
	// Workers is the number of parallel shards (minimum 1).
	Workers int
	// EpochStmts is the per-shard statement budget between merge barriers
	// (default DefaultEpochStmts). Together with Workers it is part of the
	// campaign's identity: changing it moves every barrier.
	EpochStmts int

	// ChaosRate arms the deterministic chaos plane: each supervised-failure
	// decision — worker panic, epoch stall, checkpoint I/O fault — fires
	// with this probability (see internal/chaos). Zero disables injection
	// entirely, leaving the campaign byte-identical to an unsupervised one.
	ChaosRate float64
	// ChaosSeed selects the fault schedule; it defaults to Core.Seed so a
	// reseeded campaign reseeds its chaos too. Like Core.Seed it is campaign
	// identity: resuming under a different schedule would diverge.
	ChaosSeed int64
	// MaxEpochRetries is the cumulative per-shard retry budget, counted in
	// epoch re-runs (default DefaultMaxEpochRetries; negative means zero,
	// quarantining a shard on its first failure).
	MaxEpochRetries int
}

func (o *Options) fill() {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.EpochStmts <= 0 {
		o.EpochStmts = DefaultEpochStmts
	}
	// xrand maps seed 0 to 1, which would collide with shard 1's stream;
	// normalize before deriving per-shard seeds.
	if o.Core.Seed == 0 {
		o.Core.Seed = 1
	}
	if o.ChaosSeed == 0 {
		o.ChaosSeed = o.Core.Seed
	}
	if o.MaxEpochRetries == 0 {
		o.MaxEpochRetries = DefaultMaxEpochRetries
	}
	if o.MaxEpochRetries < 0 {
		o.MaxEpochRetries = 0
	}
}

// Executor drives N fuzzer shards through epoch-barrier rounds.
type Executor struct {
	opts   Options
	shards []*core.Fuzzer

	// oracle is the campaign's crash oracle, which every barrier drains the
	// shards' epoch sightings into.
	oracle *oracle.Oracle

	// epoch counts the barriers passed. With several shards, shard i's
	// next barrier sits at min(target_i, (epoch+1)*EpochStmts) statements;
	// a lone shard's sits at the first iteration boundary EpochStmts
	// statements past the last one (see legs).
	epoch int
	// poolMark[i] is shard i's pool size at the last barrier; everything
	// after it is the delta donated to peers at the next one.
	poolMark []int

	// Supervision plane (see supervise.go). snap is the campaign's state at
	// the last barrier, the point a failed epoch re-runs from: the barrier's
	// checkpoint save, or else taken lazily at epoch start, and only under
	// supervision (chaos plane or test fault hook), never unsupervised.
	// retries[i] counts epoch re-runs spent against MaxEpochRetries, and
	// quarantined[i] marks a shard whose budget is exhausted: it holds its
	// last-good state (already merged at a prior barrier) and no longer runs
	// epochs. incidents is the campaign's failure journal, and chaos/fs the
	// injected-fault schedule and the (possibly fault-injecting) filesystem
	// checkpoint saves should route through.
	snap        *checkpoint.State
	retries     []int
	quarantined []bool
	incidents   []harness.Incident
	chaos       *chaos.Injector
	fs          checkpoint.FS
	saveFaults  int
	// seedIDs numbers seed contents for Snapshot's seed store, in the order
	// snapshots first meet them: a seed object's content id, and through
	// contentIDs each distinct checkpoint entry's. A snapshot thus
	// deduplicates by object and hashes only the entries of seeds new
	// since the last one.
	seedIDs    map[*corpus.Seed]int
	contentIDs map[string]int
	// testFault, when set, runs on the worker goroutine at the start of each
	// (epoch, shard, attempt) — a test hook for raising organic panics at a
	// chosen coordinate.
	testFault func(epoch, shard, attempt int)
}

// New builds a campaign executor. Every shard ingests the initial seed
// corpus independently (they are identical streams until the first
// divergent RNG draw), and an initial barrier merges that shared baseline.
func New(opts Options) *Executor {
	opts.fill()
	e := newExecutor(opts)
	for i := 0; i < opts.Workers; i++ {
		e.shards = append(e.shards, core.New(e.coreOpts(i)))
	}
	e.poolMark = make([]int, opts.Workers)
	for i, sh := range e.shards {
		e.poolMark[i] = sh.Pool().Len()
	}
	e.retries = make([]int, opts.Workers)
	e.quarantined = make([]bool, opts.Workers)
	e.mergeBarrier()
	return e
}

// newExecutor wires the shard-independent parts shared by New and Resume.
// opts must already be filled.
func newExecutor(opts Options) *Executor {
	e := &Executor{
		opts:   opts,
		oracle: oracle.New(),
		fs:     checkpoint.OS,
	}
	if opts.ChaosRate != 0 {
		e.chaos = chaos.New(opts.ChaosRate, opts.ChaosSeed)
		e.fs = chaos.NewFS(e.chaos, checkpoint.OS)
	}
	return e
}

// coreOpts derives shard i's fuzzer configuration: the shared core options
// on the Seed+i RNG stream.
func (e *Executor) coreOpts(i int) core.Options {
	co := e.opts.Core
	co.Seed += int64(i)
	return co
}

// RunOptions configures one Run leg.
type RunOptions struct {
	// EveryExecs is the checkpoint cadence in total (cross-shard) test-case
	// executions; Save also runs once when the leg ends. Checkpoints are
	// only taken at epoch barriers, the states a resumed campaign can
	// deterministically continue from.
	EveryExecs int
	// Save persists a snapshot; a non-nil error aborts the leg. It runs
	// off the coordinator goroutine, on a background goroutine that
	// overlaps the next epoch, but one call at a time and in snapshot
	// order, and the last call returns before Run does. The state it is
	// handed is its own (freshly allocated, sharing nothing mutable with
	// the campaign); Save must not touch the Executor, whose shards are
	// running while it does.
	Save func(*checkpoint.State) error
	// Stop requests graceful shutdown. It is polled only at epoch barriers:
	// a barrier is a state every uninterrupted campaign also passes
	// through, so resuming a stopped campaign and finishing the budget
	// reproduces the uninterrupted campaign exactly. Mid-epoch stops would
	// park shards at statement counts, or a lone shard mid-iteration, where
	// no uninterrupted campaign pauses. A nil channel never stops.
	Stop <-chan struct{}
}

// Run drives all shards until every one has consumed its slice of
// budgetStmts (total statements, split as evenly as the worker count
// allows) or Stop is closed at a barrier. interrupted reports the latter.
//
// A checkpoint is snapshotted at the barrier, on the coordinator, and saved
// in the background while the shards run the next epoch. At most one save
// is in flight: the coordinator collects it before the next snapshot and
// before Run returns, so saves land in snapshot order and Run never returns
// with one still running. A real save error aborts the leg at the first
// collection point after the failed save.
func (e *Executor) Run(budgetStmts int, opts RunOptions) (interrupted bool, err error) {
	targets := e.targets(budgetStmts)
	stopped := func() bool {
		if opts.Stop == nil {
			return false
		}
		select {
		case <-opts.Stop:
			return true
		default:
			return false
		}
	}
	var inflight chan error // the save in flight, nil when none is
	collect := func() error {
		if inflight == nil {
			return nil
		}
		err := e.AbsorbSaveFault(<-inflight)
		inflight = nil
		return err
	}
	save := func() error {
		if err := collect(); err != nil {
			return err
		}
		st := e.Snapshot()
		if e.supervised() {
			e.snap = st // read-only from here on: the next epoch's restore point
		}
		done := make(chan error, 1)
		go func() { done <- opts.Save(st) }()
		inflight = done
		return nil
	}

	lastSaved := e.Execs()
	for !e.done(targets) && !stopped() {
		e.runEpoch(targets, opts.Save != nil)
		e.epoch++
		e.mergeBarrier()
		if opts.Save != nil && opts.EveryExecs > 0 && e.Execs()-lastSaved >= opts.EveryExecs {
			if err := save(); err != nil {
				return false, err
			}
			lastSaved = e.Execs()
		}
	}
	interrupted = !e.done(targets) && stopped()
	if opts.Save != nil {
		if err := save(); err != nil {
			return interrupted, err
		}
	}
	return interrupted, collect()
}

// AbsorbSaveFault settles one checkpoint save's result. A chaos-injected
// I/O fault means the disk ate this generation (the previous one is still
// on disk for LoadWithFallback), not that the campaign is broken: it is
// counted in SaveFaults and absorbed, so a chaotic filesystem changes what
// lands on disk, never what the campaign computes. Any other error is
// returned unchanged, to abort the caller. Run settles its own saves;
// callers that save outside a leg settle theirs here so the tally stays
// complete.
func (e *Executor) AbsorbSaveFault(err error) error {
	if errors.Is(err, chaos.ErrInjected) {
		e.saveFaults++
		return nil
	}
	return err
}

// targets splits the total statement budget into per-shard absolute
// targets: base share plus one spare statement for the first budget%N
// shards, so the split itself is part of the deterministic contract.
func (e *Executor) targets(budgetStmts int) []int {
	n := len(e.shards)
	base, rem := budgetStmts/n, budgetStmts%n
	out := make([]int, n)
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// done reports whether every shard that can still run has consumed its
// budget slice. Quarantined shards are excluded — they can never reach
// their target — so a degraded campaign still completes; with every shard
// quarantined the campaign ends immediately with whatever it has.
func (e *Executor) done(targets []int) bool {
	for i, sh := range e.shards {
		if e.quarantined[i] {
			continue
		}
		if sh.Runner().Stmts < targets[i] {
			return false
		}
	}
	return true
}

// mergeBarrier merges all shards in fixed shard-index order. It runs on the
// coordinator goroutine while every shard is parked, so the merged state —
// and through cross-pollination, every shard's next-epoch schedule — is a
// pure function of the shards' states, independent of how the epoch's
// goroutines were scheduled.
//
// Quarantined shards participate read-only: their last-good coverage stays
// folded into the merged view (it was earned), and their crashes were
// drained at an earlier barrier, but they neither donate new material —
// they have none, their state is frozen at a barrier whose deltas were
// already distributed — nor receive any, so their frozen state stays the
// snapshot a resumed campaign restores.
func (e *Executor) mergeBarrier() {
	n := len(e.shards)
	active := func(i int) bool { return !e.quarantined[i] }

	// Coverage: fold every shard into the first active shard's map, then
	// that map back into every other active shard, leaving all running
	// workers with identical coverage state — the OR-fold of everything
	// any worker has seen. A lone shard has nothing to fold.
	if first := e.firstActive(); first >= 0 {
		union := e.shards[first].Runner().Cov
		for i, sh := range e.shards {
			if i != first {
				union.Merge(sh.Runner().Cov)
			}
		}
		for i, sh := range e.shards {
			if i != first && active(i) {
				sh.Runner().Cov.Merge(union)
			}
		}
	}

	// Seeds: capture every shard's epoch delta before any adoption, so a
	// donated seed is not re-donated by its receiver within the same
	// barrier. Receivers share the donor's immutable seed object.
	deltas := make([][]*corpus.Seed, n)
	for i, sh := range e.shards {
		deltas[i] = sh.Pool().Since(e.poolMark[i])
	}
	for recv := 0; recv < n; recv++ {
		if !active(recv) {
			continue
		}
		for donor := 0; donor < n; donor++ {
			if donor == recv {
				continue
			}
			for _, s := range deltas[donor] {
				e.shards[recv].AdoptSeed(s)
			}
		}
	}
	for i, sh := range e.shards {
		e.poolMark[i] = sh.Pool().Len()
	}

	// Affinities: union every donor map into every receiver; pairs new to
	// a receiver enter its synthesis queue. Transitive adoption within one
	// barrier is harmless — the union converges and Add deduplicates.
	for recv := 0; recv < n; recv++ {
		if !active(recv) {
			continue
		}
		for donor := 0; donor < n; donor++ {
			if donor != recv {
				e.shards[recv].AdoptAffinities(e.shards[donor].AffinityMap())
			}
		}
	}

	// Crashes: drain every shard's epoch sightings, in shard-index order,
	// into the campaign oracle, the only one that outlives an epoch.
	oracles := make([]*oracle.Oracle, n)
	for i, sh := range e.shards {
		oracles[i] = sh.Runner().Oracle
	}
	e.oracle.Merge(oracles...)
	for _, o := range oracles {
		o.Reset()
	}

	// The post-merge states are what a failed next epoch re-runs from, but
	// they are snapshotted lazily (runEpoch, when supervision is armed)
	// rather than here: an unsupervised campaign never needs them, and
	// Snapshot dominated barrier cost when taken unconditionally.
}

// Triage runs the crash triage pipeline over the campaign oracle on a
// fresh quarantined engine built from shard 0's configuration (all shards
// share it up to the RNG seed, which triage reseeds per crash anyway). The
// results stay in that oracle: later barriers only add sightings to it.
func (e *Executor) Triage(cfg triage.Config) triage.Summary {
	return triage.New(e.shards[0].Runner().Config(), cfg).Run(e.oracle)
}

// Workers returns the shard count.
func (e *Executor) Workers() int { return len(e.shards) }

// Epoch returns the number of merge barriers passed.
func (e *Executor) Epoch() int { return e.epoch }

// Shards exposes the per-shard fuzzers (read-only use: tests and metric
// collection between Run legs).
func (e *Executor) Shards() []*core.Fuzzer { return e.shards }

// Execs returns total test-case executions across shards.
func (e *Executor) Execs() int {
	total := 0
	for _, sh := range e.shards {
		total += sh.Runner().Execs
	}
	return total
}

// Stmts returns total statements executed across shards.
func (e *Executor) Stmts() int {
	total := 0
	for _, sh := range e.shards {
		total += sh.Runner().Stmts
	}
	return total
}

// EnginePanics returns total contained organic panics across shards.
func (e *Executor) EnginePanics() int {
	total := 0
	for _, sh := range e.shards {
		total += sh.Runner().EnginePanics
	}
	return total
}

// PlanStats is always zero: the compiled plan cache it counted is gone.
// It remains only for the campaign benchmark's plan_hit_rate and
// plan_compiles_per_kstmt metrics, and the benchmark change that retires
// those metrics deletes it.
func (e *Executor) PlanStats() minidb.PlanStats { return minidb.PlanStats{} }

// Branches returns the campaign's branch-coverage metric.
func (e *Executor) Branches() int { return e.campaignCov().EdgeCount() }

// Oracle returns the campaign's crash oracle: every crash sighted up to the
// last barrier.
func (e *Executor) Oracle() *oracle.Oracle { return e.oracle }

// Affinities returns the number of distinct type-affinities discovered by
// any shard. After a barrier all shards hold the union, but merging keeps
// the answer right mid-leg too.
func (e *Executor) Affinities() int {
	m := affinity.NewMap()
	for _, sh := range e.shards {
		m.Merge(sh.AffinityMap())
	}
	return m.Count()
}

// GenAffinities returns the distinct type-affinities contained in the test
// cases generated by any shard (the Table II metric, cross-shard union).
func (e *Executor) GenAffinities() int {
	m := affinity.NewMap()
	for _, sh := range e.shards {
		m.Merge(sh.Runner().GenAff)
	}
	return m.Count()
}

// PoolLen returns the merged seed-pool size. Post-barrier every active
// shard's pool holds the same seed set (its own plus every peer's), so the
// first active shard speaks for the campaign; a quarantined shard's pool is
// frozen at its last-good barrier and may lag.
func (e *Executor) PoolLen() int {
	return e.shards[max(e.firstActive(), 0)].Pool().Len()
}

// campaignCov returns the OR of every shard's map. Between epochs the first
// active shard holds it (a quarantined shard's frozen map may lack buckets);
// with every shard quarantined no barrier folds them, so it is built here.
func (e *Executor) campaignCov() *coverage.Map {
	if first := e.firstActive(); first >= 0 {
		return e.shards[first].Runner().Cov
	}
	m := coverage.NewMap()
	for _, sh := range e.shards {
		m.Merge(sh.Runner().Cov)
	}
	return m
}

// firstActive returns the index of the first shard not quarantined, or -1
// when every shard is.
func (e *Executor) firstActive() int {
	for i, q := range e.quarantined {
		if !q {
			return i
		}
	}
	return -1
}

// Incidents returns the campaign's failure journal in occurrence order.
func (e *Executor) Incidents() []harness.Incident { return e.incidents }

// QuarantinedShards returns the indices of quarantined shards in order.
func (e *Executor) QuarantinedShards() []int {
	var out []int
	for i, q := range e.quarantined {
		if q {
			out = append(out, i)
		}
	}
	return out
}

// SaveFaults returns how many checkpoint saves were eaten by injected I/O
// faults (and skipped): those of Run legs, and those settled through
// AbsorbSaveFault.
func (e *Executor) SaveFaults() int { return e.saveFaults }

// FS returns the filesystem checkpoint saves should be routed through: the
// chaos fault-injecting layer when the chaos plane is armed, the real
// filesystem otherwise.
func (e *Executor) FS() checkpoint.FS { return e.fs }
