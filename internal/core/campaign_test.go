package core_test

// These tests drive a worker's snapshot and resume (SnapshotShard,
// ResumeShard) end to end. Campaigns save, stop and resume only through
// the campaign executor, so they run a one-shard shard.Executor: its epochs
// end at iteration boundaries, and its schedule is the uninterrupted core
// loop.

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/shard"
	"github.com/seqfuzz/lego/internal/sqlt"
	"github.com/seqfuzz/lego/internal/triage"
)

// oneShard wraps core options as a one-worker campaign.
func oneShard(o core.Options) shard.Options {
	return shard.Options{Core: o, Workers: 1}
}

// campaignJSON renders a campaign snapshot for byte-exact comparison.
func campaignJSON(t *testing.T, e *shard.Executor) []byte {
	t.Helper()
	b, err := json.Marshal(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// run drives e to budget statements with no saves and no stop.
func run(t *testing.T, e *shard.Executor, budget int) {
	t.Helper()
	if _, err := e.Run(budget, shard.RunOptions{}); err != nil {
		t.Fatal(err)
	}
}

// roundTrip saves st to a real file, loads it back and resumes it.
func roundTrip(t *testing.T, opts shard.Options, st *checkpoint.State) *shard.Executor {
	t.Helper()
	path := t.TempDir() + "/camp.ckpt"
	if err := checkpoint.Save(path, st); err != nil {
		t.Fatal(err)
	}
	loaded, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := shard.Resume(opts, loaded)
	if err != nil {
		t.Fatal(err)
	}
	return resumed
}

// TestResumeRejectsMismatchedCampaign: every core option a checkpoint
// records is campaign identity. A real snapshot resumes under the options
// it ran with, and one option changed, in the snapshot or in the options,
// must make resume fail naming it: resuming under another option would
// silently produce a diverged schedule.
func TestResumeRejectsMismatchedCampaign(t *testing.T) {
	opts := oneShard(core.Options{Dialect: sqlt.DialectMariaDB, Seed: 2, Hazards: true, FaultRate: 0.002})
	e := shard.New(opts)
	run(t, e, 3000)
	st := e.Snapshot()
	if _, err := shard.Resume(opts, st); err != nil {
		t.Fatalf("an unchanged snapshot must resume: %v", err)
	}

	cases := []struct {
		field string
		st    func(*checkpoint.State)
		opts  func(*core.Options)
	}{
		{"Dialect", func(s *checkpoint.State) { s.Dialect = sqlt.DialectPostgres }, func(o *core.Options) { o.Dialect = sqlt.DialectMySQL }},
		{"Seed", func(s *checkpoint.State) { s.Seed++ }, func(o *core.Options) { o.Seed++ }},
		{"MaxLen", func(s *checkpoint.State) { s.MaxLen = 3 }, func(o *core.Options) { o.MaxLen = 8 }},
		{"DisableSequenceAlgorithms", func(s *checkpoint.State) { s.DisableSequenceAlgorithms = true }, func(o *core.Options) { o.DisableSequenceAlgorithms = true }},
		{"Hazards", func(s *checkpoint.State) { s.DisableHazards = true }, func(o *core.Options) { o.Hazards = false }},
		{"SplitLongSeeds", func(s *checkpoint.State) { s.SplitLongSeeds = true }, func(o *core.Options) { o.SplitLongSeeds = true }},
		{"FaultRate", func(s *checkpoint.State) { s.FaultRate = 0 }, func(o *core.Options) { o.FaultRate = 0.01 }},
	}
	for _, c := range cases {
		changed := *st
		c.st(&changed)
		o := opts
		c.opts(&o.Core)
		for _, side := range []struct {
			name string
			opts shard.Options
			st   *checkpoint.State
		}{{"snapshot", opts, &changed}, {"options", o, st}} {
			_, err := shard.Resume(side.opts, side.st)
			if err == nil || !strings.HasPrefix(err.Error(), "resume: checkpoint campaign has "+c.field+" ") {
				t.Errorf("%s changed in the %s: got %v, want a mismatch naming it", c.field, side.name, err)
			}
		}
	}
}

// TestDeterministicResume is the acceptance test for checkpoint/resume:
// a campaign checkpointed mid-flight and resumed in a brand-new fuzzer must
// reach the *identical* final state — schedule, coverage, affinities, bugs,
// RNG position — as the campaign that kept running. Fault injection is armed,
// so the keyed fault schedule must also continue across the round trip.
func TestDeterministicResume(t *testing.T) {
	opts := oneShard(core.Options{Dialect: sqlt.DialectMariaDB, Seed: 11, Hazards: true, FaultRate: 0.002})

	// Reference campaign: run to 8k statements, snapshot, keep running.
	ref := shard.New(opts)
	run(t, ref, 8000)
	mid := ref.Snapshot()
	run(t, ref, 20000)

	// Interrupted campaign: restore the mid-flight snapshot into a fresh
	// executor (via a real file round trip) and run the same second leg.
	resumed := roundTrip(t, opts, mid)
	if resumed.Execs() != mid.Execs || resumed.Stmts() != mid.Stmts {
		t.Fatalf("restored counters %d/%d != snapshot %d/%d",
			resumed.Execs(), resumed.Stmts(), mid.Execs, mid.Stmts)
	}
	run(t, resumed, 20000)

	if ref.Execs() != resumed.Execs() ||
		ref.Stmts() != resumed.Stmts() ||
		ref.Branches() != resumed.Branches() ||
		ref.Affinities() != resumed.Affinities() ||
		ref.Oracle().Count() != resumed.Oracle().Count() ||
		ref.PoolLen() != resumed.PoolLen() {
		t.Fatalf("resumed campaign diverged:\nref:     execs=%d stmts=%d branches=%d aff=%d bugs=%d pool=%d\nresumed: execs=%d stmts=%d branches=%d aff=%d bugs=%d pool=%d",
			ref.Execs(), ref.Stmts(), ref.Branches(), ref.Affinities(), ref.Oracle().Count(), ref.PoolLen(),
			resumed.Execs(), resumed.Stmts(), resumed.Branches(), resumed.Affinities(), resumed.Oracle().Count(), resumed.PoolLen())
	}

	// The strong form: the complete serialized states must be byte-equal.
	a, b := campaignJSON(t, ref), campaignJSON(t, resumed)
	if string(a) != string(b) {
		t.Fatalf("final snapshots differ\nref:     %.400s\nresumed: %.400s", a, b)
	}
}

// TestDeterministicResumeWithSplitSeeds: the structure library is not
// saved but rebuilt from the pool, skipping the halves seed splitting adds.
// A snapshot holding split halves must resume to the byte-identical final
// state of the campaign that kept running; a library rebuilt with one
// entry too many or too few would change the instantiator's picks.
func TestDeterministicResumeWithSplitSeeds(t *testing.T) {
	opts := oneShard(core.Options{Dialect: sqlt.DialectMariaDB, Seed: 4, Hazards: true, MaxLen: 3, SplitLongSeeds: true})
	ref := shard.New(opts)
	run(t, ref, 8000)
	mid := ref.Snapshot()
	lib := ref.Shards()[0].Library()
	libSize, libTypes := lib.Size(), lib.TypesCovered()
	run(t, ref, 20000)

	splits := 0
	for _, k := range mid.Shards[0].Pool {
		if mid.Seeds[k].Split {
			splits++
		}
	}
	if splits == 0 {
		t.Fatal("mid-campaign snapshot holds no split halves; the test exercises nothing")
	}
	resumed := roundTrip(t, opts, mid)
	if got := resumed.Shards()[0].Library(); got.Size() != libSize || got.TypesCovered() != libTypes {
		t.Fatalf("rebuilt library holds %d structures of %d types, the live one %d of %d",
			got.Size(), got.TypesCovered(), libSize, libTypes)
	}
	run(t, resumed, 20000)
	if a, b := campaignJSON(t, ref), campaignJSON(t, resumed); string(a) != string(b) {
		t.Fatalf("final snapshots differ\nref:     %.400s\nresumed: %.400s", a, b)
	}
}

// TestRunWithCheckpointSavesPeriodically verifies the save cadence and that
// every state saved is a real campaign state.
func TestRunWithCheckpointSavesPeriodically(t *testing.T) {
	e := shard.New(oneShard(core.Options{Dialect: sqlt.DialectPostgres, Seed: 4}))
	saves := 0
	_, err := e.Run(6000, shard.RunOptions{
		EveryExecs: 100,
		Save: func(st *checkpoint.State) error {
			saves++
			if st.Execs == 0 {
				return errors.New("snapshot with zero execs")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if saves < 2 {
		t.Fatalf("expected periodic saves plus a final one, got %d", saves)
	}
}

// TestStopChannelGracefulShutdown drives the run loop's stop channel
// directly, the way the CLI's signal handler does: the campaign must stop at
// an epoch barrier with interrupted=true, flush a final checkpoint, and a
// campaign resumed from that checkpoint must reach the identical final
// state as one that was never interrupted.
func TestStopChannelGracefulShutdown(t *testing.T) {
	opts := oneShard(core.Options{Dialect: sqlt.DialectMariaDB, Seed: 13, Hazards: true})
	const budget = 20000

	// Reference: uninterrupted campaign.
	ref := shard.New(opts)
	run(t, ref, budget)

	// Interrupted campaign: close the stop channel from the second periodic
	// save and keep the *last* save, which is the final flush taken after
	// the loop wound down. Saves run in the background, so the stop lands
	// at one of the barriers after that save; every barrier is a state the
	// uninterrupted campaign passes through.
	stop := make(chan struct{})
	saves := 0
	var last *checkpoint.State
	e := shard.New(opts)
	interrupted, err := e.Run(budget, shard.RunOptions{
		EveryExecs: 200,
		Save: func(st *checkpoint.State) error {
			saves++
			if saves == 2 {
				close(stop)
			}
			last = st
			return nil
		},
		Stop: stop,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !interrupted {
		t.Fatal("closed stop channel must report an interrupted leg")
	}
	if e.Stmts() >= budget {
		t.Fatalf("interrupted leg ran the full budget (%d statements)", e.Stmts())
	}
	if saves < 3 {
		t.Fatalf("expected 2 periodic saves plus the final flush, got %d", saves)
	}
	if last.Stmts != e.Stmts() {
		t.Fatalf("final flush captured %d statements, the campaign has %d", last.Stmts, e.Stmts())
	}

	// Resume from the flushed checkpoint (through a real file) and finish.
	resumed := roundTrip(t, opts, last)
	run(t, resumed, budget)

	a, b := campaignJSON(t, ref), campaignJSON(t, resumed)
	if string(a) != string(b) {
		t.Fatalf("interrupted+resumed campaign diverged from uninterrupted:\nref:     %.300s\nresumed: %.300s", a, b)
	}
}

// TestStopBeforeStart: a stop channel that is already closed stops the leg
// before any work, still flushing a (consistent) snapshot.
func TestStopBeforeStart(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	e := shard.New(oneShard(core.Options{Dialect: sqlt.DialectPostgres, Seed: 1}))
	before := e.Stmts()
	saved := false
	interrupted, err := e.Run(1<<30, shard.RunOptions{
		Save: func(*checkpoint.State) error { saved = true; return nil },
		Stop: stop,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !interrupted {
		t.Fatal("pre-closed stop must interrupt")
	}
	if e.Stmts() != before {
		t.Fatal("no fuzzing may happen after stop")
	}
	if !saved {
		t.Fatal("the final flush must still run")
	}
}

// TestTriageStateRoundTrips: triage results written into the campaign
// oracle must survive a checkpoint round trip — the bug table of a resumed
// campaign still shows verified, minimized reproducers.
func TestTriageStateRoundTrips(t *testing.T) {
	opts := oneShard(core.Options{Dialect: sqlt.DialectMariaDB, Seed: 3, Hazards: true})
	e := shard.New(opts)
	run(t, e, 25000)
	if e.Oracle().Count() == 0 {
		t.Fatal("campaign found no bugs")
	}
	sum := e.Triage(triage.Config{Replays: 3})
	if sum.Stable != sum.Triaged {
		t.Fatalf("hazard-only campaign must verify STABLE across the board: %+v", sum)
	}
	resumed := roundTrip(t, opts, e.Snapshot())

	want, crashes := e.Oracle().Crashes(), resumed.Oracle().Crashes()
	if len(crashes) != len(want) {
		t.Fatalf("crash count changed: %d -> %d", len(want), len(crashes))
	}
	for i := range want {
		w, g := want[i], crashes[i]
		if g.Status != w.Status || g.OriginalLen != w.OriginalLen ||
			g.MinimizedLen != w.MinimizedLen || g.Replays != w.Replays {
			t.Fatalf("crash %d triage fields lost: want %s %d->%d %d, got %s %d->%d %d",
				i, w.Status, w.OriginalLen, w.MinimizedLen, w.Replays,
				g.Status, g.OriginalLen, g.MinimizedLen, g.Replays)
		}
		if g.Reproducer.SQL() != w.Reproducer.SQL() {
			t.Fatalf("crash %d minimized reproducer changed across resume", i)
		}
	}
}
