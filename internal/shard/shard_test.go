package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/corpus"
	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// testOptions is a small but bug-bearing campaign: hazards armed so crashes
// cross-pollinate, fault injection armed so the per-shard injector streams
// are exercised, and an epoch short enough that a few-thousand-statement
// budget crosses several barriers.
func testOptions(workers int) Options {
	return Options{
		Core: core.Options{
			Dialect:   sqlt.DialectMariaDB,
			Seed:      21,
			Hazards:   true,
			FaultRate: 0.002,
		},
		Workers:    workers,
		EpochStmts: 500,
	}
}

func snapshotJSON(t *testing.T, e *Executor) []byte {
	t.Helper()
	b, err := json.Marshal(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardedDoubleRunDeterminism is the tentpole acceptance test: two
// sharded campaigns with identical options must produce byte-identical
// checkpoints — coverage, pools, RNG positions, crashes, curve — no matter
// how the per-epoch goroutines were scheduled. Run it under -race to also
// certify that shards share no mutable state between barriers.
func TestShardedDoubleRunDeterminism(t *testing.T) {
	const budget = 8000
	a := New(testOptions(4))
	b := New(testOptions(4))
	if _, err := a.Run(budget, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(budget, RunOptions{}); err != nil {
		t.Fatal(err)
	}

	if a.Execs() == 0 || a.Branches() == 0 {
		t.Fatalf("campaign did no work: execs=%d branches=%d", a.Execs(), a.Branches())
	}
	if a.Epoch() < 3 {
		t.Fatalf("budget crossed only %d barriers; the test needs several to be meaningful", a.Epoch())
	}
	sa, sb := snapshotJSON(t, a), snapshotJSON(t, b)
	if string(sa) != string(sb) {
		t.Fatalf("identical sharded campaigns diverged\nrun A: %.400s\nrun B: %.400s", sa, sb)
	}
}

// TestBarrierInvariants: after every barrier each shard holds the global
// OR-fold of coverage, the same seed set and the same affinity union — the
// post-barrier symmetry the executor's determinism argument rests on —
// every seed donated at the barrier is the donor's own object in every
// shard, and every crash sighting has drained into the campaign oracle: the
// shards' oracles are empty, and the campaign's hits count each sighting
// once. The final checkpoint stores each seed once.
func TestBarrierInvariants(t *testing.T) {
	e := New(testOptions(3))
	// New's initial barrier drained the seed corpus's crashes; a fresh
	// shard sights them again.
	sightings := 0
	for i := range e.shards {
		for _, c := range core.New(e.coreOpts(i)).Runner().Oracle.Crashes() {
			sightings += c.Hits
		}
	}
	// Run's loop without saves, counting each epoch's sightings just before
	// the barrier drains them.
	targets := e.targets(6000)
	for !e.done(targets) {
		e.runEpoch(targets, nil)
		for _, sh := range e.shards {
			for _, c := range sh.Runner().Oracle.Crashes() {
				sightings += c.Hits
			}
		}
		var donated []*corpus.Seed
		for i, sh := range e.shards {
			donated = append(donated, sh.Pool().Since(e.poolMark[i])...)
		}
		e.epoch++
		e.mergeBarrier()

		for i, sh := range e.shards {
			held := map[*corpus.Seed]bool{}
			for _, s := range sh.Pool().All() {
				held[s] = true
			}
			for _, s := range donated {
				if !held[s] {
					t.Fatalf("epoch %d: shard %d does not hold the donated seed object %q", e.epoch, i, s.TC.SQL())
				}
			}
			if got := sh.Runner().Branches(); got != e.Branches() {
				t.Errorf("epoch %d: shard %d coverage %d edges != global %d", e.epoch, i, got, e.Branches())
			}
			if got := sh.Pool().Len(); got != e.shards[0].Pool().Len() {
				t.Errorf("epoch %d: shard %d pool size %d != shard 0's %d", e.epoch, i, got, e.shards[0].Pool().Len())
			}
			if got := sh.Affinities(); got != e.Affinities() {
				t.Errorf("epoch %d: shard %d affinities %d != global %d", e.epoch, i, got, e.Affinities())
			}
			if got := sh.Runner().Oracle.Count(); got != 0 {
				t.Errorf("epoch %d: shard %d oracle holds %d crashes after the barrier, want 0", e.epoch, i, got)
			}
		}
		hits := 0
		for _, c := range e.Oracle().Crashes() {
			hits += c.Hits
		}
		if hits != sightings {
			t.Errorf("epoch %d: campaign hit tally %d != %d sightings", e.epoch, hits, sightings)
		}
	}
	if e.Epoch() < 3 {
		t.Fatalf("budget crossed only %d barriers; the test needs several", e.Epoch())
	}
	if e.Oracle().Count() == 0 {
		t.Fatal("hazard campaign found no crashes; the drain is untested")
	}
	// The checkpoint stores each seed once, although every shard ingested
	// its own copy of the initial corpus.
	seen := map[checkpoint.Seed]bool{}
	for _, s := range e.Snapshot().Seeds {
		if seen[s] {
			t.Fatalf("seed store holds %s twice", s.Entry)
		}
		seen[s] = true
	}
}

// TestSnapshotCoverageIsTheUnion: the checkpoint stores the campaign's
// coverage, the first active shard's map, even when a quarantined shard
// frozen at an older barrier ties it on edges but lacks a hit-count bucket
// the union gained since. Resume hands that map to every shard and
// re-snapshots to the same bytes. With every shard quarantined, the stored
// map is the OR of all of them.
func TestSnapshotCoverageIsTheUnion(t *testing.T) {
	e := New(testOptions(2))
	if _, err := e.Run(2000, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	e.quarantined[0] = true
	cov := e.shards[1].Runner().Cov
	edges := cov.Export()
	grown := false
	for i := range edges {
		if edges[i].Mask != 0xff {
			edges[i].Mask, grown = 0xff, true
			break
		}
	}
	if !grown {
		t.Fatal("every edge has every bucket; no bucket bit left to gain")
	}
	before := cov.EdgeCount()
	cov.Import(edges)
	if cov.EdgeCount() != before || e.shards[0].Runner().Cov.EdgeCount() != before {
		t.Fatalf("edge counts %d and %d, want both %d: the bucket gain must tie the shards on edges",
			cov.EdgeCount(), e.shards[0].Runner().Cov.EdgeCount(), before)
	}

	wantCov := func(st *checkpoint.State, want []coverage.EdgeState) {
		t.Helper()
		if len(st.Coverage) != len(want) {
			t.Fatalf("snapshot stores %d edges, want %d", len(st.Coverage), len(want))
		}
		for i, c := range st.Coverage {
			if c.Idx != want[i].Idx || c.Mask != want[i].Mask {
				t.Fatalf("snapshot edge %d is %+v, want %+v", i, c, want[i])
			}
		}
	}
	st := e.Snapshot()
	wantCov(st, cov.Export())
	r, err := Resume(testOptions(2), st)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range r.shards {
		if got := sh.Runner().Cov.Export(); !slices.Equal(got, edges) {
			t.Errorf("resumed shard %d holds %d edges unlike the stored coverage", i, len(got))
		}
	}
	if a, b := snapshotJSON(t, e), snapshotJSON(t, r); !bytes.Equal(a, b) {
		t.Errorf("resumed snapshot differs from the original\noriginal: %.300s\nresumed:  %.300s", a, b)
	}

	e.quarantined[1] = true
	or := coverage.NewMap()
	or.Merge(e.shards[0].Runner().Cov)
	or.Merge(cov)
	wantCov(e.Snapshot(), or.Export())
}

// TestShardedSplitHalvesStayPoolOnly: a split half is split in every shard
// that holds it, not only in the shard that cut it, so every shard marks
// the same seeds split, and no receiver harvests a donated half into its
// library or analyzes it for affinities.
func TestShardedSplitHalvesStayPoolOnly(t *testing.T) {
	e := New(Options{
		Core:       core.Options{Dialect: sqlt.DialectMariaDB, Seed: 3, MaxLen: 3, SplitLongSeeds: true},
		Workers:    2,
		EpochStmts: 1000,
	})
	if _, err := e.Run(60000, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	split := make([]map[string]int, len(e.shards))
	for i, sh := range e.shards {
		split[i] = map[string]int{}
		for _, s := range sh.Pool().All() {
			if s.Split {
				split[i][s.TC.SQL()]++
			}
		}
	}
	if len(split[0]) == 0 {
		t.Fatal("campaign split no seeds; the test exercises nothing")
	}
	if !maps.Equal(split[0], split[1]) {
		t.Fatalf("shards mark different seeds split: shard 0 has %d split seeds, shard 1 %d", len(split[0]), len(split[1]))
	}
}

// TestShardedStopResumeEquivalence: a campaign stopped at an epoch barrier
// and resumed from its checkpoint (through a real file round trip) must
// finish in exactly the state of the campaign that was never interrupted,
// because barriers are states uninterrupted campaigns also pass through.
func TestShardedStopResumeEquivalence(t *testing.T) {
	const budget = 8000
	ref := New(testOptions(2))
	if _, err := ref.Run(budget, RunOptions{}); err != nil {
		t.Fatal(err)
	}

	interrupted := New(testOptions(2))
	stop := make(chan struct{})
	closed := false
	wasStopped, err := interrupted.Run(budget, RunOptions{
		EveryExecs: 1, // checkpoint at every barrier
		Save: func(st *checkpoint.State) error {
			// Save runs in the background while the next epoch does: read
			// the epoch from the state it is handed, not from the executor.
			if !closed && st.Epoch >= 2 {
				closed = true
				close(stop)
			}
			return nil
		},
		Stop: stop,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !wasStopped {
		t.Fatal("campaign ran to completion before the stop request landed")
	}

	path := t.TempDir() + "/sharded.ckpt"
	if err := checkpoint.Save(path, interrupted.Snapshot()); err != nil {
		t.Fatal(err)
	}
	loaded, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(testOptions(2), loaded)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Execs() != interrupted.Execs() || resumed.Epoch() != interrupted.Epoch() {
		t.Fatalf("restored campaign at execs=%d epoch=%d, want execs=%d epoch=%d",
			resumed.Execs(), resumed.Epoch(), interrupted.Execs(), interrupted.Epoch())
	}
	if _, err := resumed.Run(budget, RunOptions{}); err != nil {
		t.Fatal(err)
	}

	a, b := snapshotJSON(t, ref), snapshotJSON(t, resumed)
	if string(a) != string(b) {
		t.Fatalf("resumed sharded campaign diverged from uninterrupted run\nref:     %.400s\nresumed: %.400s", a, b)
	}
}

// TestShardedOneWorkerMatchesUninterruptedLoop: a one-shard campaign is the
// uninterrupted core loop. Its epochs end softly, at iteration boundaries,
// so periodic background saves, a stop at a barrier and a resume from the
// flushed checkpoint leave the campaign in exactly the state core.New + Run
// reaches on the same seed: the two snapshot to the same bytes — worker
// entry, seeds, coverage, counters, and a campaign oracle equal to the
// loop's own, crash for crash — apart from the barrier count.
func TestShardedOneWorkerMatchesUninterruptedLoop(t *testing.T) {
	// Single iterations run up to a few thousand statements, so a soft
	// epoch is often several EpochStmts long; this budget still crosses
	// about a dozen barriers.
	const budget = 30000
	opts := testOptions(1)
	ref := core.New(opts.Core)
	harness.Run(ref, budget, budget)

	e := New(opts)
	stop := make(chan struct{})
	closed := false
	saves := 0
	save := func(st *checkpoint.State) error {
		saves++
		if !closed && st.Epoch >= 3 {
			closed = true
			close(stop)
		}
		return nil
	}
	wasStopped, err := e.Run(budget, RunOptions{EveryExecs: 50, Save: save, Stop: stop})
	if err != nil {
		t.Fatal(err)
	}
	if !wasStopped {
		t.Fatal("campaign ran to completion before the stop request landed")
	}
	path := t.TempDir() + "/one.ckpt"
	if err := checkpoint.Save(path, e.Snapshot()); err != nil {
		t.Fatal(err)
	}
	loaded, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(opts, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(budget, RunOptions{EveryExecs: 50, Save: save}); err != nil {
		t.Fatal(err)
	}
	if resumed.Epoch() < 6 || saves < resumed.Epoch() {
		t.Fatalf("campaign crossed %d barriers with %d saves; the test needs a save at every one of several", resumed.Epoch(), saves)
	}

	// The uninterrupted loop as a one-shard campaign holds it, with its
	// own oracle as the campaign's: every worker entry, seed, edge, counter
	// and crash must match. Only the barrier bookkeeping differs.
	loop := &Executor{opts: e.opts, shards: []*core.Fuzzer{ref}, oracle: ref.Runner().Oracle,
		quarantined: []bool{false}, retries: []int{0}}
	got, want := resumed.Snapshot(), loop.Snapshot()
	got.Epoch = 0
	if len(want.Crashes) == 0 {
		t.Fatal("the uninterrupted loop found no crashes; the campaign oracle is untested")
	}
	a, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("one-shard campaign diverged from the uninterrupted loop\nshard: %.400s\nloop:  %.400s", a, b)
	}
}

// TestShardedBackgroundSavesMatchEpochSnapshots: with a save due at every
// barrier, the states Save receives in the background are, in order, the
// snapshots of a twin campaign driven one epoch at a time, plus the leg's
// closing save of the last barrier. Every state, the background ones and
// the twin's, must still marshal to the same bytes after the campaign has
// run on: a snapshot shares nothing with the live shards.
func TestShardedBackgroundSavesMatchEpochSnapshots(t *testing.T) {
	const budget = 4000
	marshal := func(st *checkpoint.State) []byte {
		b, err := json.Marshal(st)
		if err != nil {
			t.Error(err)
		}
		return b
	}

	var got []*checkpoint.State
	var gotJSON [][]byte
	bg := New(testOptions(2))
	if _, err := bg.Run(budget, RunOptions{
		EveryExecs: 1,
		Save: func(st *checkpoint.State) error {
			got = append(got, st)
			gotJSON = append(gotJSON, marshal(st))
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	var want []*checkpoint.State
	var wantJSON [][]byte
	ref := New(testOptions(2))
	for {
		epoch := ref.Epoch()
		leg := min(budget, (epoch+1)*ref.opts.EpochStmts*ref.Workers())
		if _, err := ref.Run(leg, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		if ref.Epoch() == epoch {
			break
		}
		st := ref.Snapshot()
		want = append(want, st)
		wantJSON = append(wantJSON, marshal(st))
	}
	if len(want) < 3 {
		t.Fatalf("budget crossed only %d barriers; the test needs several", len(want))
	}
	want = append(want, want[len(want)-1])
	wantJSON = append(wantJSON, wantJSON[len(wantJSON)-1])

	if len(gotJSON) != len(wantJSON) {
		t.Fatalf("Save ran %d times, want %d (one per barrier plus the closing save)", len(gotJSON), len(wantJSON))
	}
	for i := range wantJSON {
		if !bytes.Equal(gotJSON[i], wantJSON[i]) {
			t.Fatalf("save %d differs from the epoch-by-epoch snapshot\ngot:  %.300s\nwant: %.300s", i, gotJSON[i], wantJSON[i])
		}
		if !bytes.Equal(marshal(got[i]), gotJSON[i]) {
			t.Fatalf("background state %d changed after it was saved: it aliases live campaign state", i)
		}
		if !bytes.Equal(marshal(want[i]), wantJSON[i]) {
			t.Fatalf("snapshot %d changed when the next epoch ran: it aliases live campaign state", i)
		}
	}
}

// TestShardedRunWaitsForLastSave: Run must not return while a background
// save is still running. With a save due at every barrier, every one of
// them and the leg's closing save must have returned by the time Run does.
func TestShardedRunWaitsForLastSave(t *testing.T) {
	var finished atomic.Int32
	e := New(testOptions(2))
	if _, err := e.Run(4000, RunOptions{
		EveryExecs: 1,
		Save: func(st *checkpoint.State) error {
			defer finished.Add(1)
			_, err := json.Marshal(st)
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := int(finished.Load()), e.Epoch()+1; got != want {
		t.Fatalf("Run returned with %d of its %d saves finished", got, want)
	}
}

// TestShardedSaverPipelinesPastABlockedSave: the coordinator never waits
// for a save in flight. With every barrier a save point, the leg's first
// Save, of barrier 1, blocks; meanwhile the coordinator passes barrier 2,
// queues its snapshot and starts epoch 2. There the queue is full, so
// epoch 3 does not start until the save returns. Saves still run one at a
// time, in snapshot order, and Run returns only after the last one has.
func TestShardedSaverPipelinesPastABlockedSave(t *testing.T) {
	e := New(testOptions(2))
	first, reached, release := make(chan int), make(chan struct{}), make(chan struct{})
	e.testFault = func(epoch, shard, _ int) {
		if shard != 0 {
			return
		}
		switch epoch {
		case 2:
			close(reached)
		case 3:
			select {
			case <-release:
			default:
				t.Error("epoch 3 started while the save of barrier 1 was blocked and barrier 2's waited in the queue")
			}
		}
	}
	var saved []int // each save's epoch, in call order
	var calls, returned, running atomic.Int32
	ran := make(chan error, 1)
	go func() {
		_, err := e.Run(6000, RunOptions{
			EveryExecs: 1,
			Save: func(st *checkpoint.State) error {
				defer returned.Add(1)
				calls.Add(1)
				if running.Add(1) != 1 {
					t.Error("two saves ran at once")
				}
				defer running.Add(-1)
				if len(saved) == 0 {
					first <- st.Epoch
					<-release
				}
				saved = append(saved, st.Epoch)
				return nil
			},
		})
		if c, r := calls.Load(), returned.Load(); c != r {
			t.Errorf("Run returned with %d of its %d saves finished", r, c)
		}
		ran <- err
	}()

	if blocked := <-first; blocked != 1 {
		close(release)
		t.Fatalf("the first save is of barrier %d, want 1", blocked)
	}
	select {
	case <-reached:
	case <-time.After(time.Minute):
		close(release)
		t.Fatal("the coordinator waited at barrier 2 for the blocked save of barrier 1")
	}
	time.Sleep(50 * time.Millisecond) // time for a coordinator that does not block to start epoch 3
	close(release)
	if err := <-ran; err != nil {
		t.Fatal(err)
	}

	// The leg's closing save repeats the last barrier's.
	var want []int
	for ep := 1; ep <= e.Epoch(); ep++ {
		want = append(want, ep)
	}
	want = append(want, e.Epoch())
	if !slices.Equal(saved, want) {
		t.Fatalf("saves ran for epochs %v, want %v in snapshot order", saved, want)
	}
}

// TestShardedSaveErrorAbortsRun: a real (not chaos-injected) error from
// save k is returned by Run, at the next save point or at the end of the
// leg, and no save starts after the failed one.
func TestShardedSaveErrorAbortsRun(t *testing.T) {
	boom := errors.New("disk on fire")
	for _, tc := range []struct {
		name          string
		every, failAt int32
	}{
		{"periodic", 1, 2}, // later barriers are save points too
		{"closing", 0, 1},  // the leg's only save
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls, running atomic.Int32
			e := New(testOptions(2))
			_, err := e.Run(4000, RunOptions{
				EveryExecs: int(tc.every),
				Save: func(*checkpoint.State) error {
					running.Add(1)
					defer running.Add(-1)
					if calls.Add(1) == tc.failAt {
						return boom
					}
					return nil
				},
			})
			if !errors.Is(err, boom) {
				t.Fatalf("Run returned %v, want the save error", err)
			}
			if n := calls.Load(); n != tc.failAt {
				t.Fatalf("Save ran %d times, want %d: no save may start after a failed one", n, tc.failAt)
			}
			if n := running.Load(); n != 0 {
				t.Fatalf("Run returned with %d saves still running", n)
			}
			if e.SaveFaults() != 0 {
				t.Fatalf("a real save error was counted as an injected fault")
			}
		})
	}
}

// identityCase changes one campaign identity field, once in a snapshot
// (st) and once in the options (opts).
type identityCase struct {
	field string
	st    func(*checkpoint.State)
	opts  func(*Options)
}

// rejectsEachMismatch runs a campaign under opts and checks that its real
// snapshot resumes under opts, and that each case's field, changed in the
// snapshot or in the options, makes Resume fail naming that field.
func rejectsEachMismatch(t *testing.T, opts Options, cases []identityCase) {
	t.Helper()
	e := New(opts)
	if _, err := e.Run(3000, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	if _, err := Resume(opts, st); err != nil {
		t.Fatalf("an unchanged snapshot must resume: %v", err)
	}
	for _, c := range cases {
		changed := *st
		c.st(&changed)
		o := opts
		c.opts(&o)
		for _, side := range []struct {
			name string
			opts Options
			st   *checkpoint.State
		}{{"snapshot", opts, &changed}, {"options", o, st}} {
			_, err := Resume(side.opts, side.st)
			if err == nil || !strings.HasPrefix(err.Error(), "resume: checkpoint campaign has "+c.field+" ") {
				t.Errorf("%s changed in the %s: got %v, want a mismatch naming it", c.field, side.name, err)
			}
		}
	}
}

// TestResumeRejectsMismatchedTopology: Workers and EpochStmts identify the
// campaign the way Seed does — resuming under a different topology would
// silently move every barrier, so it must fail loudly instead.
func TestResumeRejectsMismatchedTopology(t *testing.T) {
	rejectsEachMismatch(t, testOptions(2), []identityCase{
		{"Workers", func(s *checkpoint.State) { s.Workers = 3 }, func(o *Options) { o.Workers = 1 }},
		{"EpochStmts", func(s *checkpoint.State) { s.EpochStmts = 0 }, func(o *Options) { o.EpochStmts = 999 }},
	})
}
