package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/core"
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

// TestBarrierInvariants: after a barrier every shard holds the global
// OR-fold of coverage, the same seed set, the same affinity union, and the
// same deduplicated crash keys — the post-barrier symmetry the executor's
// determinism argument rests on.
func TestBarrierInvariants(t *testing.T) {
	e := New(testOptions(3))
	if _, err := e.Run(6000, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	for i, sh := range e.Shards() {
		if got := sh.Runner().Branches(); got != e.Branches() {
			t.Errorf("shard %d coverage %d edges != global %d", i, got, e.Branches())
		}
		if got := sh.Pool().Len(); got != e.Shards()[0].Pool().Len() {
			t.Errorf("shard %d pool size %d != shard 0's %d", i, got, e.Shards()[0].Pool().Len())
		}
		if got := sh.Affinities(); got != e.Affinities() {
			t.Errorf("shard %d affinities %d != global %d", i, got, e.Affinities())
		}
		if got := sh.Runner().Oracle.Count(); got != e.Oracle().Count() {
			t.Errorf("shard %d distinct crashes %d != global %d", i, got, e.Oracle().Count())
		}
	}
	if e.Oracle().Count() == 0 {
		t.Fatal("hazard campaign found no crashes; pollination untested")
	}
	// Adopted crashes carry zero hits, so the global per-crash hit tally
	// equals the sum of real observations — no double counting.
	var shardHits, globalHits int
	for _, sh := range e.Shards() {
		for _, c := range sh.Runner().Oracle.Crashes() {
			shardHits += c.Hits
		}
	}
	for _, c := range e.Oracle().Crashes() {
		globalHits += c.Hits
	}
	if shardHits != globalHits {
		t.Errorf("global hit tally %d != sum of shard observations %d", globalHits, shardHits)
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
// flushed checkpoint leave the worker in exactly the state core.New + Run
// reaches on the same seed: byte-identical worker snapshot, equal counters.
func TestShardedOneWorkerMatchesUninterruptedLoop(t *testing.T) {
	// Single iterations run up to a few thousand statements, so a soft
	// epoch is often several EpochStmts long; this budget still crosses
	// about a dozen barriers.
	const budget = 30000
	opts := testOptions(1)
	ref := core.New(opts.Core)
	ref.Run(budget)

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

	got, want := resumed.Shards()[0], ref
	a, err := json.Marshal(got.SnapshotShard())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(want.SnapshotShard())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("one-shard campaign diverged from the uninterrupted loop\nshard: %.400s\ncore:  %.400s", a, b)
	}
	g, w := got.Runner(), want.Runner()
	if g.Execs != w.Execs || g.Stmts != w.Stmts || g.EnginePanics != w.EnginePanics ||
		g.Branches() != w.Branches() || g.Oracle.Count() != w.Oracle.Count() {
		t.Fatalf("counters diverged: shard execs=%d stmts=%d panics=%d branches=%d bugs=%d, core %d %d %d %d %d",
			g.Execs, g.Stmts, g.EnginePanics, g.Branches(), g.Oracle.Count(),
			w.Execs, w.Stmts, w.EnginePanics, w.Branches(), w.Oracle.Count())
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

// TestResumeRejectsMismatchedTopology: Workers and EpochStmts identify the
// campaign the way Seed does — resuming under a different topology would
// silently move every barrier, so it must fail loudly instead.
func TestResumeRejectsMismatchedTopology(t *testing.T) {
	e := New(testOptions(2))
	if _, err := e.Run(2000, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()

	wrongWorkers := testOptions(3)
	if _, err := Resume(wrongWorkers, st); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("resume with wrong worker count: got %v, want workers mismatch error", err)
	}
	wrongEpoch := testOptions(2)
	wrongEpoch.EpochStmts = 999
	if _, err := Resume(wrongEpoch, st); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("resume with wrong epoch budget: got %v, want epoch mismatch error", err)
	}
}

// TestCurveIsBarrierSampled: the global curve carries one point per
// progressing barrier, with strictly increasing exec counts and a final
// point matching the campaign totals.
func TestCurveIsBarrierSampled(t *testing.T) {
	e := New(testOptions(2))
	if _, err := e.Run(4000, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	curve := e.Curve()
	if len(curve) < 2 {
		t.Fatalf("curve has %d points, want at least the initial and a barrier sample", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Execs <= curve[i-1].Execs {
			t.Fatalf("curve execs not strictly increasing at %d: %+v", i, curve)
		}
	}
	last := curve[len(curve)-1]
	if last.Execs != e.Execs() || last.Edges != e.Branches() {
		t.Fatalf("final curve point %+v, want execs=%d edges=%d", last, e.Execs(), e.Branches())
	}
}
