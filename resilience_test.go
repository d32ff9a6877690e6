package lego_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/seqfuzz/lego"
	"github.com/seqfuzz/lego/internal/checkpoint"
)

// TestFacadeCheckpointResume drives the public durability API end to end:
// a checkpointed campaign resumed from disk must report exactly what the
// uninterrupted campaign reports.
func TestFacadeCheckpointResume(t *testing.T) {
	cfg := lego.Config{Target: lego.MariaDB, Seed: 21, FaultRate: 0.001}
	path := filepath.Join(t.TempDir(), "camp.ckpt")

	// First leg, checkpointed.
	first := lego.NewFuzzer(cfg)
	repA, err := first.FuzzWithCheckpoint(10000, path, 200)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same fuzzer keeps going.
	repRef := first.Fuzz(25000)

	// Resume from disk and run the same second leg.
	resumed, err := lego.ResumeFuzzer(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	repB := resumed.Fuzz(25000)

	if repA.Statements < 10000 {
		t.Fatalf("first leg ran only %d statements", repA.Statements)
	}
	if repRef.Executions != repB.Executions ||
		repRef.Statements != repB.Statements ||
		repRef.Branches != repB.Branches ||
		repRef.Affinities != repB.Affinities ||
		repRef.EnginePanics != repB.EnginePanics ||
		len(repRef.Bugs) != len(repB.Bugs) {
		t.Fatalf("resumed campaign diverged:\nref:     %+v\nresumed: %+v", repRef, repB)
	}
	for i := range repRef.Bugs {
		if repRef.Bugs[i].ID != repB.Bugs[i].ID ||
			repRef.Bugs[i].FoundAtExec != repB.Bugs[i].FoundAtExec {
			t.Fatalf("bug %d differs: %+v vs %+v", i, repRef.Bugs[i], repB.Bugs[i])
		}
	}
}

// TestFacadeFaultCampaignReportsPanics: Config.FaultRate must surface
// contained panics through Report.EnginePanics and as ORGANIC bugs.
func TestFacadeFaultCampaignReportsPanics(t *testing.T) {
	f := lego.NewFuzzer(lego.Config{Target: lego.PostgreSQL, Seed: 2, FaultRate: 0.002})
	rep := f.Fuzz(20000)
	if rep.EnginePanics == 0 {
		t.Fatal("fault campaign must report contained panics")
	}
	organic := 0
	for _, b := range rep.Bugs {
		if strings.HasPrefix(b.ID, "ORGANIC-") {
			organic++
			if b.Kind != "PANIC" || b.Reproducer == "" {
				t.Fatalf("malformed organic bug: %+v", b)
			}
		}
	}
	if organic == 0 {
		t.Fatal("contained panics must surface as ORGANIC bugs")
	}
}

// TestFacadeTriageMariaDB is the acceptance test for the triage pipeline on
// the default MariaDB target: every reported bug must be replay-verified
// STABLE with a minimized reproducer no longer than the original, strictly
// shorter for at least the long multi-statement discoveries.
func TestFacadeTriageMariaDB(t *testing.T) {
	f := lego.NewFuzzer(lego.Config{Target: lego.MariaDB, Triage: true})
	rep := f.Fuzz(60000)
	if len(rep.Bugs) == 0 {
		t.Fatal("campaign found no bugs")
	}
	shrunk := 0
	for _, b := range rep.Bugs {
		if b.Status != "STABLE" {
			t.Fatalf("%s: status %q, want STABLE (hazards are deterministic)", b.ID, b.Status)
		}
		if b.Replays != 3 {
			t.Fatalf("%s: %d/3 replays reproduced", b.ID, b.Replays)
		}
		if b.MinimizedLen > b.OriginalLen {
			t.Fatalf("%s: minimized %d > original %d", b.ID, b.MinimizedLen, b.OriginalLen)
		}
		if got := len(strings.Split(strings.TrimSpace(b.Reproducer), "\n")); got != b.MinimizedLen {
			t.Fatalf("%s: reported reproducer has %d statements, MinimizedLen says %d",
				b.ID, got, b.MinimizedLen)
		}
		if b.MinimizedLen < b.OriginalLen {
			shrunk++
		}
		// Replay the *reported* SQL from scratch: parse and execute it the
		// way a human reading the bug report would.
		tc, err := lego.ParseTypeSequence(b.Reproducer)
		if err != nil || tc == "" {
			t.Fatalf("%s: reported reproducer does not parse: %v", b.ID, err)
		}
	}
	if shrunk == 0 {
		t.Fatal("no reproducer got strictly shorter; minimization did nothing")
	}
}

// TestFacadeInterruptedResume: a campaign stopped via FuzzOptions.Stop (the
// CLI's SIGINT path) must flush a resumable checkpoint, report Interrupted,
// and — resumed from that checkpoint — reach the same final bug set as a
// campaign that was never interrupted.
func TestFacadeInterruptedResume(t *testing.T) {
	cfg := lego.Config{Target: lego.MariaDB, Seed: 17, Triage: true}
	const budget = 120000

	// Reference: uninterrupted.
	ref := lego.NewFuzzer(cfg)
	repRef := ref.Fuzz(budget)

	// Interrupted: stop lands at some nondeterministic point mid-run; the
	// final-state equivalence must hold wherever it lands (and trivially if
	// the run finished first).
	path := filepath.Join(t.TempDir(), "sig.ckpt")
	stop := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	intr := lego.NewFuzzer(cfg)
	repI, err := intr.FuzzWithOptions(budget, lego.FuzzOptions{
		CheckpointPath:  path,
		CheckpointEvery: 500,
		Stop:            stop,
	})
	if err != nil {
		t.Fatal(err)
	}
	if repI.Interrupted && repI.Statements >= budget {
		t.Fatalf("interrupted report claims a full budget: %d", repI.Statements)
	}

	resumed, err := lego.ResumeFuzzer(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	repB := resumed.Fuzz(budget)

	if repRef.Executions != repB.Executions || repRef.Statements != repB.Statements ||
		repRef.Branches != repB.Branches || len(repRef.Bugs) != len(repB.Bugs) {
		t.Fatalf("resumed campaign diverged:\nref:     %+v\nresumed: %+v", repRef, repB)
	}
	for i := range repRef.Bugs {
		if repRef.Bugs[i].ID != repB.Bugs[i].ID ||
			repRef.Bugs[i].FoundAtExec != repB.Bugs[i].FoundAtExec ||
			repRef.Bugs[i].Status != repB.Bugs[i].Status {
			t.Fatalf("bug %d differs: %+v vs %+v", i, repRef.Bugs[i], repB.Bugs[i])
		}
	}
}

// TestFacadeResumeFallsBackToBackup: a corrupted primary checkpoint must not
// kill the resume — the rotated .bak generation is used and the session
// carries a warning.
func TestFacadeResumeFallsBackToBackup(t *testing.T) {
	cfg := lego.Config{Target: lego.MySQL, Seed: 8}
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	f := lego.NewFuzzer(cfg)
	// Two checkpoint generations: a periodic save plus the final flush.
	if _, err := f.FuzzWithCheckpoint(6000, path, 100); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("scribbled over by a dying disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := lego.ResumeFuzzer(cfg, path)
	if err != nil {
		t.Fatalf("resume must fall back to the .bak generation: %v", err)
	}
	if w := resumed.ResumeWarning(); !strings.Contains(w, ".bak") {
		t.Fatalf("fallback must carry a warning naming the backup, got %q", w)
	}
	// The restored campaign is live: it can keep fuzzing.
	rep := resumed.Fuzz(8000)
	if rep.Statements < 8000 {
		t.Fatalf("resumed campaign ran only %d statements", rep.Statements)
	}
}

// TestFacadeChaosCampaign drives the chaos plane through the public API: a
// supervised campaign under a fixed (ChaosRate, ChaosSeed) must complete,
// journal its incidents in the report, and produce the exact same report —
// incidents included — when run again.
func TestFacadeChaosCampaign(t *testing.T) {
	cfg := lego.Config{
		Target:     lego.MariaDB,
		Seed:       21,
		Workers:    3,
		EpochStmts: 500,
		ChaosRate:  0.08,
		ChaosSeed:  7,
	}
	// A chaotic campaign may quarantine a shard and finish below budget —
	// that is the documented degradation, not a failure — but it must make
	// real progress.
	run := func() lego.Report {
		rep := lego.NewFuzzer(cfg).Fuzz(12000)
		if rep.Statements < 6000 {
			t.Fatalf("chaotic campaign ran only %d statements", rep.Statements)
		}
		return rep
	}
	repA := run()
	repB := run()

	if repA.Workers != 3 {
		t.Fatalf("report claims %d workers, config asked for 3", repA.Workers)
	}
	if len(repA.Incidents) == 0 {
		t.Fatal("chaos at rate 0.08 over 24 shard-epochs injected nothing; the plane is not armed")
	}
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("chaotic campaign is not deterministic:\nA: %+v\nB: %+v", repA, repB)
	}
	for _, in := range repA.Incidents {
		if in.Kind == "" || in.Outcome == "" || in.Detail == "" {
			t.Fatalf("incomplete incident record: %+v", in)
		}
	}
}

// TestFacadeChaosQuarantineDegrades: with every epoch failing and the retry
// budget at its floor, all shards quarantine — and the public API still
// returns a completed report describing the degraded topology instead of an
// error.
func TestFacadeChaosQuarantineDegrades(t *testing.T) {
	rep := lego.NewFuzzer(lego.Config{
		Target:          lego.MariaDB,
		Seed:            5,
		Workers:         2,
		EpochStmts:      400,
		ChaosRate:       1,
		ChaosSeed:       3,
		MaxEpochRetries: -1, // quarantine on first failure
	}).Fuzz(8000)

	if len(rep.Quarantined) != 2 {
		t.Fatalf("rate-1 chaos with no retries must quarantine both shards, got %v", rep.Quarantined)
	}
	if rep.Workers != 2 {
		t.Fatalf("report must keep the starting topology, got %d workers", rep.Workers)
	}
	for _, in := range rep.Incidents {
		if in.Outcome != "QUARANTINED" {
			t.Fatalf("no-retry campaign journaled a non-quarantine outcome: %+v", in)
		}
	}
}

// TestFacadeShardedTriageSaveFaultCounted: under a rate-1 schedule every
// checkpoint save is eaten, so SaveFaults must count every save attempted —
// the one closing the fuzzing leg and the post-triage re-flush — and no
// generation may reach the disk.
func TestFacadeShardedTriageSaveFaultCounted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	rep, err := lego.NewFuzzer(lego.Config{
		Target:     lego.MariaDB,
		Seed:       5,
		Workers:    2,
		EpochStmts: 400,
		ChaosRate:  1,
		ChaosSeed:  3,
		Triage:     true,
	}).FuzzWithOptions(4000, lego.FuzzOptions{CheckpointPath: path})
	if err != nil {
		t.Fatalf("eaten saves must not fail the campaign, got %v", err)
	}
	if rep.SaveFaults != 2 {
		t.Fatalf("SaveFaults = %d, want 2 (the leg's closing save and the post-triage re-flush)", rep.SaveFaults)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a rate-1 fault schedule let a checkpoint reach the disk (stat: %v)", err)
	}
}

// TestFacadeShardedTriageSurvivesNextLeg: triage results of one Fuzz call
// must survive the next call's barriers. A crash minimized in the first leg
// enters the second leg's triage with its minimized reproducer (and so
// cannot have a longer original), instead of being rebuilt from shard
// oracles that never saw triage and minimized again from scratch.
func TestFacadeShardedTriageSurvivesNextLeg(t *testing.T) {
	f := lego.NewFuzzer(lego.Config{Target: lego.MariaDB, Seed: 13, Workers: 2, Triage: true})
	first := map[string]lego.Bug{}
	shrunk := 0
	for _, b := range f.Fuzz(20000).Bugs {
		first[b.ID] = b
		if b.MinimizedLen < b.OriginalLen {
			shrunk++
		}
	}
	if shrunk == 0 {
		t.Fatal("first leg minimized no reproducer; the test exercises nothing")
	}
	for _, b := range f.Fuzz(45000).Bugs {
		prev, ok := first[b.ID]
		if !ok {
			continue
		}
		if b.OriginalLen > prev.MinimizedLen {
			t.Errorf("%s: second leg triaged a %d-statement reproducer; the first leg had minimized it to %d (%d->%d)",
				b.ID, b.OriginalLen, prev.MinimizedLen, prev.OriginalLen, prev.MinimizedLen)
		}
	}
}

// TestFacadeChaosSingleWorkerSupervised: ChaosRate > 0 with Workers == 1
// arms the supervision plane of the one-shard executor — a single-worker
// campaign gets the same recovery machinery as a parallel one. Rate 1 makes
// every epoch attempt fail, so the campaign must record incidents.
func TestFacadeChaosSingleWorkerSupervised(t *testing.T) {
	rep := lego.NewFuzzer(lego.Config{
		Target:     lego.MySQL,
		Seed:       9,
		EpochStmts: 300,
		ChaosRate:  1,
		ChaosSeed:  4,
	}).Fuzz(6000)
	if rep.Workers != 1 {
		t.Fatalf("single-worker chaos campaign reports %d workers", rep.Workers)
	}
	if len(rep.Incidents) == 0 {
		t.Fatal("rate-1 chaos injected nothing on the single-worker path")
	}
}

// TestFacadeResumeErrors: bad paths and mismatched configs fail loudly.
func TestFacadeResumeErrors(t *testing.T) {
	if _, err := lego.ResumeFuzzer(lego.Config{Target: lego.MySQL}, "/nonexistent/file.ckpt"); err == nil {
		t.Fatal("missing checkpoint must error")
	}

	path := filepath.Join(t.TempDir(), "c.ckpt")
	f := lego.NewFuzzer(lego.Config{Target: lego.MySQL, Seed: 3})
	if _, err := f.FuzzWithCheckpoint(2000, path, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := lego.ResumeFuzzer(lego.Config{Target: lego.Comdb2, Seed: 3}, path); err == nil {
		t.Fatal("dialect mismatch must error")
	}
}

// TestFacadeResumeRejectsMalformedTopology: a checkpoint whose topology
// disagrees with itself or with the Config, or whose campaign ran under
// other options (LEGO-, hazards, seed splitting, fault rate), must fail to
// resume with an error that names the problem, never run a campaign nobody
// asked for. The files are re-saved after each edit, so their checksums
// are valid.
func TestFacadeResumeRejectsMalformedTopology(t *testing.T) {
	dir := t.TempDir()
	save := func(name string, cfg lego.Config) string {
		path := filepath.Join(dir, name)
		if _, err := lego.NewFuzzer(cfg).FuzzWithCheckpoint(3000, path, 1000); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oneCfg := lego.Config{Target: lego.MariaDB, Seed: 3}
	twoCfg := lego.Config{Target: lego.MariaDB, Seed: 3, Workers: 2}
	minusCfg := lego.Config{Target: lego.MariaDB, Seed: 3, DisableSequenceAlgorithms: true}
	faultCfg := lego.Config{Target: lego.MariaDB, Seed: 3, FaultRate: 0.01}
	one, two := save("one.ckpt", oneCfg), save("two.ckpt", twoCfg)
	minus, fault := save("minus.ckpt", minusCfg), save("fault.ckpt", faultCfg)
	noEdit := func(*checkpoint.State) {}

	cases := []struct {
		name string
		from string
		edit func(*checkpoint.State)
		cfg  lego.Config
		want string
	}{
		{"shard list cut to one entry", two, func(st *checkpoint.State) { st.Shards = st.Shards[:1] }, twoCfg, "1 shard entries"},
		{"no workers", two, func(st *checkpoint.State) { st.Workers = 0 }, twoCfg, "0 workers"},
		{"no epoch budget", two, func(st *checkpoint.State) { st.EpochStmts = 0 }, twoCfg, "EpochStmts 0"},
		{"one-worker checkpoint with no epoch budget", one, func(st *checkpoint.State) { st.EpochStmts = 0 }, oneCfg, "EpochStmts 0"},
		{"single-threaded checkpoint as two workers", one, noEdit, twoCfg, "Workers 1"},
		{"two-worker checkpoint as one", two, noEdit, oneCfg, "Workers 2"},
		{"LEGO- checkpoint as LEGO", minus, noEdit, oneCfg, "DisableSequenceAlgorithms true"},
		{"LEGO checkpoint as LEGO-", one, noEdit, minusCfg, "DisableSequenceAlgorithms false"},
		{"fault-injected checkpoint without faults", fault, noEdit, oneCfg, "FaultRate 0.01"},
		{"checkpoint at another fault rate", fault, func(st *checkpoint.State) { st.FaultRate = 0.02 }, faultCfg, "FaultRate 0.02"},
		{"hazard-free checkpoint with hazards", one, func(st *checkpoint.State) { st.DisableHazards = true }, oneCfg, "Hazards false"},
		{"split-seed checkpoint without splitting", one, func(st *checkpoint.State) { st.SplitLongSeeds = true }, oneCfg, "SplitLongSeeds true"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := checkpoint.Load(tc.from)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(st)
			path := filepath.Join(t.TempDir(), "edited.ckpt")
			if err := checkpoint.Save(path, st); err != nil {
				t.Fatal(err)
			}
			f, err := lego.ResumeFuzzer(tc.cfg, path)
			if err == nil {
				t.Fatalf("resumed a malformed checkpoint: %+v", f.Fuzz(st.Stmts))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error does not name the problem:\n  got  %v\n  want substring %q", err, tc.want)
			}
		})
	}
}
