package shard

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"github.com/seqfuzz/lego/internal/chaos"
	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/minidb"
)

// This file is the executor's supervision plane: workers run under recover,
// and a worker that fails mid-epoch — an injected chaos fault, or a real
// panic escaping the harness — never takes the campaign down. The epoch is
// the unit of recovery: every epoch starts from a snapshot of the campaign
// (the checkpoint.State a campaign saves to disk), so a failed shard
// discards its partial epoch, restores its entry, and re-runs the epoch
// deterministically. Re-runs draw against a cumulative
// per-shard retry budget; exhausting it quarantines the shard — it keeps its
// last-good state, already merged at a prior barrier, and the campaign
// degrades to fewer workers instead of dying.
//
// Determinism survives supervision because every moving part is keyed, not
// raced: chaos decisions are pure functions of (epoch, shard, attempt),
// failures are collected in per-shard slots behind the WaitGroup barrier and
// processed in shard-index order, and restores rebuild a shard from a
// barrier snapshot bit-for-bit. Same options, same failures, same retries,
// same incident journal.

// plan is the chaos schedule for one (epoch, shard, attempt): whether and
// where the worker panics or stalls. It is computed on the coordinator
// before the worker goroutine spawns, so workers never share the injector.
type plan struct {
	attempt   int
	panicFire bool
	panicFrac float64
	stallFire bool
	stallFrac float64
}

// supervised reports whether anything can make a worker fail mid-epoch:
// the chaos plane is armed, or a test installed a fault hook. Only then
// are barrier snapshots needed for restore.
func (e *Executor) supervised() bool {
	return e.chaos != nil || e.testFault != nil
}

func (e *Executor) plan(epoch, shard, attempt int) plan {
	p := plan{attempt: attempt}
	if e.chaos == nil {
		return p
	}
	p.panicFire, p.panicFrac = e.chaos.WorkerPanic(epoch, shard, attempt)
	p.stallFire, p.stallFrac = e.chaos.EpochStall(epoch, shard, attempt)
	return p
}

// workerFailure is what a worker goroutine reports back instead of crashing
// the process: the incident kind and its deterministic detail.
type workerFailure struct {
	kind   string
	detail string
}

// runEpoch drives every unfinished shard to the next epoch boundary under
// supervision, retrying failed shards from their barrier snapshots until
// each one has either finished the epoch or been quarantined. This is the
// only place the executor spawns shard goroutines. The WaitGroup barrier in
// each round synchronizes them with the coordinator; the only other
// synchronization is Run's hand-off to its background save, which touches
// nothing the shards do.
//
// With encode set (a leg that saves), each shard also builds the checkpoint
// entries of the seeds it made this epoch on its own goroutine, so the next
// snapshot does not build them while every shard is parked.
func (e *Executor) runEpoch(targets []int, encode bool) {
	// Barrier snapshots exist to re-run failed epochs, and epochs can only
	// fail under supervision (the chaos plane or the test fault hook). Take
	// them lazily here — the shards are exactly in their post-barrier states
	// — so an unsupervised campaign skips the Snapshot cost entirely.
	if e.supervised() && (e.snap == nil || e.snap.Epoch != e.epoch) {
		e.snap = e.Snapshot()
	}
	legs := e.legs(targets)
	attempts := make([]int, len(e.shards))
	for {
		// Collect this round's runnable shards: not quarantined, epoch
		// unfinished. A shard that failed last round was restored to its
		// barrier snapshot, so its statement count is back below the
		// boundary and it re-enters here with a bumped attempt.
		type job struct {
			shard int
			leg   leg
			p     plan
		}
		var jobs []job
		for i, sh := range e.shards {
			if e.quarantined[i] || sh.Runner().Stmts >= legs[i].stop() {
				continue
			}
			jobs = append(jobs, job{i, legs[i], e.plan(e.epoch, i, attempts[i])})
		}
		if len(jobs) == 0 {
			return
		}

		// failures[i] is written only by shard i's goroutine and read only
		// after the barrier: per-slot ownership plus the WaitGroup is the
		// whole synchronization story.
		failures := make([]*workerFailure, len(e.shards))
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				failures[j.shard] = e.runWorker(j.shard, j.leg, j.p, encode)
			}(j)
		}
		wg.Wait()

		// Resolve failures in shard-index order on the coordinator, so the
		// incident journal and the retry bookkeeping are schedule-independent.
		for i := range e.shards {
			f := failures[i]
			if f == nil {
				continue
			}
			e.restore(i)
			in := harness.Incident{Epoch: e.epoch, Shard: i, Kind: f.kind, Detail: f.detail}
			if e.retries[i] < e.opts.MaxEpochRetries {
				e.retries[i]++
				attempts[i]++
				in.Retries = e.retries[i]
				in.Outcome = harness.IncidentRetried
			} else {
				e.quarantined[i] = true
				in.Retries = e.retries[i]
				in.Outcome = harness.IncidentQuarantined
			}
			e.incidents = append(e.incidents, in)
		}
	}
}

// leg is one shard's run to the next barrier: harness.Run's hard target
// and soft end.
type leg struct{ target, end int }

// stop is the statement count the leg reaches at the latest.
func (l leg) stop() int { return min(l.target, l.end) }

// legs sets each shard's run to the next barrier. With several shards the
// end is hard: every shard stops at (epoch+1)*EpochStmts statements or at
// its budget target, whichever comes first, so epochs are equally long and
// no long iteration keeps the other shards waiting at the barrier. A lone
// shard waits for nobody and has nothing to merge, so its end is soft: it
// runs whole iterations until it has executed EpochStmts more statements,
// and only its budget target cuts an iteration short. Its barriers then fall
// on iteration boundaries of the uninterrupted core loop and leave its
// schedule unchanged.
func (e *Executor) legs(targets []int) []leg {
	out := make([]leg, len(e.shards))
	for i, sh := range e.shards {
		if len(e.shards) == 1 {
			out[i] = leg{targets[i], sh.Runner().Stmts + e.opts.EpochStmts}
			continue
		}
		hard := min(targets[i], (e.epoch+1)*e.opts.EpochStmts)
		out[i] = leg{hard, hard}
	}
	return out
}

// runWorker runs shard i through its leg on the worker goroutine,
// executing the chaos plan and containing every panic — injected or organic
// — as a structured failure instead of a dead process.
//
// Injected failures are deterministic prefixes: a scheduled panic runs the
// worker to panicFrac of its remaining leg and then panics with
// the fault's coordinates; a scheduled stall likewise parks the worker at
// stallFrac, modeling a worker that stops making progress, and reports the
// stall the supervisor's step watchdog would raise at the barrier. Both
// leave the shard mid-epoch — exactly the partial state a restore discards.
func (e *Executor) runWorker(i int, l leg, p plan, encode bool) (fail *workerFailure) {
	sh := e.shards[i]
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if ip, ok := rec.(chaos.InjectedPanic); ok {
			fail = &workerFailure{kind: harness.IncidentWorkerPanic, detail: ip.Error()}
			return
		}
		// An organic panic: a real bug in the harness or fuzzer, not the
		// engine (the runner contains those). Normalize its stack so the
		// incident is a deterministic, deduplicable record.
		buf := make([]byte, 64<<10)
		buf = buf[:runtime.Stack(buf, false)]
		detail := strings.Join(minidb.NormalizeStack(buf), " < ")
		if detail == "" {
			detail = fmt.Sprintf("panic: %v", rec)
		}
		fail = &workerFailure{kind: harness.IncidentOrganicPanic, detail: detail}
	}()

	if e.testFault != nil {
		e.testFault(e.epoch, i, p.attempt)
	}

	start := sh.Runner().Stmts
	span := l.stop() - start
	switch {
	case p.panicFire:
		at := start + int(p.panicFrac*float64(span))
		harness.Run(sh, at, at)
		panic(chaos.InjectedPanic{Epoch: e.epoch, Shard: i, Attempt: p.attempt})
	case p.stallFire:
		at := start + int(p.stallFrac*float64(span))
		harness.Run(sh, at, at)
		return &workerFailure{
			kind: harness.IncidentEpochStall,
			detail: fmt.Sprintf("chaos: injected epoch stall (epoch %d, shard %d, attempt %d)",
				e.epoch, i, p.attempt),
		}
	default:
		harness.Run(sh, l.target, l.end)
		if encode {
			// Seeds made this epoch are the shard's own until the barrier
			// shares them.
			for _, s := range sh.Pool().Since(e.poolMark[i]) {
				s.Entry()
			}
		}
	}
	return nil
}

// restore discards shard i's partial epoch and rebuilds it, as Resume
// does, from the last barrier snapshot, keeping the seed objects its pool
// held then (pools only grow). A missing snapshot is a programming error.
func (e *Executor) restore(i int) {
	if e.snap == nil {
		panic(fmt.Sprintf("shard: restore shard %d: no barrier snapshot (supervision not armed at epoch start?)", i))
	}
	e.resumeShard(i, e.snap, e.shards[i].Pool().All()[:len(e.snap.Shards[i].Pool)])
}
