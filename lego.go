// Package lego is the public API of the LEGO reproduction: a sequence-
// oriented DBMS fuzzer (Liang et al., "Sequence-Oriented DBMS Fuzzing",
// ICDE 2023) together with the full substrate it runs on — an in-memory
// multi-dialect SQL engine with AFL-style branch-coverage feedback and a
// seeded memory-safety bug corpus.
//
// # Quick start
//
//	f := lego.NewFuzzer(lego.Config{Target: lego.MariaDB})
//	report := f.Fuzz(200000) // statement budget
//	fmt.Println(report.Branches, report.Bugs)
//
// # What the fuzzer does
//
// LEGO's contribution is generating test cases with abundant SQL Type
// Sequences. Each iteration proactively mutates a seed's statement types
// (substitution / insertion / deletion), extracts type-affinities from
// mutants that covered new branches, and progressively synthesizes every
// new type sequence containing a newly discovered affinity, instantiating
// each into executable SQL via an AST structure library with dependency
// fixing. See DESIGN.md for the module map and EXPERIMENTS.md for the
// reproduction of the paper's tables and figures.
package lego

import (
	"fmt"
	"slices"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/oracle"
	"github.com/seqfuzz/lego/internal/shard"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
	"github.com/seqfuzz/lego/internal/triage"
)

// Target selects the DBMS dialect profile to fuzz, mirroring the paper's
// four evaluation targets.
type Target = sqlt.Dialect

// The four target profiles.
const (
	PostgreSQL = sqlt.DialectPostgres
	MySQL      = sqlt.DialectMySQL
	MariaDB    = sqlt.DialectMariaDB
	Comdb2     = sqlt.DialectComdb2
)

// Config configures a fuzzing session.
type Config struct {
	// Target is the DBMS profile to fuzz (default PostgreSQL).
	Target Target
	// Seed makes the whole session deterministic (default 1).
	Seed int64
	// MaxSequenceLength is Algorithm 3's LEN cap (default 5).
	MaxSequenceLength int
	// DisableSequenceAlgorithms runs the LEGO- ablation: conventional
	// intra-statement mutation only.
	DisableSequenceAlgorithms bool
	// DisableHazards turns off the seeded bug corpus; the engine then never
	// crashes and the session measures pure coverage.
	DisableHazards bool
	// SplitLongSeeds enables the paper's §VI future-work extension: long
	// retained seeds are additionally split into overlapping short seeds.
	SplitLongSeeds bool
	// FaultRate arms the engine's deterministic fault injector: before and
	// after dispatch, each statement panics with a non-seeded (organic)
	// fault at this probability, exercising the harness's crash
	// containment. Each decision is keyed by (Seed, execution, statement,
	// site), so the schedule needs no state of its own and survives resume.
	// Contained panics surface as Report.EnginePanics and as deduplicated
	// PANIC bugs. Zero disables injection.
	FaultRate float64
	// Triage runs the crash triage pipeline when a Fuzz call ends: every
	// unique crash is replayed 3 times on a fresh quarantined engine and
	// classified STABLE/FLAKY/LOST, and its reproducer is minimized with
	// ddmin (accepting only candidates that crash with the same call
	// stack, in at most 256 replays). Results land in Bug.Status, Bug.OriginalLen,
	// Bug.MinimizedLen, and Bug.Replays, and persist in checkpoints.
	Triage bool
	// Workers runs the campaign as N parallel shards — each a complete
	// private fuzzer seeded Seed+shardID — that merge deterministically at
	// epoch barriers: coverage OR-folds, seeds and affinities and crashes
	// cross-pollinate, all in fixed shard order. The report and checkpoint
	// depend only on (Config, Workers, EpochStmts), never on goroutine
	// scheduling. Workers <= 1 (the default) runs one shard: there is
	// nothing to merge, its epochs end at iteration boundaries, and the
	// campaign is the uninterrupted fuzzing loop, with barriers marking
	// where it can save and stop.
	Workers int
	// EpochStmts is the per-shard statement budget between barriers
	// (default 2000). With several workers every epoch ends at exactly this
	// many statements; one worker ends its epoch at the first iteration
	// boundary past it. Like Seed, it is part of the campaign's identity: a
	// checkpoint only resumes under the same value.
	EpochStmts int
	// ChaosRate arms the deterministic chaos plane: worker panics, epoch
	// stalls, and checkpoint I/O faults are injected with this per-decision
	// probability, on a schedule that is a pure function of (ChaosRate,
	// ChaosSeed). Failed epochs are retried from the last barrier snapshot;
	// shards that exhaust MaxEpochRetries are quarantined and the campaign
	// degrades gracefully. Zero (the default) injects nothing and leaves
	// reports and checkpoints byte-identical to an unsupervised session.
	ChaosRate float64
	// ChaosSeed selects the fault schedule (default: Seed). Like Seed it is
	// campaign identity: a chaotic checkpoint only resumes under the same
	// schedule.
	ChaosSeed int64
	// MaxEpochRetries is the cumulative per-shard retry budget in epoch
	// re-runs (default 3; negative means quarantine on first failure).
	MaxEpochRetries int
}

// Bug describes one deduplicated crash.
type Bug struct {
	// ID is the stable identifier of the seeded bug (CVE/MDEV/BUG style).
	ID string
	// Component is the engine component the bug lives in.
	Component string
	// Kind is the memory-safety class (SEGV, UAF, BOF, ...).
	Kind string
	// Reproducer is the shortest known SQL script that triggers the crash:
	// the first-seen script, shortened whenever the same stack recurs with
	// fewer statements, and ddmin-minimized when triage is enabled.
	Reproducer string
	// FoundAtExec is the execution count at discovery.
	FoundAtExec int

	// Status is the triage classification: "STABLE" (every verification
	// replay reproduced the same call stack on a fresh engine), "FLAKY"
	// (some did), or "LOST" (none did). Empty when triage did not run.
	Status string
	// OriginalLen and MinimizedLen are the reproducer's statement counts
	// before and after minimization (zero when triage did not run).
	OriginalLen  int
	MinimizedLen int
	// Replays is how many of the triage's verification replays reproduced
	// the crash.
	Replays int
}

// Report summarizes a fuzzing session.
type Report struct {
	// Executions is the number of test cases executed.
	Executions int
	// Statements is the number of SQL statements executed.
	Statements int
	// Branches is the branch-coverage metric (distinct coverage edges).
	Branches int
	// Affinities is the number of type-affinities discovered (zero when
	// sequence algorithms are disabled).
	Affinities int
	// SeedPool is the final corpus size.
	SeedPool int
	// EnginePanics counts organic engine panics that the harness contained
	// (converted to synthetic PANIC bugs) instead of dying. Always zero
	// unless the engine has a genuine defect or Config.FaultRate is set.
	EnginePanics int
	// Interrupted reports that the run ended on FuzzOptions.Stop with
	// budget remaining: the report covers a gracefully shut-down partial
	// campaign, not a completed one.
	Interrupted bool
	// Bugs lists the unique crashes found, in discovery order.
	Bugs []Bug

	// Workers is the campaign's starting worker topology (1 when
	// Config.Workers <= 1).
	Workers int
	// Quarantined lists the shards whose retry budget was exhausted; the
	// campaign finished degraded to Workers-len(Quarantined) workers.
	Quarantined []int
	// Incidents is the supervised campaign's failure journal: every worker
	// failure (injected or organic) and how the supervisor resolved it, in
	// occurrence order. Deterministic for a fixed (Config, ChaosRate,
	// ChaosSeed).
	Incidents []Incident
	// SaveFaults counts checkpoint saves eaten by injected I/O faults (the
	// campaign skipped them and kept running; the previous generation
	// remained on disk).
	SaveFaults int
}

// Incident is one entry of a supervised campaign's failure journal: the
// barrier interval (Epoch) and worker (Shard) a failure struck, its Kind
// (WORKER_PANIC or EPOCH_STALL, injected by the chaos plane, or
// ORGANIC_PANIC, a real panic the supervisor contained), the shard's
// cumulative Retries after it, the Outcome (RETRIED or QUARANTINED), and
// the fault's coordinates or normalized panic stack as Detail. It is the
// checkpointed journal entry itself.
type Incident = checkpoint.Incident

// Fuzzer is a LEGO fuzzing session against one target. Every session runs
// on the campaign executor, a one-worker session as one shard.
type Fuzzer struct {
	ex  *shard.Executor
	cfg Config
	// resumeWarning is set when ResumeFuzzer had to fall back to the
	// rotated .bak checkpoint generation.
	resumeWarning string
}

func (cfg Config) options() shard.Options {
	return shard.Options{
		Core: core.Options{
			Dialect:                   cfg.Target,
			Seed:                      cfg.Seed,
			MaxLen:                    cfg.MaxSequenceLength,
			DisableSequenceAlgorithms: cfg.DisableSequenceAlgorithms,
			Hazards:                   !cfg.DisableHazards,
			SplitLongSeeds:            cfg.SplitLongSeeds,
			FaultRate:                 cfg.FaultRate,
		},
		Workers:         cfg.Workers,
		EpochStmts:      cfg.EpochStmts,
		ChaosRate:       cfg.ChaosRate,
		ChaosSeed:       cfg.ChaosSeed,
		MaxEpochRetries: cfg.MaxEpochRetries,
	}
}

// NewFuzzer builds a fuzzing session.
func NewFuzzer(cfg Config) *Fuzzer {
	return &Fuzzer{ex: shard.New(cfg.options()), cfg: cfg}
}

// ResumeFuzzer rebuilds a fuzzing session from a checkpoint file written by
// FuzzWithCheckpoint. cfg must describe the same campaign (target, seed,
// sequence length, LEGO- ablation, hazards, seed splitting, fault rate,
// topology, chaos schedule), or resuming fails naming the difference; the
// restored session
// continues exactly where the checkpoint left off, with the same schedule
// and discoveries as an uninterrupted run. When the primary checkpoint is
// corrupt or truncated, the rotated last-good <path>.bak generation is used
// instead and ResumeWarning reports the substitution.
func ResumeFuzzer(cfg Config, path string) (*Fuzzer, error) {
	st, warning, err := checkpoint.LoadWithFallback(path)
	if err != nil {
		return nil, err
	}
	ex, err := shard.Resume(cfg.options(), st)
	if err != nil {
		return nil, err
	}
	return &Fuzzer{ex: ex, cfg: cfg, resumeWarning: warning}, nil
}

// ResumeWarning is non-empty when ResumeFuzzer could not read the primary
// checkpoint and restored the rotated .bak generation; it describes what was
// lost. Callers should surface it to the operator.
func (f *Fuzzer) ResumeWarning() string { return f.resumeWarning }

// FuzzOptions configures one FuzzWithOptions call.
type FuzzOptions struct {
	// CheckpointPath, when non-empty, persists campaign state there
	// (atomically, checksummed, with a .bak rotation) at the first epoch
	// barrier after every CheckpointEvery test-case executions and once
	// when the run ends — including a run ended by Stop, so an interrupted
	// campaign loses no work. Periodic saves are written in the background
	// while later epochs run, each starting once a shard leaves a core idle.
	CheckpointPath  string
	CheckpointEvery int
	// Stop requests graceful shutdown: when the channel is closed the
	// campaign runs on to the next epoch barrier, stops, flushes its final
	// checkpoint, still runs triage (when Config.Triage is set), and
	// returns a partial report with Interrupted set. Because the stop lands
	// on a barrier — a state an uninterrupted campaign also passes through
	// — resuming the flushed checkpoint and finishing the budget reproduces
	// the uninterrupted campaign exactly. A nil channel never stops.
	Stop <-chan struct{}
}

// Fuzz runs until budgetStmts SQL statements have been executed and returns
// the session report. It may be called repeatedly; state accumulates.
func (f *Fuzzer) Fuzz(budgetStmts int) Report {
	rep, _ := f.FuzzWithOptions(budgetStmts, FuzzOptions{})
	return rep
}

// FuzzWithCheckpoint runs like Fuzz but additionally writes the campaign
// state to path at the first epoch barrier after every everyExecs test-case
// executions (atomically, with a checksum) and once more when the budget is
// exhausted, so the campaign can be resumed with ResumeFuzzer after a crash
// or shutdown.
func (f *Fuzzer) FuzzWithCheckpoint(budgetStmts int, path string, everyExecs int) (Report, error) {
	return f.FuzzWithOptions(budgetStmts, FuzzOptions{CheckpointPath: path, CheckpointEvery: everyExecs})
}

// FuzzWithOptions is the full-featured campaign entry point behind Fuzz and
// FuzzWithCheckpoint: statement budget plus optional checkpointing and
// graceful shutdown. When Config.Triage is set, the triage pipeline runs
// after the loop ends (completed or interrupted) and the checkpoint is
// re-flushed so the triage results persist.
func (f *Fuzzer) FuzzWithOptions(budgetStmts int, opts FuzzOptions) (Report, error) {
	// Saves route through the executor's filesystem, so an armed chaos
	// plane can inject checkpoint I/O faults; the executor skips eaten
	// saves (the previous generation stays on disk) and real disk errors
	// still abort. Save runs in the background while the shards run, so it
	// holds the filesystem rather than the executor.
	var save func(*checkpoint.State) error
	if opts.CheckpointPath != "" {
		fs := f.ex.FS()
		save = func(st *checkpoint.State) error {
			return checkpoint.SaveFS(fs, opts.CheckpointPath, st)
		}
	}
	interrupted, err := f.ex.Run(budgetStmts, shard.RunOptions{
		EveryExecs: opts.CheckpointEvery,
		Save:       save,
		Stop:       opts.Stop,
	})
	if err == nil && f.cfg.Triage {
		f.ex.Triage(triage.Config{})
		if save != nil {
			err = f.ex.AbsorbSaveFault(save(f.ex.Snapshot()))
		}
	}
	rep := f.report()
	rep.Interrupted = interrupted
	return rep, err
}

// report summarizes the campaign from its merged view: totals across
// shards, the OR-folded coverage, the merged oracle, and the supervision
// plane's journal and degradation record.
func (f *Fuzzer) report() Report {
	return Report{
		Executions:   f.ex.Execs(),
		Statements:   f.ex.Stmts(),
		Branches:     f.ex.Branches(),
		Affinities:   f.ex.Affinities(),
		SeedPool:     f.ex.PoolLen(),
		EnginePanics: f.ex.EnginePanics(),
		Bugs:         bugsFrom(f.ex.Oracle().Crashes()),
		Workers:      f.ex.Workers(),
		Quarantined:  f.ex.QuarantinedShards(),
		Incidents:    slices.Clone(f.ex.Incidents()),
		SaveFaults:   f.ex.SaveFaults(),
	}
}

func bugsFrom(crashes []*oracle.Crash) []Bug {
	var bugs []Bug
	for _, c := range crashes {
		bugs = append(bugs, Bug{
			ID:          c.Report.ID,
			Component:   c.Report.Component,
			Kind:        c.Report.Kind,
			Reproducer:  c.Reproducer.SQL(),
			FoundAtExec: c.FoundAtExec,

			Status:       c.Status,
			OriginalLen:  c.OriginalLen,
			MinimizedLen: c.MinimizedLen,
			Replays:      c.Replays,
		})
	}
	return bugs
}

// DB is a standalone handle on the substrate engine, for direct SQL use
// (examples, the REPL, and downstream experimentation).
type DB struct {
	eng *minidb.Engine
}

// Open creates a fresh in-memory database with the given dialect profile.
// Hazards are disarmed: Open'd databases never crash.
func Open(t Target) *DB {
	return &DB{eng: minidb.New(minidb.Config{Dialect: t})}
}

// Result is the outcome of one statement.
type Result struct {
	// Columns names the result columns (queries only).
	Columns []string
	// Rows holds result rows rendered as strings.
	Rows [][]string
	// Affected is the row count touched by DML.
	Affected int
	// Msg is the informational tag of non-query statements.
	Msg string
}

// Exec parses and executes one SQL statement.
func (db *DB) Exec(sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	res, err := db.eng.ExecStmt(stmt)
	if err != nil {
		return nil, err
	}
	return convertResult(res), nil
}

// ExecScript executes a semicolon-separated script, stopping at the first
// error.
func (db *DB) ExecScript(sql string) ([]*Result, error) {
	tc, err := sqlparse.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, stmt := range tc {
		res, err := db.eng.ExecStmt(stmt)
		if err != nil {
			return out, fmt.Errorf("%s: %w", stmt.Type(), err)
		}
		out = append(out, convertResult(res))
	}
	return out, nil
}

func convertResult(res *minidb.Result) *Result {
	out := &Result{Columns: res.Cols, Affected: res.Affected, Msg: res.Msg}
	for _, row := range res.Rows {
		srow := make([]string, len(row))
		for i, v := range row {
			srow[i] = v.String()
		}
		out.Rows = append(out.Rows, srow)
	}
	return out
}

// ParseTypeSequence parses a SQL script and returns its SQL Type Sequence
// in the paper's arrow notation — a convenience for exploring the core
// abstraction.
func ParseTypeSequence(sql string) (string, error) {
	tc, err := sqlparse.ParseScript(sql)
	if err != nil {
		return "", err
	}
	return tc.Types().String(), nil
}

// StatementTypes returns the number of statement types a target accepts
// (the "Types" column of the paper's Table IV).
func StatementTypes(t Target) int { return t.NumStatementTypes() }
