// Package triage turns raw oracle crashes into trustworthy bug reports.
// The campaign oracle deduplicates crashes by call stack (paper §V-A) but
// keeps whatever test case happened to trip each stack first — often a long,
// noise-laden sequence produced deep inside a mutation schedule. Real
// fuzzing stacks (AFL++'s afl-tmin, SQUIRREL's query reduction) treat triage
// as a first-class robustness layer: a report that cannot be replayed
// deterministically cannot be trusted, and a reproducer nobody can read is
// barely a reproducer at all.
//
// The pipeline runs at campaign end over every unique crash:
//
//  1. Re-verification — the recorded reproducer is replayed Config.Replays
//     times on a fresh quarantined engine built from the campaign
//     configuration. The crash is classified STABLE (every replay produced
//     the same normalized stack key), FLAKY (some did), or LOST (none did —
//     typically an injected organic fault whose schedule has moved on).
//  2. Minimization — ddmin over the statement sequence: first every single
//     statement is dropped greedily to a fixpoint, then chunks found by
//     binary chopping. A candidate is accepted only when its replay crashes
//     with the *same* stack key, so minimization can never wander to a
//     different bug. A hard per-crash step budget bounds the work.
//  3. Re-record — the crash entry is updated in place: the shortest known
//     reproducer, the classification, and the replay tally, all of which
//     round-trip through checkpoints.
//
// Replays execute through a private harness.Runner, so organic panics during
// triage are contained and quarantined exactly as during the campaign, and
// campaign counters (Execs, Stmts, EnginePanics) are untouched.
package triage

import (
	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/oracle"
	"github.com/seqfuzz/lego/internal/sqlast"
)

// Status classifies a crash after re-verification.
type Status string

const (
	// Stable: every verification replay reproduced the same stack key.
	Stable Status = "STABLE"
	// Flaky: some, but not all, replays reproduced the stack key.
	Flaky Status = "FLAKY"
	// Lost: no replay reproduced the stack key on a fresh engine.
	Lost Status = "LOST"
)

// Config bounds the triage pass.
type Config struct {
	// Replays is the number of verification replays per crash (default 3).
	Replays int
	// Budget is the maximum number of ddmin candidate replays spent
	// minimizing one crash (default 256). Verification replays are not
	// charged against it: they are already bounded by Replays × crashes.
	Budget int
}

func (c *Config) fill() {
	if c.Replays <= 0 {
		c.Replays = 3
	}
	if c.Budget <= 0 {
		c.Budget = 256
	}
}

// Summary tallies one triage pass.
type Summary struct {
	// Triaged is the number of crashes processed.
	Triaged int
	// Stable, Flaky, Lost count the classifications.
	Stable, Flaky, Lost int
	// Shrunk counts crashes whose reproducer got strictly shorter.
	Shrunk int
	// Steps is the total number of replay executions performed.
	Steps int
}

// Triager replays and minimizes crashes on a private quarantined engine.
type Triager struct {
	cfg    Config
	runner *harness.Runner
}

// New builds a triager. engCfg must be the campaign's engine configuration
// (harness.Runner.Config()), so hazard arming, dialect, and the fault
// injector's seed match the engine the crashes were found on — triage is
// then a pure function of (engine config, crash list, Config) and two passes
// over the same campaign give identical results.
func New(engCfg minidb.Config, cfg Config) *Triager {
	cfg.fill()
	return &Triager{cfg: cfg, runner: harness.NewRunnerWithConfig(engCfg)}
}

// Steps returns the number of replay executions performed so far.
func (t *Triager) Steps() int { return t.runner.Execs }

// Run triages every crash in the oracle, in discovery order, updating each
// entry in place: Status, OriginalLen, MinimizedLen, Replays, and — when
// minimization found a shorter sequence with the same stack key — the
// Reproducer itself.
func (t *Triager) Run(o *oracle.Oracle) Summary {
	var s Summary
	for _, c := range o.Crashes() {
		t.triageOne(c)
		s.Triaged++
		switch Status(c.Status) {
		case Stable:
			s.Stable++
		case Flaky:
			s.Flaky++
		case Lost:
			s.Lost++
		}
		if c.MinimizedLen < c.OriginalLen {
			s.Shrunk++
		}
	}
	s.Steps = t.runner.Execs
	return s
}

// triageOne re-verifies and minimizes a single crash.
func (t *Triager) triageOne(c *oracle.Crash) {
	key := c.Report.StackKey()
	orig := c.Reproducer
	matches := 0
	for i := 0; i < t.cfg.Replays; i++ {
		if t.replay(orig, key) {
			matches++
		}
	}
	c.OriginalLen = len(orig)
	c.Replays = matches
	switch {
	case matches == t.cfg.Replays:
		c.Status = string(Stable)
	case matches > 0:
		c.Status = string(Flaky)
	default:
		// Nothing to minimize against: the stack is unreachable on a fresh
		// engine, so the recorded sequence is the only evidence we have.
		c.Status = string(Lost)
		c.MinimizedLen = len(orig)
		return
	}
	min := t.ddmin(orig, key)
	c.MinimizedLen = len(min)
	if len(min) < len(orig) {
		c.Reproducer = min
	}
}

// replay executes tc on the triage engine and reports whether it crashed
// with exactly the wanted stack key.
func (t *Triager) replay(tc sqlast.TestCase, wantKey string) bool {
	_, _, crash := t.runner.Execute(tc)
	return crash != nil && crash.StackKey() == wantKey
}
