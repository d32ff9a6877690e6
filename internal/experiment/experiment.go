// Package experiment reproduces the paper's evaluation: it runs calibrated
// fuzzing campaigns and formats the results as the paper's tables and
// figures. Campaign budgets are execution counts rather than wall-clock
// hours (DESIGN.md §2); relative comparisons are what the reproduction
// checks.
package experiment

import (
	"fmt"
	"sort"
	"strings"

	"github.com/seqfuzz/lego/internal/baselines"
	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/oracle"
	"github.com/seqfuzz/lego/internal/shard"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Budgets map the paper's time scales onto statement-execution counts
// (statements, not test cases: statements are the unit proportional to
// wall-clock time, which matters for the §VI length study).
type Budgets struct {
	// DayStmts models the 24-hour comparison campaigns (Fig. 9, Tables
	// II-IV).
	DayStmts int
	// ContinuousStmts models the continuous-fuzzing campaign behind
	// Table I's 102 bugs.
	ContinuousStmts int
	// Seed is the base RNG seed; each campaign derives its own.
	Seed int64
}

// DefaultBudgets returns the standard reproduction scale (a few seconds per
// campaign on commodity hardware).
func DefaultBudgets() Budgets {
	return Budgets{DayStmts: 200000, ContinuousStmts: 1000000, Seed: 1}
}

// QuickBudgets returns a scaled-down variant for tests and `go test -bench`.
// 40k statements is just past the point where LEGO's coverage curve has
// separated from SQLsmith's on PostgreSQL (the curves cross early, as in
// the paper's Figure 9).
func QuickBudgets() Budgets {
	return Budgets{DayStmts: 40000, ContinuousStmts: 120000, Seed: 1}
}

// FuzzerName identifies a strategy.
type FuzzerName string

// The evaluated fuzzers, plus two design-choice ablations of LEGO itself.
const (
	FuzzerLEGO      FuzzerName = "LEGO"
	FuzzerLEGOMinus FuzzerName = "LEGO-"
	FuzzerSquirrel  FuzzerName = "SQUIRREL"
	FuzzerSQLancer  FuzzerName = "SQLancer"
	FuzzerSQLsmith  FuzzerName = "SQLsmith"
	// FuzzerLEGORandomSeq replaces affinity-gated synthesis with uniformly
	// random type sequences (the arbitrary-permutation strawman of
	// challenges C1/C2).
	FuzzerLEGORandomSeq FuzzerName = "LEGO-randseq"
	// FuzzerLEGONoCovGate extracts affinities from every mutant instead of
	// only coverage-novel ones (removes Algorithm 1's filter).
	FuzzerLEGONoCovGate FuzzerName = "LEGO-nocovgate"
	// FuzzerLEGOSplit enables the §VI future-work extension that splits
	// long retained seeds into overlapping short seeds.
	FuzzerLEGOSplit FuzzerName = "LEGO-split"
)

// CampaignResult is the outcome of one (fuzzer, dialect, budget) run.
type CampaignResult struct {
	Fuzzer  FuzzerName
	Dialect sqlt.Dialect
	Execs   int
	// Branches is the branch-coverage metric (distinct edges).
	Branches int
	// GenAffinities counts type-affinities contained in the generated test
	// cases (Table II / Table IV metric).
	GenAffinities int
	// DiscoveredAffinities counts affinities LEGO's analysis recorded
	// (zero for baselines and LEGO-).
	DiscoveredAffinities int
	// Crashes are the deduplicated bugs.
	Crashes []*oracle.Crash
	// Curve samples branch coverage over executions, every 50 test cases
	// (RunCampaign only).
	Curve []harness.CurvePoint
}

// Bugs returns the number of unique bugs found.
func (c *CampaignResult) Bugs() int { return len(c.Crashes) }

// campaignSeed derives a per-campaign RNG seed so fuzzers don't share
// random streams.
func campaignSeed(base int64, f FuzzerName, d sqlt.Dialect) int64 {
	h := int64(1469598103934665603)
	for _, b := range []byte(string(f) + "|" + d.String()) {
		h ^= int64(b)
		h *= 1099511628211
	}
	return base ^ h
}

// RunCampaign executes one fuzzing campaign with hazards armed.
func RunCampaign(f FuzzerName, d sqlt.Dialect, execs int, seed int64, maxLen int) CampaignResult {
	s := campaignSeed(seed, f, d)
	opts := core.Options{Dialect: d, Seed: s, Hazards: true, MaxLen: maxLen}
	var r harness.Fuzzer
	switch f {
	case FuzzerLEGO:
	case FuzzerLEGOMinus:
		opts.DisableSequenceAlgorithms = true
	case FuzzerLEGORandomSeq:
		opts.RandomSequences = true
	case FuzzerLEGONoCovGate:
		opts.NoCoverageGate = true
	case FuzzerLEGOSplit:
		opts.SplitLongSeeds = true
	case FuzzerSquirrel:
		r = baselines.NewSquirrel(d, s, true)
	case FuzzerSQLancer:
		r = baselines.NewSQLancer(d, s, true)
	case FuzzerSQLsmith:
		r = baselines.NewSQLsmith(d, s, true)
	default:
		panic("unknown fuzzer " + string(f))
	}
	var lego *core.Fuzzer
	if r == nil {
		lego = core.New(opts)
		r = lego
	}
	runner := harness.Run(r, execs, execs)
	res := CampaignResult{
		Fuzzer:        f,
		Dialect:       d,
		Execs:         runner.Execs,
		Branches:      runner.Branches(),
		GenAffinities: runner.GenAff.Count(),
		Crashes:       runner.Oracle.Crashes(),
		Curve:         runner.Curve,
	}
	if lego != nil {
		res.DiscoveredAffinities = lego.Affinities()
	}
	return res
}

// RunShardedCampaign executes one LEGO campaign as a deterministic sharded
// run (internal/shard): workers parallel fuzzers sharing the total statement
// budget, merged at epoch barriers, reported as the global view. The result
// depends only on the arguments, never on scheduling, so scaling studies
// (Figure 9 at N workers) are reproducible run to run. epochStmts <= 0 uses
// the executor's default.
func RunShardedCampaign(d sqlt.Dialect, stmts int, seed int64, maxLen, workers, epochStmts int) CampaignResult {
	res, _ := RunChaoticCampaign(d, stmts, seed, maxLen, workers, epochStmts, 0, 0)
	return res
}

// ChaosStats summarizes how a supervised campaign's failure handling went:
// the statements it actually executed (a quarantined shard forfeits its
// residual budget), the incident journal size, and the degraded topology.
type ChaosStats struct {
	Stmts       int
	Incidents   int
	Quarantined int
}

// RunChaoticCampaign is RunShardedCampaign with the chaos plane armed:
// injected worker panics and epoch stalls exercise the supervisor's
// retry-from-barrier-snapshot path while the campaign runs. Like its
// fault-free sibling, the result — incident journal included — is a pure
// function of the arguments. A zero chaosRate disarms the plane, which is
// how RunShardedCampaign runs.
func RunChaoticCampaign(d sqlt.Dialect, stmts int, seed int64, maxLen, workers, epochStmts int, chaosRate float64, chaosSeed int64) (CampaignResult, ChaosStats) {
	s := campaignSeed(seed, FuzzerLEGO, d)
	e := shard.New(shard.Options{
		Core:       core.Options{Dialect: d, Seed: s, Hazards: true, MaxLen: maxLen},
		Workers:    workers,
		EpochStmts: epochStmts,
		ChaosRate:  chaosRate,
		ChaosSeed:  chaosSeed,
	})
	if _, err := e.Run(stmts, shard.RunOptions{}); err != nil {
		// Run can only fail through a Save hook, and none is installed.
		panic(err)
	}
	res := CampaignResult{
		Fuzzer:               FuzzerLEGO,
		Dialect:              d,
		Execs:                e.Execs(),
		Branches:             e.Branches(),
		GenAffinities:        e.GenAffinities(),
		DiscoveredAffinities: e.Affinities(),
		Crashes:              e.Oracle().Crashes(),
	}
	return res, ChaosStats{
		Stmts:       e.Stmts(),
		Incidents:   len(e.Incidents()),
		Quarantined: len(e.QuarantinedShards()),
	}
}

// --- formatting helpers ------------------------------------------------

func formatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

func pct(newer, older int) string {
	if older == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+d%%", (newer-older)*100/older)
}

func sortedKeys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
