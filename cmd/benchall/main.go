// Command benchall regenerates every table and figure of the paper's
// evaluation section and prints them in the paper's layout, together with
// the expected shape from the paper for side-by-side comparison.
//
// Usage:
//
//	benchall                  # everything, default budgets
//	benchall -quick           # scaled-down budgets
//	benchall -only table3     # one experiment: table1..table4, fig9, length, sharded, perf
//	benchall -only perf       # throughput snapshot (writes BENCH_perf.json)
//	benchall -execs 50000     # override the per-campaign budget
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/seqfuzz/lego/internal/experiment"
	"github.com/seqfuzz/lego/internal/profiling"
	"github.com/seqfuzz/lego/internal/sqlt"
)

func main() {
	quick := flag.Bool("quick", false, "use scaled-down budgets")
	only := flag.String("only", "", "run a single experiment: table1, table2, table3, table4, fig9, length, sharded, perf")
	execs := flag.Int("execs", 0, "override the 24h-equivalent execution budget")
	contExecs := flag.Int("continuous", 0, "override the continuous-fuzzing budget (table1)")
	seed := flag.Int64("seed", 1, "base RNG seed")
	curves := flag.String("curves", "", "write Figure 9 coverage curves as CSV to this file")
	perfFloor := flag.Int("perf-floor", 0, "fail (exit 1) if the perf experiment's workers-1 stmts/s drops below 70% of this floor (0 disables the gate)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	defer stopProfiles()

	b := experiment.DefaultBudgets()
	if *quick {
		b = experiment.QuickBudgets()
	}
	if *execs > 0 {
		b.DayStmts = *execs
	}
	if *contExecs > 0 {
		b.ContinuousStmts = *contExecs
	}
	b.Seed = *seed

	run := func(name string, f func() string) {
		if *only != "" && *only != name {
			return
		}
		start := time.Now()
		out := f()
		fmt.Println(out)
		fmt.Printf("[%s took %.1fs]\n\n", name, time.Since(start).Seconds())
	}

	run("table1", func() string { return experiment.Table1(b).Format() })
	run("fig9", func() string {
		res := experiment.Figure9(b)
		if *curves != "" {
			f, err := os.Create(*curves)
			if err != nil {
				fmt.Fprintf(os.Stderr, "curves: %v\n", err)
			} else {
				if err := res.WriteCurvesCSV(f); err != nil {
					fmt.Fprintf(os.Stderr, "curves: %v\n", err)
				}
				f.Close()
				fmt.Printf("[coverage curves written to %s]\n", *curves)
			}
		}
		return res.Format()
	})
	run("table2", func() string { return experiment.Table2(b).Format() })
	run("table3", func() string { return experiment.Table3(b).Format() })
	run("table4", func() string { return experiment.Table4(b).Format() })
	run("length", func() string { return experiment.LengthStudy(b).Format() })
	run("sharded", func() string { return shardedStudy(b) })
	perfOK := true
	run("perf", func() string {
		out, ok := perfSnapshot(b, *perfFloor)
		perfOK = ok
		return out
	})

	if *only != "" {
		switch *only {
		case "table1", "table2", "table3", "table4", "fig9", "length", "sharded", "perf":
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
			os.Exit(2)
		}
	}
	if !perfOK {
		stopProfiles()
		os.Exit(1)
	}
}

// shardedStudy runs the same MariaDB campaign budget at 1, 2, and 4 workers
// and reports the merged global results with wall-clock throughput. The
// per-worker-count results are deterministic (rerun it: same rows); the
// wall-clock column is the only machine-dependent part, and the speedup it
// shows tracks the core count of the host.
func shardedStudy(b experiment.Budgets) string {
	var sb strings.Builder
	sb.WriteString("Sharded execution — deterministic N-worker scaling (MariaDB)\n")
	sb.WriteString(fmt.Sprintf("%7s  %10s  %8s  %10s  %5s  %8s  %8s\n",
		"workers", "execs", "branches", "affinities", "bugs", "seconds", "execs/s"))
	for _, w := range []int{1, 2, 4} {
		start := time.Now()
		res := experiment.RunShardedCampaign(sqlt.DialectMariaDB, b.DayStmts, b.Seed, 5, w, 0)
		dur := time.Since(start).Seconds()
		execsPerSec := 0.0
		if dur > 0 {
			execsPerSec = float64(res.Execs) / dur
		}
		sb.WriteString(fmt.Sprintf("%7d  %10d  %8d  %10d  %5d  %8.2f  %8.0f\n",
			w, res.Execs, res.Branches, res.DiscoveredAffinities, res.Bugs(), dur, execsPerSec))
	}
	sb.WriteString("\n(paper: LEGO ran as parallel AFL++ instances per target; here the shards\n merge at epoch barriers, so every row above is bit-reproducible per seed)\n")
	return sb.String()
}

// perfRow is one configuration of the throughput snapshot.
type perfRow struct {
	Name        string  `json:"name"`
	Workers     int     `json:"workers"`
	ChaosRate   float64 `json:"chaos_rate"`
	Statements  int     `json:"statements"`
	Executions  int     `json:"executions"`
	Branches    int     `json:"branches"`
	Bugs        int     `json:"bugs"`
	Incidents   int     `json:"incidents"`
	Quarantined int     `json:"quarantined"`
	Seconds     float64 `json:"seconds"`
	StmtsPerSec float64 `json:"stmts_per_sec"`
}

// perfSnapshot measures end-to-end campaign throughput (statements/sec) at
// one worker, four workers, and four workers with the chaos plane armed —
// the supervision overhead row. It writes the machine-readable snapshot to
// BENCH_perf.json, appends one line to the BENCH_history.jsonl trajectory,
// and — when floor > 0 — gates the workers-1 throughput at 70% of the
// floor, returning ok=false on a regression. Campaign results per row are
// deterministic; the timing columns are the machine-dependent part.
func perfSnapshot(b experiment.Budgets, floor int) (string, bool) {
	const epochStmts = 500
	type cfgRow struct {
		name      string
		workers   int
		chaosRate float64
	}
	// The chaos rate is picked so a default-budget campaign sees a handful
	// of supervised failures per shard — enough retry work to price the
	// supervision overhead, not enough to quarantine the fleet and turn the
	// row into a degradation study.
	cfgs := []cfgRow{
		{"workers-1", 1, 0},
		{"workers-4", 4, 0},
		{"workers-4-chaos-0.01", 4, 0.01},
	}
	rows := make([]perfRow, 0, len(cfgs))
	for _, c := range cfgs {
		start := time.Now()
		res, cs := experiment.RunChaoticCampaign(
			sqlt.DialectMariaDB, b.DayStmts, b.Seed, 5, c.workers, epochStmts, c.chaosRate, b.Seed)
		dur := time.Since(start).Seconds()
		row := perfRow{
			Name:        c.name,
			Workers:     c.workers,
			ChaosRate:   c.chaosRate,
			Statements:  cs.Stmts,
			Executions:  res.Execs,
			Branches:    res.Branches,
			Bugs:        res.Bugs(),
			Incidents:   cs.Incidents,
			Quarantined: cs.Quarantined,
			Seconds:     dur,
		}
		if dur > 0 {
			row.StmtsPerSec = float64(cs.Stmts) / dur
		}
		rows = append(rows, row)
	}

	snapshot := struct {
		Experiment  string    `json:"experiment"`
		Dialect     string    `json:"dialect"`
		BudgetStmts int       `json:"budget_stmts"`
		EpochStmts  int       `json:"epoch_stmts"`
		Seed        int64     `json:"seed"`
		Rows        []perfRow `json:"rows"`
	}{"perf", sqlt.DialectMariaDB.String(), b.DayStmts, epochStmts, b.Seed, rows}
	var sb strings.Builder
	if data, err := json.MarshalIndent(snapshot, "", "  "); err == nil {
		if werr := os.WriteFile("BENCH_perf.json", append(data, '\n'), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "perf: %v\n", werr)
		} else {
			sb.WriteString("[perf snapshot written to BENCH_perf.json]\n")
		}
	} else {
		fmt.Fprintf(os.Stderr, "perf: %v\n", err)
	}
	if err := appendPerfHistory(b, epochStmts, rows); err != nil {
		fmt.Fprintf(os.Stderr, "perf: history: %v\n", err)
	} else {
		sb.WriteString("[trajectory row appended to BENCH_history.jsonl]\n")
	}

	sb.WriteString("Campaign throughput — supervision and chaos overhead (MariaDB)\n")
	sb.WriteString(fmt.Sprintf("%-22s  %10s  %9s  %9s  %5s  %8s  %8s\n",
		"config", "statements", "incidents", "quarant.", "bugs", "seconds", "stmts/s"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-22s  %10d  %9d  %9d  %5d  %8.2f  %8.0f\n",
			r.Name, r.Statements, r.Incidents, r.Quarantined, r.Bugs,
			r.Seconds, r.StmtsPerSec))
	}

	ok := true
	if floor > 0 {
		// The gate tolerates ≥30% machine-to-machine variance: it exists to
		// catch order-of-magnitude regressions (an accidental reparse on the
		// clone path), not to turn CI into a benchmarking rig.
		min := 0.7 * float64(floor)
		got := rows[0].StmtsPerSec
		if got < min {
			sb.WriteString(fmt.Sprintf("PERF GATE FAILED: workers-1 %.0f stmts/s < %.0f (70%% of floor %d)\n",
				got, min, floor))
			ok = false
		} else {
			sb.WriteString(fmt.Sprintf("perf gate ok: workers-1 %.0f stmts/s >= %.0f (70%% of floor %d)\n",
				got, min, floor))
		}
	}
	return sb.String(), ok
}

// appendPerfHistory appends one compact JSONL row per perf run, building
// the perf trajectory the snapshot cannot show: BENCH_perf.json is the
// latest state, BENCH_history.jsonl is how it got there.
func appendPerfHistory(b experiment.Budgets, epochStmts int, rows []perfRow) error {
	entry := struct {
		Time        string    `json:"time"`
		Dialect     string    `json:"dialect"`
		BudgetStmts int       `json:"budget_stmts"`
		EpochStmts  int       `json:"epoch_stmts"`
		Seed        int64     `json:"seed"`
		Rows        []perfRow `json:"rows"`
	}{time.Now().UTC().Format(time.RFC3339), sqlt.DialectMariaDB.String(), b.DayStmts, epochStmts, b.Seed, rows}
	data, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	f, err := os.OpenFile("BENCH_history.jsonl", os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(data, '\n'))
	return err
}
