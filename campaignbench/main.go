// Command campaignbench is the repository's benchmark: it runs LEGO fuzzing
// campaigns for a fixed window and reports end-to-end metrics, or, in a
// separate traced run, per-layer metrics (traced.go). Build and run it with
//
//	python3 campaignbench/run.py --workload lego --seed 1 --seconds 35 --trace 0
//
// from the repository root. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics; diagnostics
// go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/seqfuzz/lego"
)

// workload is one campaign configuration. A run executes back-to-back
// campaigns of budget statements each, every one from its own seed derived
// from -seed, until the measuring window closes.
type workload struct {
	name   string
	cfg    lego.Config
	budget int
	// checkpointEvery is the checkpoint cadence in executions (0: none).
	checkpointEvery int
}

// Every workload runs with the seeded bug corpus armed, as campaigns do by
// default, on the MariaDB profile that the repository's perf baseline
// (benchall -only perf) also runs.
var workloads = []workload{
	// LEGO, one worker: every fuzzing layer plus compiled minidb execution.
	{
		name:   "lego",
		cfg:    lego.Config{Target: lego.MariaDB},
		budget: 150000,
	},
	// LEGO-: value mutation only, so affinity analysis, synthesis and
	// instantiation are bypassed and statement shapes repeat.
	{
		name:   "lego-minus",
		cfg:    lego.Config{Target: lego.MariaDB, DisableSequenceAlgorithms: true},
		budget: 150000,
	},
	// LEGO with two shards, checkpointing at legofuzz's default cadence: the
	// only workload with epoch barriers and checkpoint saves.
	{
		name:            "sharded",
		cfg:             lego.Config{Target: lego.MariaDB, Workers: 2},
		budget:          150000,
		checkpointEvery: 1000,
	},
}

// setupProbes is how many cold starts setup_s takes the median of.
const setupProbes = 31

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config returns the workload's fuzzer configuration for one campaign.
func (w workload) config(seed int64) lego.Config {
	c := w.cfg
	c.Seed = seed
	return c
}

// campaignSeed derives campaign i's seed from the run seed with splitmix64,
// so no two campaigns share an RNG stream (sharded campaigns use seed+shard
// for their workers, which rules out consecutive seeds).
func campaignSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>33) + 1
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks tallies the run's correctness checks.
type checks struct{ run, failed int }

func (c *checks) expect(ok bool, format string, args ...any) {
	c.run++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "campaignbench: check failed: "+format+"\n", args...)
	}
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload: lego, lego-minus or sharded")
	seed := flag.Int64("seed", 1, "seed every campaign seed and check input derives from")
	seconds := flag.Float64("seconds", 35, "length of the measuring window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	probe := flag.Bool("probe-setup", false, "build the workload's first fuzzer, print the nanoseconds since main started, and exit")
	flag.Parse()

	w, ok := lookup(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *probe {
		lego.NewFuzzer(w.config(campaignSeed(*seed, 0)))
		fmt.Println(time.Since(start).Nanoseconds())
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("need -seconds > 0 and -trace 0 or 1")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatalf("%v", err)
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fatalf("%v", err)
	}
	window := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res, err = traced(w, *seed, window, work)
	} else {
		res, err = measure(w, *seed, window, work)
	}
	os.RemoveAll(work)
	if err != nil {
		fatalf("%v", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "campaignbench: "+format+"\n", args...)
	os.Exit(1)
}

// campaign is one completed, untraced campaign.
type campaign struct {
	report lego.Report
	secs   float64
	// peakMiB is the process's peak resident memory during the campaign.
	peakMiB float64
	// refSecs is the mean time of the reference work run just before and
	// just after the campaign.
	refSecs float64
}

// runCampaign runs one campaign of the workload's budget. Before it starts,
// the heap is collected and returned to the OS and the kernel's peak-RSS mark
// is reset, so every campaign starts from the same memory state, as a fresh
// legofuzz process would. It reports done=false when stop closed before the
// budget was spent.
func runCampaign(w workload, seed int64, ckpt string, stop <-chan struct{}) (c campaign, done bool, err error) {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return c, false, err
	}
	f := lego.NewFuzzer(w.config(seed))
	opts := lego.FuzzOptions{Stop: stop}
	if w.checkpointEvery > 0 {
		opts.CheckpointPath, opts.CheckpointEvery = ckpt, w.checkpointEvery
	}
	start := time.Now()
	rep, err := f.FuzzWithOptions(w.budget, opts)
	secs := time.Since(start).Seconds()
	if err != nil {
		return c, false, fmt.Errorf("campaign %d: %w", seed, err)
	}
	peak, err := peakRSSMiB()
	if err != nil {
		return c, false, err
	}
	return campaign{report: rep, secs: secs, peakMiB: peak}, !rep.Interrupted, nil
}

// resetPeakRSS resets the kernel's peak resident set mark (VmHWM) of this
// process to its current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's peak resident set since the last reset.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kib, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(kib), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM line %q: %w", line, err)
			}
			return n / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// measure is the untraced run: end-to-end metrics of back-to-back campaigns,
// then checks that the first campaign is reproducible and that every bug
// found replays. A campaign's throughput is scaled by the reference work
// timed around it (reference.go): on a shared host one and the same campaign
// runs at speeds up to twice apart from one minute to the next, and the
// reference work slows down with it.
func measure(w workload, seed int64, window time.Duration, work string) (result, error) {
	var ck checks
	checkKnownAnswers(&ck, w.cfg.Target, seed)
	setup, err := probeSetup(w, seed)
	if err != nil {
		return result{}, err
	}

	stop := make(chan struct{})
	timer := time.AfterFunc(window, func() { close(stop) })
	defer timer.Stop()
	var runs []campaign
	// The reference work runs between every two campaigns, so each campaign
	// is bracketed by two timings of it.
	refBefore := referenceWork()
	for i := 0; ; i++ {
		// The first campaign always completes, so every run reports one.
		var st <-chan struct{}
		if i > 0 {
			st = stop
		}
		c, done, err := runCampaign(w, campaignSeed(seed, i), filepath.Join(work, fmt.Sprintf("c%d.ckpt", i)), st)
		if err != nil {
			return result{}, err
		}
		if !done {
			break
		}
		refAfter := referenceWork()
		c.refSecs, refBefore = (refBefore+refAfter)/2, refAfter
		runs = append(runs, c)
		if closed(stop) {
			break
		}
	}
	first := runs[0]
	again, _, err := runCampaign(w, campaignSeed(seed, 0), filepath.Join(work, "again.ckpt"), nil)
	if err != nil {
		return result{}, err
	}
	ck.expect(reflect.DeepEqual(first.report, again.report), "campaign %d is not reproducible", campaignSeed(seed, 0))
	if w.checkpointEvery > 0 {
		checkCheckpoints(&ck, w, campaignSeed(seed, 0), filepath.Join(work, "c0.ckpt"), filepath.Join(work, "again.ckpt"), first.report)
	}

	var stmts, secs, branches, bugs float64
	var rates, scaled, peaks []float64
	attempted, failed := 0, 0
	for _, c := range runs {
		stmts += float64(c.report.Statements)
		secs += c.secs
		rates = append(rates, float64(c.report.Statements)/c.secs)
		scaled = append(scaled, float64(c.report.Statements)/c.secs*c.refSecs/referenceSecs)
		peaks = append(peaks, c.peakMiB)
		branches += float64(c.report.Branches)
		bugs += float64(len(c.report.Bugs))
		attempted += c.report.Executions
		failed += c.report.EnginePanics
		checkBugReplays(&ck, w.cfg.Target, c.report.Bugs)
	}
	fmt.Fprintf(os.Stderr, "campaignbench: %s seed %d: %d campaigns of %d statements, %.0f stmts/s overall, median %.0f stmts/s, reference-scaled median %.0f\n",
		w.name, seed, len(runs), w.budget, stmts/secs, median(rates), median(scaled))
	return result{
		Correct:   failed == 0 && ck.failed == 0,
		Attempted: attempted + ck.run,
		Failed:    failed + ck.failed,
		Metrics: map[string]metric{
			"stmts_per_s":  {median(scaled), "1/s"},
			"branches":     {branches / float64(len(runs)), "count"},
			"bugs":         {bugs / float64(len(runs)), "count"},
			"peak_rss_mib": {median(peaks), "MiB"},
			"setup_s":      {setup, "s"},
		},
	}, nil
}

// probeSetup times cold set-ups: each spawns this program in -probe-setup
// mode, which reports the time from entering main until it has built the
// workload's first fuzzer in its fresh process. That covers flag parsing,
// seed-corpus parsing and ingestion, first heap growth, and for sharded
// workloads both shards plus the initial barrier. Process creation and Go
// runtime start-up are left out: on a VM they vary by tens of percent from
// minute to minute, and no change to the fuzzer moves them. It returns the
// median over setupProbes.
func probeSetup(w workload, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupProbes; i++ {
		out, err := exec.Command(exe, "-probe-setup", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10)).Output()
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("set-up probe printed %q", out)
		}
		times = append(times, float64(ns)/1e9)
	}
	return median(times), nil
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
