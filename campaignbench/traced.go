package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/seqfuzz/lego/internal/affinity"
	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/corpus"
	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/instantiate"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/mutate"
	"github.com/seqfuzz/lego/internal/oracle"
	"github.com/seqfuzz/lego/internal/seqsynth"
	"github.com/seqfuzz/lego/internal/shard"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/xrand"
)

// layer names the calls into the fuzzer that the traced run wraps in spans.
type layer uint8

const (
	lIteration   layer = iota // one fuzzing iteration: the request
	lPick                     // corpus: seed scheduling
	lMutate                   // mutate: sequence and value mutation
	lSynth                    // seqsynth: Algorithm 3 enumeration
	lInstantiate              // instantiate: structure choice and dependency fixing
	lExec                     // harness and minidb: execution, coverage, oracle
	lIngest                   // corpus and instantiate: pool add, library harvest
	lAffinity                 // affinity: Algorithm 2 on retained seeds
	lSnapshot                 // shard and core: campaign state to checkpoint form, SQL rendering
	lSave                     // checkpoint: encode, write, sync, rotate
	numLayers
)

var layerNames = [numLayers]string{
	"iteration", "pick", "mutate", "synth", "instantiate", "exec", "ingest", "affinity", "snapshot", "save",
}

// keptSpans bounds the spans kept for the trace file; self times and call
// counts cover every span.
const keptSpans = 100000

type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Iter   int32  `json:"iter"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type frame struct {
	l     layer
	id    int32
	start time.Time
	child time.Duration
}

// tracer records nested spans in memory. A layer's self time is its spans'
// durations minus the time their child spans cover.
type tracer struct {
	t0    time.Time
	iter  int32
	next  int32
	stack []frame
	self  [numLayers]time.Duration
	calls [numLayers]int
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stack: make([]frame, 0, 8), spans: make([]span, 0, keptSpans)}
}

func (t *tracer) begin(l layer) {
	t.stack = append(t.stack, frame{l: l, id: t.next, start: time.Now()})
	t.next++
}

func (t *tracer) end() {
	now := time.Now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now.Sub(f.start)
	t.self[f.l] += d - f.child
	t.calls[f.l]++
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
		parent = t.stack[n-1].id
	}
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{
			ID: f.id, Parent: parent, Iter: t.iter, Layer: layerNames[f.l],
			Start: f.start.Sub(t.t0).Nanoseconds(), End: now.Sub(t.t0).Nanoseconds(),
		})
	}
}

// write stores the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// core.Options defaults, which every workload uses.
const (
	maxLen              = 5
	instPerSeq          = 2
	maxSeqPerAffinity   = 48
	conventionalPerSeed = 8
)

type yield struct{ tried, novel int }

// fuzzer repeats core.Fuzzer's loop (New, Step, tryExec and ingest in
// internal/core/lego.go) call for call, so on the same seed it draws the
// same random numbers and runs the same test cases, with a span around each
// call into a layer. It covers the options the workloads set; ablations and
// seed splitting are left out.
type fuzzer struct {
	tr      *tracer
	seqOff  bool
	runner  *harness.Runner
	pool    *corpus.Pool
	lib     *instantiate.Library
	inst    *instantiate.Instantiator
	mut     *mutate.Mutator
	aff     *affinity.Map
	synth   *seqsynth.Synthesizer
	pending []affinity.Pair

	mutants, synthesized yield
}

func newFuzzer(tr *tracer, w workload, seed int64) *fuzzer {
	rng := rand.New(xrand.New(seed))
	lib := instantiate.NewLibrary()
	inst := instantiate.New(rng, lib, w.cfg.Target)
	aff := affinity.NewMap()
	f := &fuzzer{
		tr:     tr,
		seqOff: w.cfg.DisableSequenceAlgorithms,
		runner: harness.NewRunnerWithConfig(minidb.Config{
			Dialect:       w.cfg.Target,
			EnableHazards: true,
			FaultSeed:     seed,
		}),
		pool:  corpus.NewPool(rng),
		lib:   lib,
		inst:  inst,
		mut:   mutate.New(rng, inst, w.cfg.Target),
		aff:   aff,
		synth: seqsynth.New(aff, maxLen),
	}
	f.synth.MaxPerAffinity = maxSeqPerAffinity
	for _, tc := range harness.InitialSeeds(w.cfg.Target) {
		_, newEdges, _ := f.runner.Execute(tc)
		f.ingest(tc, newEdges)
	}
	return f
}

func (f *fuzzer) ingest(tc sqlast.TestCase, newEdges int) {
	f.tr.begin(lIngest)
	f.pool.Add(tc, newEdges)
	f.lib.Harvest(tc)
	if !f.seqOff {
		if len(tc) > 0 {
			f.synth.AddStart(tc[0].Type())
		}
		f.tr.begin(lAffinity)
		fresh := f.aff.Analyze(tc.Types())
		f.tr.end()
		f.pending = append(f.pending, fresh...)
	}
	f.tr.end()
}

func (f *fuzzer) tryExec(tc sqlast.TestCase, y *yield) {
	if len(tc) == 0 {
		return
	}
	f.tr.begin(lExec)
	novel, newEdges, _ := f.runner.Execute(tc)
	f.tr.end()
	y.tried++
	if novel {
		y.novel++
		f.ingest(tc, newEdges)
	}
}

func (f *fuzzer) mutant(op func() sqlast.TestCase) {
	f.tr.begin(lMutate)
	tc := op()
	f.tr.end()
	f.tryExec(tc, &f.mutants)
}

func (f *fuzzer) step(exhausted func() bool) {
	f.tr.iter++
	f.tr.begin(lIteration)
	defer f.tr.end()
	f.tr.begin(lPick)
	seed := f.pool.Select()
	f.tr.end()
	if seed == nil {
		return
	}
	if !f.seqOff {
		for i := range seed.TC {
			if exhausted() {
				return
			}
			f.mutant(func() sqlast.TestCase { return f.mut.SubstituteType(seed.TC, i) })
			f.mutant(func() sqlast.TestCase { return f.mut.InsertAfter(seed.TC, i) })
			f.mutant(func() sqlast.TestCase { return f.mut.DeleteAt(seed.TC, i) })
		}
		pending := f.pending
		f.pending = nil
		for _, pair := range pending {
			if exhausted() {
				return
			}
			f.tr.begin(lSynth)
			seqs := f.synth.OnNewAffinity(pair.From, pair.To)
			f.tr.end()
			for _, seq := range seqs {
				for k := 0; k < instPerSeq; k++ {
					if exhausted() {
						return
					}
					f.tr.begin(lInstantiate)
					tc := f.inst.TestCase(seq)
					f.tr.end()
					f.tryExec(tc, &f.synthesized)
				}
			}
		}
	}
	for k := 0; k < conventionalPerSeed; k++ {
		if exhausted() {
			return
		}
		f.mutant(func() sqlast.TestCase { return f.mut.MutateValues(seed.TC) })
	}
}

// run fuzzes until the budget is spent or stop closes between iterations.
func (f *fuzzer) run(budget int, stop <-chan struct{}) {
	exhausted := func() bool { return f.runner.Stmts >= budget }
	for !exhausted() && !closed(stop) {
		f.step(exhausted)
	}
}

// runtimeCounters samples the Go runtime's cumulative allocation and CPU
// counters.
type runtimeCounters struct {
	allocs, allocBytes uint64
	gcCPU, usedCPU     float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	// The total class is GOMAXPROCS times wall time; without the idle class
	// it is the CPU time the program used.
	return runtimeCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64() - s[4].Value.Float64()}
}

// tally sums the traced campaigns of a run.
type tally struct {
	execs, stmts, failed int
	mutants, synthesized yield
	plans                minidb.PlanStats
	sizes                []float64 // checkpoint sizes in KiB
}

// traced is the traced run: the workload's campaigns for the whole window,
// with spans on. Single-worker workloads run through fuzzer, which reports
// self time per layer. Sharded workloads run the real executor (see
// shardedCampaign); inside it only snapshots and saves have spans, so their
// loop layers, exec_us_per_stmt and yields read 0. Figures come with spans
// on, so they read a little slower than the untraced run.
func traced(w workload, seed int64, window time.Duration, work string) (result, error) {
	var ck checks
	checkKnownAnswers(&ck, w.cfg.Target, seed)
	tr := newTracer()

	stop := make(chan struct{})
	timer := time.AfterFunc(window, func() { close(stop) })
	defer timer.Stop()
	runtime.GC()
	before := readRuntime()
	start := time.Now()
	var t tally
	for i := 0; i == 0 || !closed(stop); i++ {
		// The first campaign always completes, so every run reports one.
		var st <-chan struct{}
		if i > 0 {
			st = stop
		}
		var crashes []*oracle.Crash
		if w.cfg.Workers > 1 {
			ex, err := shardedCampaign(tr, w, campaignSeed(seed, i), w.budget, filepath.Join(work, "traced.ckpt"), st, &t.sizes)
			if err != nil {
				return result{}, err
			}
			t.execs += ex.Execs()
			t.stmts += ex.Stmts()
			t.failed += ex.EnginePanics()
			t.plans.Add(ex.PlanStats())
			crashes = ex.Oracle().Crashes()
		} else {
			f := newFuzzer(tr, w, campaignSeed(seed, i))
			f.run(w.budget, st)
			r := f.runner
			t.execs += r.Execs
			t.stmts += r.Stmts
			t.failed += r.EnginePanics
			t.plans.Add(r.PlanStats())
			t.mutants.tried += f.mutants.tried
			t.mutants.novel += f.mutants.novel
			t.synthesized.tried += f.synthesized.tried
			t.synthesized.novel += f.synthesized.novel
			crashes = r.Oracle.Crashes()
		}
		for _, c := range crashes {
			ck.expect(replaysAs(w.cfg.Target, c.Reproducer.SQL(), c.Report.ID), "bug %s does not replay from its reproducer", c.Report.ID)
		}
	}
	loopSecs := time.Since(start).Seconds()
	after := readRuntime()
	if w.checkpointEvery > 0 {
		path := filepath.Join(work, "traced.ckpt")
		st, err := checkpoint.Load(path)
		ck.expect(err == nil && st.Workers == w.cfg.Workers && st.Stmts > 0, "traced checkpoint does not load back: %v", err)
	}
	if err := tr.write(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
		return result{}, fmt.Errorf("trace: %w", err)
	}

	perExec := func(l layer) float64 { return tr.self[l].Seconds() * 1e6 / float64(t.execs) }
	perCall := func(l layer) float64 {
		if tr.calls[l] == 0 {
			return 0
		}
		return tr.self[l].Seconds() * 1e3 / float64(tr.calls[l])
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := map[string]metric{
		"traced_stmts_per_s":      {float64(t.stmts) / loopSecs, "1/s"},
		"exec_us_per_stmt":        {tr.self[lExec].Seconds() * 1e6 / float64(t.stmts), "us"},
		"mutant_yield":            {ratio(float64(t.mutants.novel), float64(t.mutants.tried)), "ratio"},
		"synth_yield":             {ratio(float64(t.synthesized.novel), float64(t.synthesized.tried)), "ratio"},
		"plan_hit_rate":           {ratio(float64(t.plans.Hits), float64(t.plans.Hits+t.plans.Misses)), "ratio"},
		"plan_compiles_per_kstmt": {float64(t.plans.Compiles) * 1000 / float64(t.stmts), "count"},
		"allocs_per_stmt":         {float64(after.allocs-before.allocs) / float64(t.stmts), "count"},
		"alloc_bytes_per_stmt":    {float64(after.allocBytes-before.allocBytes) / float64(t.stmts), "B"},
		"gc_cpu_pct":              {100 * ratio(after.gcCPU-before.gcCPU, after.usedCPU-before.usedCPU), "%"},
		"snapshot_ms":             {perCall(lSnapshot), "ms"},
		"save_ms":                 {perCall(lSave), "ms"},
		"checkpoint_kib":          {median(t.sizes), "KiB"},
	}
	for _, l := range []layer{lPick, lMutate, lSynth, lInstantiate, lExec, lIngest, lAffinity} {
		m[layerNames[l]+"_us"] = metric{perExec(l), "us"}
	}
	fmt.Fprintf(os.Stderr, "campaignbench: %s seed %d traced: %d executions, %d statements, %d spans\n",
		w.name, seed, t.execs, t.stmts, tr.next)
	return result{
		Correct:   t.failed == 0 && ck.failed == 0,
		Attempted: t.execs + ck.run,
		Failed:    t.failed + ck.failed,
		Metrics:   m,
	}, nil
}

// shardedCampaign runs one campaign of the workload's sharded executor the
// way lego.Fuzzer.FuzzWithOptions does with a checkpoint path set: at every
// barrier where checkpointEvery executions have passed since the last save,
// and once at the end, it snapshots the executor and saves the checkpoint.
// It calls Executor.Run once per epoch so that each snapshot and save gets a
// span of its own. Epoch boundaries are absolute statement counts, so the
// campaign and its checkpoints are the ones an uninterrupted Run writes
// (traced_test.go). It appends each checkpoint's size in KiB to sizes.
func shardedCampaign(tr *tracer, w workload, seed int64, budget int, path string, stop <-chan struct{}, sizes *[]float64) (*shard.Executor, error) {
	epochStmts := w.cfg.EpochStmts
	if epochStmts <= 0 {
		epochStmts = shard.DefaultEpochStmts
	}
	ex := shard.New(shard.Options{
		Core: core.Options{
			Dialect:                   w.cfg.Target,
			Seed:                      seed,
			Hazards:                   true,
			DisableSequenceAlgorithms: w.cfg.DisableSequenceAlgorithms,
		},
		Workers:    w.cfg.Workers,
		EpochStmts: epochStmts,
	})
	save := func() error {
		tr.iter++
		tr.begin(lSnapshot)
		st := ex.Snapshot()
		tr.end()
		tr.begin(lSave)
		err := checkpoint.Save(path, st)
		tr.end()
		if err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		*sizes = append(*sizes, float64(fi.Size())/1024)
		return nil
	}
	lastSaved := ex.Execs()
	for {
		epoch := ex.Epoch()
		leg := min(budget, (epoch+1)*epochStmts*w.cfg.Workers)
		interrupted, err := ex.Run(leg, shard.RunOptions{Stop: stop})
		if err != nil {
			return nil, err
		}
		if interrupted || ex.Epoch() == epoch {
			break
		}
		if ex.Execs()-lastSaved >= w.checkpointEvery {
			if err := save(); err != nil {
				return nil, err
			}
			lastSaved = ex.Execs()
		}
	}
	return ex, save()
}
