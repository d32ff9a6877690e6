package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/seqfuzz/lego"
	"github.com/seqfuzz/lego/internal/checkpoint"
)

// TestTracedLoopMatchesCore checks the claim traced.go rests on: the traced
// loop runs the same campaign as core.Fuzzer on the same seed.
func TestTracedLoopMatchesCore(t *testing.T) {
	const budget = 50000
	for _, w := range workloads {
		if w.cfg.Workers > 1 {
			continue
		}
		seed := campaignSeed(1, 0)
		f := newFuzzer(newTracer(), w, seed)
		f.run(budget, nil)
		rep := lego.NewFuzzer(w.config(seed)).Fuzz(budget)
		r := f.runner
		if r.Execs != rep.Executions || r.Stmts != rep.Statements || r.Branches() != rep.Branches || r.Oracle.Count() != len(rep.Bugs) {
			t.Errorf("%s: traced loop ran %d execs, %d stmts, %d branches, %d bugs; core.Fuzzer %d, %d, %d, %d",
				w.name, r.Execs, r.Stmts, r.Branches(), r.Oracle.Count(),
				rep.Executions, rep.Statements, rep.Branches, len(rep.Bugs))
		}
	}
}

// TestShardedCampaignMatchesFacade checks that the traced sharded campaign,
// one epoch per Run call with its own saves, writes the final checkpoint
// and the one before it that lego.Fuzzer writes for the same campaign and
// checkpoint cadence.
func TestShardedCampaignMatchesFacade(t *testing.T) {
	const budget = 30000
	dir := t.TempDir()
	for _, w := range workloads {
		if w.cfg.Workers <= 1 {
			continue
		}
		seed := campaignSeed(1, 0)
		traced := filepath.Join(dir, w.name+"-traced.ckpt")
		var sizes []float64
		if _, err := shardedCampaign(newTracer(), w, seed, budget, traced, nil, &sizes); err != nil {
			t.Fatal(err)
		}
		facade := filepath.Join(dir, w.name+"-facade.ckpt")
		if _, err := lego.NewFuzzer(w.config(seed)).FuzzWithOptions(budget, lego.FuzzOptions{CheckpointPath: facade, CheckpointEvery: w.checkpointEvery}); err != nil {
			t.Fatal(err)
		}
		// Save rotates the previous generation to .bak, so equal backups
		// mean the last periodic save came at the same barrier.
		for _, suffix := range []string{"", checkpoint.BackupSuffix} {
			x, err := os.ReadFile(traced + suffix)
			if err != nil {
				t.Fatal(err)
			}
			y, err := os.ReadFile(facade + suffix)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(x, y) {
				t.Errorf("%s: traced campaign's checkpoint %q differs from lego.Fuzzer's", w.name, "*.ckpt"+suffix)
			}
		}
		if len(sizes) < 2 {
			t.Errorf("%s: traced campaign saved %d checkpoints, want periodic saves plus the final one", w.name, len(sizes))
		}
	}
}
