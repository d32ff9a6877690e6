package lego_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"github.com/seqfuzz/lego"
	"github.com/seqfuzz/lego/internal/checkpoint"
)

// TestCheckpointBytesPinned pins the checkpoint format's bytes: small
// campaigns must leave a final checkpoint and a rotated .bak whose SHA-256
// digests are the recorded ones. The double-run and resume gates only
// compare a build with itself; this one catches a change to how the state
// is built or encoded that every run of one build agrees on. A digest may
// only change together with checkpoint.Version.
func TestCheckpointBytesPinned(t *testing.T) {
	cases := []struct {
		name     string
		cfg      lego.Config
		budget   int
		every    int
		ckpt     string
		bak      string
		validate func(t *testing.T, rep lego.Report)
	}{
		{
			name:   "one worker",
			cfg:    lego.Config{Target: lego.PostgreSQL, Seed: 4, EpochStmts: 700, FaultRate: 0.002},
			budget: 30000,
			every:  300,
			ckpt:   "777c4b4c4b7f8ff7bcb376b76eb21a3a67f22a575d11735209147549681edd5e",
			bak:    "59c3b8b5b46277687b38f82b093dfbf55dfeb3c20005eb9b8cba158da621b0dc",
		},
		{
			name: "two workers with chaos and triage",
			cfg: lego.Config{Target: lego.MariaDB, Seed: 5, Workers: 2, EpochStmts: 500,
				ChaosRate: 0.05, ChaosSeed: 7, Triage: true},
			budget: 12000,
			every:  500,
			ckpt:   "dd9e850845d165a73299999f2ab7771064ff8c17183e799949df8fb36b5a92ff",
			bak:    "0f0ee73f5d397a346febcc660fb52b334ba8ee32d68e1f058ecacf06e1249493",
			validate: func(t *testing.T, rep lego.Report) {
				if len(rep.Incidents) == 0 {
					t.Error("the chaotic campaign journaled no incidents")
				}
				if len(rep.Bugs) == 0 || rep.Bugs[0].Status == "" {
					t.Error("the campaign triaged no bug")
				}
			},
		},
		{
			name:   "LEGO- at length 3",
			cfg:    lego.Config{Target: lego.MySQL, Seed: 6, DisableSequenceAlgorithms: true, MaxSequenceLength: 3, EpochStmts: 600},
			budget: 8000,
			every:  400,
			ckpt:   "6a87217b03756b6f23ebd015465bcc8c0054751784132adf3a8bf4a0f5ef0905",
			bak:    "184d93495db1304b8e20f6974b4f0dbce171c7107bdd526dbc9dea51fbf2f59b",
		},
	}
	digest := func(t *testing.T, path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(data)
		return hex.EncodeToString(h[:])
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "camp.ckpt")
			rep, err := lego.NewFuzzer(c.cfg).FuzzWithCheckpoint(c.budget, path, c.every)
			if err != nil {
				t.Fatal(err)
			}
			if c.validate != nil {
				c.validate(t, rep)
			}
			if got := digest(t, path); got != c.ckpt {
				t.Errorf("checkpoint digest %s, want %s", got, c.ckpt)
			}
			if got := digest(t, path+checkpoint.BackupSuffix); got != c.bak {
				t.Errorf("%s digest %s, want %s", checkpoint.BackupSuffix, got, c.bak)
			}
		})
	}
}
