package checkpoint_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"github.com/seqfuzz/lego"
	"github.com/seqfuzz/lego/internal/checkpoint"
)

// FuzzCheckpointLoad feeds Load arbitrary file contents. Load must return
// either an error or a state, never panic, and a state it returns must
// resume: lego.ResumeFuzzer, under the Config the state itself describes,
// returns an error or a fuzzer, never a panic. Random bytes almost never
// carry a valid checksum, so every input is also loaded as the state
// payload of a correctly checksummed envelope: that drives the state
// decoder, the version and topology checks and the resume path, not just
// the envelope parser. The seeds are files saved by a one-worker and a
// two-worker campaign, a truncated file, one with a single flipped byte, and
// a bare state payload.
//
// Plain `go test` runs the seeds; `make selffuzz` searches for 15 s.
func FuzzCheckpointLoad(f *testing.F) {
	dir := f.TempDir()
	campaign := func(name string, cfg lego.Config) []byte {
		path := filepath.Join(dir, name)
		if _, err := lego.NewFuzzer(cfg).FuzzWithCheckpoint(300, path, 1000); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	one := campaign("one.ckpt", lego.Config{Target: lego.MySQL, Seed: 3})
	two := campaign("two.ckpt", lego.Config{Target: lego.MariaDB, Seed: 5, Workers: 2, EpochStmts: 100})
	flipped := bytes.Clone(one)
	flipped[len(flipped)/2] ^= 0x01
	payload := one[bytes.Index(one, []byte(`"state":`))+len(`"state":`) : len(one)-1]

	f.Add(one)
	f.Add(two)
	f.Add(one[:len(one)/2])
	f.Add(flipped)
	f.Add(payload)

	// One fixed path per fuzzing process: a fresh temp directory per input
	// would give each run differently named paths, and so coverage that the
	// fuzzer cannot reproduce.
	path := filepath.Join(dir, "input.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		load := func(file []byte) {
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := checkpoint.Load(path)
			if (st == nil) == (err == nil) {
				t.Fatalf("Load returned state %v and error %v", st != nil, err)
			}
			if st == nil {
				return
			}
			cfg := lego.Config{
				Target:                    st.Dialect,
				Seed:                      st.Seed,
				MaxSequenceLength:         st.MaxLen,
				DisableSequenceAlgorithms: st.DisableSequenceAlgorithms,
				DisableHazards:            st.DisableHazards,
				SplitLongSeeds:            st.SplitLongSeeds,
				FaultRate:                 st.FaultRate,
				Workers:                   st.Workers,
				EpochStmts:                st.EpochStmts,
				ChaosRate:                 st.ChaosRate,
				ChaosSeed:                 st.ChaosSeed,
				MaxEpochRetries:           st.MaxEpochRetries,
			}
			fz, err := lego.ResumeFuzzer(cfg, path)
			if (fz == nil) == (err == nil) {
				t.Fatalf("ResumeFuzzer returned fuzzer %v and error %v", fz != nil, err)
			}
		}
		load(data)
		h := sha256.Sum256(data)
		framed := []byte(`{"checksum":"sha256:` + hex.EncodeToString(h[:]) + `","state":`)
		framed = append(framed, data...)
		load(append(framed, '}'))
	})
}
