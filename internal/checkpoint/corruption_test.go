package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeEnvelope writes a hand-built envelope: the state payload, checksummed
// unless a checksum override is given — the knob each corruption case below
// turns.
func writeEnvelope(t *testing.T, path string, payload []byte, checksum string) {
	t.Helper()
	if checksum == "" {
		h := sha256.Sum256(payload)
		checksum = "sha256:" + hex.EncodeToString(h[:])
	}
	data, err := json.Marshal(envelope{Checksum: checksum, State: payload})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCorruptionMatrix drives Load through the on-disk failure modes a
// long campaign can meet — torn files, flipped bits, future formats — and
// asserts each error message names its failure, so an operator looking at a
// dead resume knows whether to reach for the backup, another binary, or a
// shrug.
func TestLoadCorruptionMatrix(t *testing.T) {
	dir := t.TempDir()

	payload := func(version int, mut func(*State)) []byte {
		st := sample()
		st.Version = version
		mut(st)
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	validPayload := func(version int) []byte { return payload(version, func(*State) {}) }

	cases := []struct {
		name    string
		write   func(t *testing.T, path string)
		wantErr string
	}{
		{
			// A crash mid-write without the atomic rename protocol: half an
			// envelope is not JSON.
			name: "truncated envelope",
			write: func(t *testing.T, path string) {
				if err := Save(path, sample()); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "is not a checkpoint file",
		},
		{
			// Disk corruption under an intact envelope: the payload no longer
			// matches its checksum.
			name: "bit-flipped payload",
			write: func(t *testing.T, path string) {
				good := validPayload(Version)
				bad := []byte(strings.Replace(string(good), `"execs":1234`, `"execs":1235`, 1))
				if string(bad) == string(good) {
					t.Fatal("corruption did not land; fixture drifted")
				}
				h := sha256.Sum256(good)
				writeEnvelope(t, path, bad, "sha256:"+hex.EncodeToString(h[:]))
			},
			wantErr: "is corrupt: checksum",
		},
		{
			// A file from a future build: checksum verifies, version does not.
			name: "checksum-valid but unknown future version",
			write: func(t *testing.T, path string) {
				writeEnvelope(t, path, validPayload(99), "")
			},
			wantErr: "format version 99",
		},
		{
			// A file from before the readable range: v1 readers are gone.
			name: "checksum-valid but pre-v2 version",
			write: func(t *testing.T, path string) {
				writeEnvelope(t, path, validPayload(1), "")
			},
			wantErr: "format version 1",
		},
		{
			// Files from earlier builds: the version is read before the
			// checksum, so the error names it rather than calling the file
			// corrupt.
			name: "checksum-valid but v2 version",
			write: func(t *testing.T, path string) {
				writeEnvelope(t, path, validPayload(2), "")
			},
			wantErr: "format version 2, this build reads only version 7",
		},
		{
			name: "checksum-valid but v3 version",
			write: func(t *testing.T, path string) {
				writeEnvelope(t, path, validPayload(3), "")
			},
			wantErr: "format version 3, this build reads only version 7",
		},
		{
			// Earlier builds indented the envelope and hashed the compacted
			// payload; this build hashes the bytes it embeds.
			name: "legacy indented v4 file",
			write: func(t *testing.T, path string) {
				p := validPayload(4)
				h := sha256.Sum256(p)
				data, err := json.MarshalIndent(envelope{Checksum: "sha256:" + hex.EncodeToString(h[:]), State: p}, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "format version 4, this build reads only version 7",
		},
		{
			// v5 stored every crash once per worker as well as at the top.
			name: "checksum-valid but v5 version",
			write: func(t *testing.T, path string) {
				writeEnvelope(t, path, validPayload(5), "")
			},
			wantErr: "format version 5, this build reads only version 7",
		},
		{
			// v6 stored every seed and the coverage once per worker.
			name: "checksum-valid but v6 version",
			write: func(t *testing.T, path string) {
				writeEnvelope(t, path, validPayload(6), "")
			},
			wantErr: "format version 6, this build reads only version 7",
		},
		{
			name: "negative store index",
			write: func(t *testing.T, path string) {
				writeEnvelope(t, path, payload(Version, func(st *State) { st.Shards[0].Pool[1] = -1 }), "")
			},
			wantErr: "shard 0 pool entry 1 is seed -1 of a 2-seed store",
		},
		{
			name: "store index past the store",
			write: func(t *testing.T, path string) {
				writeEnvelope(t, path, payload(Version, func(st *State) {
					st.Workers = 2
					st.Shards = []Shard{sampleShard(), sampleShard()}
					st.Shards[1].Pool[0] = 2
				}), "")
			},
			wantErr: "shard 1 pool entry 0 is seed 2 of a 2-seed store",
		},
		{
			name: "pick counts shorter than the pool",
			write: func(t *testing.T, path string) {
				writeEnvelope(t, path, payload(Version, func(st *State) { st.Shards[0].Picked = st.Shards[0].Picked[:1] }), "")
			},
			wantErr: "shard 0 has 1 pick counts for 2 pool entries",
		},
		{
			name: "shard list shorter than the worker count",
			write: func(t *testing.T, path string) {
				writeEnvelope(t, path, payload(Version, func(st *State) { st.Workers = 2 }), "")
			},
			wantErr: "malformed: 2 workers, 1 shard entries",
		},
		{
			name: "no workers",
			write: func(t *testing.T, path string) {
				writeEnvelope(t, path, payload(Version, func(st *State) { st.Workers, st.Shards = 0, nil }), "")
			},
			wantErr: "malformed: 0 workers",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".ckpt")
			tc.write(t, path)
			_, err := Load(path)
			if err == nil {
				t.Fatalf("Load accepted a %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error does not name the failure:\n  got  %v\n  want substring %q", err, tc.wantErr)
			}

			// With no backup on disk, LoadWithFallback must surface the
			// primary's own diagnosis, not a missing-.bak distraction.
			_, warning, ferr := LoadWithFallback(path)
			if ferr == nil {
				t.Fatal("LoadWithFallback succeeded with no usable generation")
			}
			if !strings.Contains(ferr.Error(), tc.wantErr) {
				t.Fatalf("fallback error lost the primary diagnosis: %v", ferr)
			}
			if warning != "" {
				t.Fatalf("fallback with no backup produced a warning: %q", warning)
			}
		})
	}
}

// TestLoadWithFallbackRecoversEachCorruption: the same corruption matrix,
// but with a rotated last-good generation present — every case must resume
// from the backup and say so.
func TestLoadWithFallbackRecoversEachCorruption(t *testing.T) {
	for _, corrupt := range []struct {
		name string
		mut  func(data []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/3] }},
		{"emptied", func(d []byte) []byte { return nil }},
		{"garbage", func(d []byte) []byte { return []byte("not json at all") }},
	} {
		t.Run(corrupt.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "c.ckpt")
			if err := Save(path, sample()); err != nil {
				t.Fatal(err)
			}
			second := sample()
			second.Execs = 9999
			if err := Save(path, second); err != nil { // rotates first save to .bak
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt.mut(data), 0o644); err != nil {
				t.Fatal(err)
			}

			st, warning, err := LoadWithFallback(path)
			if err != nil {
				t.Fatalf("fallback failed: %v", err)
			}
			if st.Execs != 1234 {
				t.Fatalf("fallback loaded execs=%d, want the rotated generation's 1234", st.Execs)
			}
			if !strings.Contains(warning, BackupSuffix) || !strings.Contains(warning, path) {
				t.Fatalf("warning must name both generations: %q", warning)
			}
		})
	}
}

// TestVersionStamping pins the single format version: whatever features a
// state uses — chaos identity, retry budget, incident journal, supervision
// fields — Save stamps Version, the one version Load reads.
func TestVersionStamping(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*State)
	}{
		{"clean state", func(*State) {}},
		{"chaos identity", func(st *State) { st.ChaosRate = 0.1; st.ChaosSeed = 7 }},
		{"retry budget", func(st *State) { st.MaxEpochRetries = 3 }},
		{"incident journal", func(st *State) {
			st.Incidents = []Incident{{Epoch: 1, Shard: 0, Kind: "WORKER_PANIC", Retries: 1, Outcome: "RETRIED"}}
		}},
		{"quarantined shard entry", func(st *State) {
			st.Workers = 2
			st.Shards = []Shard{sampleShard(), sampleShard()}
			st.Shards[1].Quarantined = true
		}},
		{"shard retry tally", func(st *State) { st.Shards[0].Retries = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "c.ckpt")
			st := sample()
			tc.mut(st)
			if err := Save(path, st); err != nil {
				t.Fatal(err)
			}
			got, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if got.Version != Version {
				t.Fatalf("version = %d, want %d", got.Version, Version)
			}
		})
	}
}

// TestV4RoundTrip: the supervision fields, added in format v4, survive a
// save/load cycle.
func TestV4RoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	st := sample()
	st.ChaosRate = 0.25
	st.ChaosSeed = 11
	st.MaxEpochRetries = 3
	st.Incidents = []Incident{
		{Epoch: 2, Shard: 1, Kind: "WORKER_PANIC", Retries: 1, Outcome: "RETRIED", Detail: "chaos: injected worker panic (epoch 2, shard 1, attempt 0)"},
		{Epoch: 5, Shard: 1, Kind: "EPOCH_STALL", Retries: 3, Outcome: "QUARANTINED"},
	}
	sh := sampleShard()
	sh.Quarantined = true
	sh.Retries = 3
	st.Shards = []Shard{sampleShard(), sh}
	st.Workers = 2

	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ChaosRate != 0.25 || got.ChaosSeed != 11 || got.MaxEpochRetries != 3 {
		t.Fatalf("chaos identity lost: %+v", got)
	}
	if len(got.Incidents) != 2 || got.Incidents[1].Outcome != "QUARANTINED" || got.Incidents[0].Detail == "" {
		t.Fatalf("incident journal lost: %+v", got.Incidents)
	}
	if !got.Shards[1].Quarantined || got.Shards[1].Retries != 3 || got.Shards[0].Quarantined {
		t.Fatalf("shard supervision fields lost: %+v %+v", got.Shards[0], got.Shards[1])
	}
}
