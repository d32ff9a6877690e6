package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointLoad feeds Load arbitrary file contents. Load must return
// either an error or a state, never panic. Random bytes almost never carry a
// valid checksum, so an input that is valid JSON is also loaded as the state
// payload of a correctly checksummed envelope: that drives the state decoder
// and the version check, not just the envelope parser. The seeds are a
// compact file, a legacy indented one, a truncated one, one with a single
// flipped byte, and a bare state payload.
//
// Plain `go test` runs the seeds; `make selffuzz` searches for 15 s.
func FuzzCheckpointLoad(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.ckpt")
	if err := Save(path, sample()); err != nil {
		f.Fatal(err)
	}
	compact, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	payload, err := json.Marshal(sample())
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := json.MarshalIndent(envelope{Checksum: sum(payload), State: payload}, "", " ")
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(compact)
	flipped[len(flipped)/2] ^= 0x01

	f.Add(compact)
	f.Add(legacy)
	f.Add(compact[:len(compact)/2])
	f.Add(flipped)
	f.Add(payload)

	// One fixed path per fuzzing process: a fresh temp directory per input
	// would give each run differently named paths, and so coverage that the
	// fuzzer cannot reproduce.
	path = filepath.Join(dir, "input.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		load := func(file []byte) {
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Load(path)
			if (st == nil) == (err == nil) {
				t.Fatalf("Load returned state %v and error %v", st != nil, err)
			}
		}
		load(data)
		// Load hashes the compacted payload, so frame valid JSON with the
		// checksum of its compact form.
		var compact bytes.Buffer
		if json.Compact(&compact, data) != nil {
			return
		}
		framed := []byte(envPrefix + sum(compact.Bytes()) + envMiddle)
		framed = append(framed, data...)
		load(append(framed, '}'))
	})
}
