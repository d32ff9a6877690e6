package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/sqlt"
)

// sampleShard is one worker's state over sampleSeeds; sample wraps it as a
// one-worker campaign.
func sampleShard() Shard {
	return Shard{
		Execs:        1234,
		Stmts:        5678,
		EnginePanics: 3,
		RNG:          0xdeadbeefcafef00d,
		Pool:         []int{0, 1},
		Picked:       []int{2, 0},
		Affinity:     [][2]sqlt.Type{{1, 2}, {2, 3}},
		GenAffinity:  [][2]sqlt.Type{{1, 2}},
		SynthSeqs:    []sqlt.Sequence{{1, 4, 6}},
		SynthStarts:  sqlt.Sequence{1},
		SynthRot:     5,
		Pending:      [][2]sqlt.Type{{4, 6}},
	}
}

func sampleSeeds() []Seed {
	return []Seed{
		{SQL: "CREATE TABLE t (a INT);", NewEdges: 9},
		{SQL: "SELECT 1;", NewEdges: 1, Split: true},
	}
}

func sampleCrashes() []Crash {
	return []Crash{{
		ID: "ORGANIC-0badf00d", Component: "Engine", Kind: "PANIC",
		Stack: []string{"minidb.(*Engine).dispatch"}, Window: sqlt.Sequence{1, 4},
		Reproducer: "SELECT 1;", FoundAtExec: 77, Hits: 4,
		Status: "STABLE", OriginalLen: 9, MinimizedLen: 1, Replays: 3,
	}}
}

func sample() *State {
	return &State{
		Dialect:    2,
		Seed:       7,
		MaxLen:     5,
		Workers:    1,
		EpochStmts: 2000,
		Epoch:      3,
		Execs:      1234,
		Stmts:      5678,
		Crashes:    sampleCrashes(),
		Seeds:      sampleSeeds(),
		Coverage:   []Edge{{Idx: 10, Mask: 3}, {Idx: 99, Mask: 128}},
		Shards:     []Shard{sampleShard()},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	want := sample()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip changed state:\nsaved  %s\nloaded %s", a, b)
	}
	if got.Version != Version {
		t.Fatalf("version = %d, want %d", got.Version, Version)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "camp.ckpt")
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	second := sample()
	second.Execs = 99999
	if err := Save(path, second); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Execs != 99999 {
		t.Fatalf("overwrite lost: execs = %d", got.Execs)
	}
	// no temp files may survive a successful save
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// Flip a digit inside the state payload without breaking JSON syntax.
	// The pattern allows any whitespace after the colon, so the mutation
	// lands whether the envelope is compact or indented.
	loc := regexp.MustCompile(`"execs":\s*1234`).FindIndex(data)
	if loc == nil {
		t.Fatal("mutation did not apply; execs field missing?")
	}
	mut := append([]byte(nil), data...)
	mut[loc[1]-1] = '5'
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("tampered checkpoint must fail the checksum, got %v", err)
	}
}

func TestLoadRejectsGarbageAndTruncation(t *testing.T) {
	dir := t.TempDir()

	garbage := filepath.Join(dir, "garbage")
	os.WriteFile(garbage, []byte("not json at all"), 0o644)
	if _, err := Load(garbage); err == nil {
		t.Fatal("garbage file must not load")
	}

	path := filepath.Join(dir, "trunc.ckpt")
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)/2], 0o644)
	if _, err := Load(path); err == nil {
		t.Fatal("truncated file must not load")
	}

	if _, err := Load(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("missing file must not load")
	}
}

// writeVersion writes a checkpoint whose version field claims v but whose
// checksum is internally consistent — exactly what an old binary's file looks
// like to this one.
func writeVersion(t *testing.T, path string, v string) {
	t.Helper()
	payload, _ := json.Marshal(sample())
	payload = bytes.Replace(payload, []byte(`"version":0`), []byte(`"version":`+v), 1)
	env, _ := json.Marshal(envelope{Checksum: sum(payload), State: payload})
	if err := os.WriteFile(path, env, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	writeVersion(t, path, "999")
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch must fail, got %v", err)
	}
}

// TestLoadRejectsV1 pins the v1→v2 break: a checkpoint written by the v1
// format (no triage fields) must be rejected loudly, not half-understood.
func TestLoadRejectsV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.ckpt")
	writeVersion(t, path, "1")
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 checkpoint must be rejected, got %v", err)
	}
}

// TestTriageFieldsRoundTrip pins the crash triage fields through a full
// file round trip, including their omission when empty (untriaged crash).
func TestTriageFieldsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	want := sample()
	want.Crashes = append(want.Crashes, Crash{
		ID: "MDEV-0", Component: "Item", Kind: "AF",
		Stack: []string{"a", "b"}, Reproducer: "SELECT 2;", FoundAtExec: 9, Hits: 1,
	})
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	c := got.Crashes[0]
	if c.Status != "STABLE" || c.OriginalLen != 9 || c.MinimizedLen != 1 || c.Replays != 3 {
		t.Fatalf("triage fields lost: %+v", c)
	}
	if u := got.Crashes[1]; u.Status != "" || u.OriginalLen != 0 || u.MinimizedLen != 0 || u.Replays != 0 {
		t.Fatalf("untriaged crash grew fields: %+v", u)
	}
}

// TestShardedRoundTrip pins the layout of a sharded campaign: topology
// fields and the worker entries survive a full file round trip
// byte-exactly.
func TestShardedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	s0, s1 := sampleShard(), sampleShard()
	s1.RNG = 0x1111
	want := &State{
		Dialect: 2, Seed: 7, MaxLen: 5,
		Execs: s0.Execs + s1.Execs, Stmts: s0.Stmts + s1.Stmts,
		Workers: 2, EpochStmts: 500, Epoch: 12,
		Shards:  []Shard{s0, s1},
		Crashes: sampleCrashes(),
		Seeds:   sampleSeeds(),
	}
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workers != 2 || got.EpochStmts != 500 || got.Epoch != 12 {
		t.Fatalf("topology lost: %+v", got)
	}
	if len(got.Shards) != 2 || got.Shards[1].RNG != 0x1111 || !got.Seeds[got.Shards[0].Pool[1]].Split {
		t.Fatalf("worker entries lost: %+v", got.Shards)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("sharded round trip changed state:\nsaved  %s\nloaded %s", a, b)
	}
}

// TestSaveRotatesBackup: overwriting a checkpoint must leave the previous
// generation at <path>.bak.
func TestSaveRotatesBackup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	first := sample()
	first.Execs = 100
	if err := Save(path, first); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + BackupSuffix); err == nil {
		t.Fatal("first save must not create a backup")
	}
	second := sample()
	second.Execs = 200
	if err := Save(path, second); err != nil {
		t.Fatal(err)
	}
	bak, err := Load(path + BackupSuffix)
	if err != nil {
		t.Fatalf("rotated backup unreadable: %v", err)
	}
	if bak.Execs != 100 {
		t.Fatalf("backup execs = %d, want the previous generation (100)", bak.Execs)
	}
	cur, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Execs != 200 {
		t.Fatalf("primary execs = %d", cur.Execs)
	}
}

// TestLoadWithFallback: a corrupt or truncated primary falls back to the
// rotated last-good generation with a warning; with no usable backup the
// primary's error surfaces.
func TestLoadWithFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "camp.ckpt")
	first := sample()
	first.Execs = 100
	if err := Save(path, first); err != nil {
		t.Fatal(err)
	}
	second := sample()
	second.Execs = 200
	if err := Save(path, second); err != nil {
		t.Fatal(err)
	}

	// Clean primary: no warning, newest generation.
	st, warn, err := LoadWithFallback(path)
	if err != nil || warn != "" || st.Execs != 200 {
		t.Fatalf("clean load: execs=%v warn=%q err=%v", st.Execs, warn, err)
	}

	// Truncate the primary: fall back to the .bak with a warning.
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)/3], 0o644)
	st, warn, err = LoadWithFallback(path)
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if st.Execs != 100 {
		t.Fatalf("fallback execs = %d, want last-good 100", st.Execs)
	}
	if !strings.Contains(warn, BackupSuffix) || !strings.Contains(warn, "last-good") {
		t.Fatalf("warning must name the backup: %q", warn)
	}

	// Corrupt both generations: the primary's error wins.
	os.WriteFile(path+BackupSuffix, []byte("junk"), 0o644)
	if _, _, err := LoadWithFallback(path); err == nil {
		t.Fatal("both generations corrupt must error")
	}

	// Missing everything.
	if _, _, err := LoadWithFallback(filepath.Join(dir, "nope.ckpt")); err == nil {
		t.Fatal("missing checkpoint must error")
	}
}

// TestSaveWritesCompactEnvelope pins the file layout byte for byte, and so
// its size: the checksum and the json.Marshal payload, embedded verbatim,
// with no whitespace added.
func TestSaveWritesCompactEnvelope(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	st := sample()
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(st) // Save stamped st.Version
	if err != nil {
		t.Fatal(err)
	}
	want := `{"checksum":"` + sum(payload) + `","state":` + string(payload) + `}`
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("file layout changed:\ngot  %s\nwant %s", got, want)
	}
}
