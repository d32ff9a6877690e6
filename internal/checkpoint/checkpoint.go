// Package checkpoint serializes the durable state of a fuzzing campaign so
// long runs survive process death: the seed pools, the affinity maps, the
// accumulated coverage edges, the oracle's deduplicated crashes, execution
// counters, and the RNG stream positions. A campaign restored from a
// checkpoint continues exactly where the original left off — same schedule,
// same discoveries — because every input to the fuzzing loop is captured,
// or rebuilt from what is: the structure library is a function of the pool.
//
// The package is deliberately passive: it defines the wire format and the
// file protocol (atomic temp-file+rename writes, checksummed reads) and
// knows nothing about the fuzzer. Packages core (one worker) and shard (the
// campaign) convert live state to and from this form.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Version is the checkpoint format version. Load reads this version only:
// a file from any other build fails with an error naming both versions,
// rather than being half understood.
//
// History, one line per version:
//
//	v1 — initial format.
//	v2 — crashes carry their triage results.
//	v3 — sharded campaigns: topology and one nested state per worker.
//	v4 — chaos identity, incident journal, per-shard supervision fields.
//	v5 — one layout for every campaign, primary state only: no structure
//	     library and no fault-injector cursor.
//	v6 — crashes stored once, at the top level: worker entries carry none.
//	v7 — seeds and coverage stored once, at the top level: worker pools are
//	     store indexes plus pick counts.
//	v8 — no coverage curve and no top-level panic count; the identity holds
//	     the LEGO- ablation, hazards, seed splitting and the fault rate.
const Version = 8

// BackupSuffix is appended to the checkpoint path for the rotated last-good
// copy that Save leaves behind and LoadWithFallback falls back to.
const BackupSuffix = ".bak"

// Seed is one retained corpus entry. Split marks a half that seed
// splitting added next to its long parent; every other entry's statements
// were harvested into the structure library when it joined a pool.
//
// Entry, when set, is the seed's JSON object as AppendSeed writes the
// fields, and stands in for SQL: a campaign snapshot fills Entry,
// NewEdges and Split from the seed's cached entry and leaves SQL empty, so
// a seed's script is rendered and encoded once per campaign, not once per
// save. Load fills the fields only.
type Seed struct {
	SQL      string `json:"sql"`
	NewEdges int    `json:"new_edges"`
	Split    bool   `json:"split,omitempty"`
	Entry    string `json:"-"`
}

// MarshalJSON writes Entry when the seed carries one, and the fields
// otherwise, so json.Marshal of a snapshot writes what Save does.
func (s Seed) MarshalJSON() ([]byte, error) {
	if s.Entry != "" {
		return []byte(s.Entry), nil
	}
	type fields Seed
	return json.Marshal(fields(s))
}

// Script returns the seed's script: SQL, or the script inside Entry when
// the seed carries one.
func (s Seed) Script() (string, error) {
	if s.Entry == "" {
		return s.SQL, nil
	}
	var f struct {
		SQL string `json:"sql"`
	}
	err := json.Unmarshal([]byte(s.Entry), &f)
	return f.SQL, err
}

// Edge is one accumulated coverage-map slot (index + seen-bucket mask).
type Edge struct {
	Idx  uint32 `json:"i"`
	Mask uint8  `json:"m"`
}

// Crash is one deduplicated oracle entry.
type Crash struct {
	ID          string   `json:"id"`
	Component   string   `json:"component"`
	Kind        string   `json:"kind"`
	Stack       []string `json:"stack"`
	Window      []uint16 `json:"window,omitempty"`
	Reproducer  string   `json:"reproducer"`
	FoundAtExec int      `json:"found_at_exec"`
	Hits        int      `json:"hits"`

	// Triage results: empty/zero when the crash was never triaged.
	Status       string `json:"status,omitempty"`
	OriginalLen  int    `json:"original_len,omitempty"`
	MinimizedLen int    `json:"minimized_len,omitempty"`
	Replays      int    `json:"replays,omitempty"`
}

// Incident is one entry of a supervised campaign's incident journal: a
// worker failure and how the supervisor resolved it. The journal is part of
// the campaign's deterministic output — same seed, same incidents.
type Incident struct {
	// Epoch is the barrier-to-barrier interval the failure struck in.
	Epoch int `json:"epoch"`
	// Shard is the failed worker's index.
	Shard int `json:"shard"`
	// Kind classifies the failure (WORKER_PANIC, EPOCH_STALL,
	// ORGANIC_PANIC).
	Kind string `json:"kind"`
	// Retries is the shard's cumulative retry tally after this incident.
	Retries int `json:"retries"`
	// Outcome records the supervisor's decision (RETRIED, QUARANTINED).
	Outcome string `json:"outcome"`
	// Detail carries deterministic context: the injected fault's
	// coordinates, or an organic panic's normalized stack.
	Detail string `json:"detail,omitempty"`
}

// State is the complete serializable campaign state: the campaign-wide view
// at the top level and one Shard entry per worker. Every campaign, one
// worker included, runs on the epoch-barrier executor, so EpochStmts is at
// least 1; resume rejects a state without one. Statement types and dialects
// travel as their raw integer codes to keep this package free of fuzzer
// dependencies.
type State struct {
	Version int `json:"version"`

	// Campaign identity: a resume under different options would silently
	// diverge, so Resume compares these. Worker i runs the RNG stream
	// Seed+i. The options after MaxLen are written only when they differ
	// from the facade's defaults (LEGO, not LEGO-; hazards armed; no seed
	// splitting; no fault injection).
	Dialect                   uint8   `json:"dialect"`
	Seed                      int64   `json:"seed"`
	MaxLen                    int     `json:"max_len"`
	DisableSequenceAlgorithms bool    `json:"disable_sequence_algorithms,omitempty"`
	DisableHazards            bool    `json:"disable_hazards,omitempty"`
	SplitLongSeeds            bool    `json:"split_long_seeds,omitempty"`
	FaultRate                 float64 `json:"fault_rate,omitempty"`

	// Topology. Workers and EpochStmts identify the campaign like Seed
	// does: resuming under a different topology would move every epoch
	// barrier. Epoch counts the merge barriers passed.
	Workers    int `json:"workers"`
	EpochStmts int `json:"epoch_stmts,omitempty"`
	Epoch      int `json:"epoch,omitempty"`

	// Totals across workers.
	Execs int `json:"execs"`
	Stmts int `json:"stmts"`

	// Crashes is the campaign's crash oracle, the only copy of the crashes:
	// worker entries carry none, since a barrier drains every worker's
	// sightings into it.
	Crashes []Crash `json:"crashes"`

	// Seeds holds every worker's seeds once, in first-appearance order
	// walking workers by index; Coverage is the OR of the workers' maps.
	Seeds    []Seed `json:"seeds"`
	Coverage []Edge `json:"coverage"`

	// Chaos plane and supervision. ChaosRate/ChaosSeed identify the
	// injected fault schedule the way Seed identifies the fuzzing schedule,
	// and MaxEpochRetries is the per-shard retry budget; Resume insists on
	// all three. Incidents is the journal of worker failures.
	ChaosRate       float64    `json:"chaos_rate,omitempty"`
	ChaosSeed       int64      `json:"chaos_seed,omitempty"`
	MaxEpochRetries int        `json:"max_epoch_retries,omitempty"`
	Incidents       []Incident `json:"incidents,omitempty"`

	// Shards holds one entry per worker, in shard-index order.
	Shards []Shard `json:"shards"`
}

// Shard is one worker's state; Pool indexes State.Seeds. The structure
// library is not stored: it is a function of the pool, rebuilt on resume by
// harvesting every entry not marked Split, in pool order. Nor are crashes:
// a worker's sightings are drained into State.Crashes at every barrier.
type Shard struct {
	// Counters.
	Execs        int `json:"execs"`
	Stmts        int `json:"stmts"`
	EnginePanics int `json:"engine_panics"`

	// RNG stream position (xrand.Source state).
	RNG uint64 `json:"rng"`

	Pool        []int       `json:"pool"`
	Picked      []int       `json:"picked"`
	Affinity    [][2]uint16 `json:"affinity"`
	GenAffinity [][2]uint16 `json:"gen_affinity"`

	// Sequence-synthesis state: the generated-sequence vector (the Prefix
	// Sequence index is rebuilt from it), start types, rotation counter,
	// and the affinity pairs discovered but not yet synthesized.
	SynthSeqs   [][]uint16  `json:"synth_seqs"`
	SynthStarts []uint16    `json:"synth_starts"`
	SynthRot    int         `json:"synth_rot"`
	Pending     [][2]uint16 `json:"pending"`

	// Quarantined marks a worker whose retry budget is exhausted: it holds
	// its last-good state and no longer runs epochs. Retries is its
	// cumulative retry tally.
	Quarantined bool `json:"quarantined,omitempty"`
	Retries     int  `json:"retries,omitempty"`
}

// envelope wraps the state with an integrity checksum so a torn or
// corrupted file is detected at load time instead of resuming a campaign
// from garbage. Save writes it compact, as json.Marshal would, but builds
// the bytes by hand (see SaveFS); Load decodes it through this type.
type envelope struct {
	Checksum string          `json:"checksum"`
	State    json.RawMessage `json:"state"`
}

// The fixed text around the checksum and the payload of a saved envelope,
// and the checksum's length: "sha256:" and 64 hex digits.
const (
	envPrefix   = `{"checksum":"`
	envMiddle   = `","state":`
	checksumLen = len("sha256:") + 2*sha256.Size
)

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(h[:])
}

// spare holds the buffer of the last save for the next one. A checkpoint
// runs to hundreds of KiB, and growing and faulting in a fresh buffer that
// size costs a save more than encoding into it; a campaign saves one
// checkpoint at a time, so one spare serves it, and only its first save
// grows a buffer. A save that finds none starts an empty one.
var spare struct {
	sync.Mutex
	buf []byte
}

// takeBuffer returns the spare, emptied, or nil when there is none.
func takeBuffer() []byte {
	spare.Lock()
	defer spare.Unlock()
	b := spare.buf
	spare.buf = nil
	return b[:0]
}

// putBuffer keeps b as the spare unless a larger one is kept already.
func putBuffer(b []byte) {
	spare.Lock()
	defer spare.Unlock()
	if cap(b) > cap(spare.buf) {
		spare.buf = b
	}
}

// Save writes the state to path atomically on the real filesystem; see
// SaveFS for the protocol.
func Save(path string, st *State) error {
	return SaveFS(OS, path, st)
}

// SaveFS writes the state to path atomically: the JSON envelope is written
// to a temp file in the same directory, fsynced, and renamed over the
// target, so a crash mid-write leaves either the old checkpoint or the new
// one, never a truncated hybrid; the parent directory is then fsynced so a
// crash immediately after Save cannot lose the rename itself. An existing
// checkpoint is first rotated to path+BackupSuffix, keeping a last-good
// generation that LoadWithFallback can resume from if the primary is later
// corrupted on disk. fsys lets callers route the writes through a
// fault-injecting filesystem (internal/chaos).
func SaveFS(fsys FS, path string, st *State) error {
	st.Version = Version
	// The envelope is {"checksum":"sha256:…","state":<payload>}, exactly
	// what json.Marshal(envelope{…}) produces, built in one buffer: the
	// checksum's fixed-length slot is reserved, the payload encoded after
	// it, and the slot filled from the payload.
	data := takeBuffer()
	data = append(data, envPrefix...)
	slot := len(data)
	data = append(data, make([]byte, checksumLen)...)
	data = append(data, envMiddle...)
	start := len(data)
	data, err := AppendState(data, st)
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	h := sha256.Sum256(data[start:])
	copy(data[slot:], "sha256:")
	hex.Encode(data[slot+len("sha256:"):], h[:])
	data = append(data, '}')
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(data)
	putBuffer(data)
	if err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpName)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	// Rotate the previous generation before the rename lands. Best-effort:
	// a missing previous checkpoint (first save) is the normal case, and a
	// failed rotation must not block the fresh save.
	if _, err := fsys.Stat(path); err == nil {
		_ = fsys.Rename(path, path+BackupSuffix)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		fsys.Remove(tmpName)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	// The rename updated a directory entry, not file contents; without the
	// directory fsync a crash here could forget the rename and resurrect
	// the rotated generation — or, on a first save, leave nothing at all.
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	return nil
}

// Load reads and verifies a checkpoint. It reads the format version first,
// so a file from another build fails with its version named, then fails
// loudly on a checksum mismatch (torn write, manual edit, disk corruption)
// or on a shard list or pool that disagrees with the rest of the state.
func Load(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("checkpoint: %s is not a checkpoint file: %w", path, err)
	}
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(env.State, &head); err != nil {
		return nil, fmt.Errorf("checkpoint: decode state: %w", err)
	}
	if head.Version != Version {
		return nil, fmt.Errorf("checkpoint: %s has format version %d, this build reads only version %d", path, head.Version, Version)
	}
	if got := sum(env.State); got != env.Checksum {
		return nil, fmt.Errorf("checkpoint: %s is corrupt: checksum %s, want %s", path, got, env.Checksum)
	}
	var st State
	if err := json.Unmarshal(env.State, &st); err != nil {
		return nil, fmt.Errorf("checkpoint: decode state: %w", err)
	}
	if st.Workers < 1 || len(st.Shards) != st.Workers {
		return nil, fmt.Errorf("checkpoint: %s is malformed: %d workers, %d shard entries", path, st.Workers, len(st.Shards))
	}
	for i, sh := range st.Shards {
		if len(sh.Picked) != len(sh.Pool) {
			return nil, fmt.Errorf("checkpoint: %s is malformed: shard %d has %d pick counts for %d pool entries", path, i, len(sh.Picked), len(sh.Pool))
		}
		for j, k := range sh.Pool {
			if k < 0 || k >= len(st.Seeds) {
				return nil, fmt.Errorf("checkpoint: %s is malformed: shard %d pool entry %d is seed %d of a %d-seed store", path, i, j, k, len(st.Seeds))
			}
		}
	}
	return &st, nil
}

// LoadWithFallback reads a checkpoint like Load, but when the primary file
// is unreadable — corrupt, truncated, version-mismatched, or missing — it
// falls back to the rotated path+BackupSuffix generation instead of aborting
// the resume. On fallback the returned warning is non-empty and names both
// the primary's failure and the backup actually used; the caller should
// surface it, since the campaign restarts from one checkpoint generation
// earlier. The warning is empty when the primary loaded cleanly.
func LoadWithFallback(path string) (st *State, warning string, err error) {
	st, perr := Load(path)
	if perr == nil {
		return st, "", nil
	}
	bak := path + BackupSuffix
	st, berr := Load(bak)
	if berr != nil {
		// Neither generation is usable; the primary's error is the one that
		// explains what happened to the campaign.
		return nil, "", perr
	}
	return st, fmt.Sprintf("checkpoint: primary %s unusable (%v); resuming from last-good backup %s (execs=%d)",
		path, perr, bak, st.Execs), nil
}
