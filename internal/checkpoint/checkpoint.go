// Package checkpoint serializes the durable state of a fuzzing campaign so
// long runs survive process death: the seed pool, the affinity map, the
// accumulated coverage edges, the oracle's deduplicated crashes, execution
// counters, and the RNG stream position. A campaign restored from a
// checkpoint continues exactly where the original left off — same schedule,
// same discoveries — because every input to the fuzzing loop is captured.
//
// The package is deliberately passive: it defines the wire format and the
// file protocol (atomic temp-file+rename writes, checksummed reads) and
// knows nothing about the fuzzer. Package core converts live campaign state
// to and from this form.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Version is the current checkpoint format version. Load rejects files
// written by an unknown version rather than guessing at field semantics.
//
// History:
//
//	v1 — initial format (PR 1).
//	v2 — crashes carry triage results (status, original/minimized length,
//	     replay tally) so a resumed campaign keeps its verified, minimized
//	     reproducers.
//	v3 — sharded campaigns: the top level gains the shard topology
//	     (workers, epoch_stmts, epoch) and a shards array holding one
//	     complete per-worker state (RNG, pool, coverage, synthesis, …)
//	     each; the top-level curve and crashes become the merged global
//	     view. v2 files (single-shard) still load: v3 only adds fields,
//	     and an absent shards array means "one worker, state at top level".
//	v4 — chaos plane and shard supervision: the top level gains the chaos
//	     identity (chaos_rate, chaos_seed, max_epoch_retries) and the
//	     incident journal; each shard entry gains its quarantine flag and
//	     retry tally. Purely additive: v3 files still load, and Save
//	     stamps v3 whenever a state uses no v4 feature, so campaigns that
//	     never engage the supervision plane emit byte-identical files.
const Version = 4

// minReadVersion is the oldest format Load still accepts. v2 single-shard
// checkpoints are a strict subset of v3, so campaigns saved before sharding
// resume cleanly.
const minReadVersion = 2

// BackupSuffix is appended to the checkpoint path for the rotated last-good
// copy that Save leaves behind and LoadWithFallback falls back to.
const BackupSuffix = ".bak"

// PoolSeed is one retained corpus entry.
type PoolSeed struct {
	SQL      string `json:"sql"`
	NewEdges int    `json:"new_edges"`
	Picked   int    `json:"picked"`
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

	// Triage results (v2): empty/zero when the crash was never triaged.
	Status       string `json:"status,omitempty"`
	OriginalLen  int    `json:"original_len,omitempty"`
	MinimizedLen int    `json:"minimized_len,omitempty"`
	Replays      int    `json:"replays,omitempty"`
}

// CurvePoint is one sample of the coverage-over-time curve.
type CurvePoint struct {
	Execs int `json:"execs"`
	Edges int `json:"edges"`
}

// Incident is one entry of a supervised campaign's incident journal (v4): a
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

// State is the complete serializable campaign state. Statement types and
// dialects travel as their raw integer codes to keep this package free of
// fuzzer dependencies.
type State struct {
	Version int `json:"version"`

	// Campaign identity: a resume under different options would silently
	// diverge, so Load-side validation compares these.
	Dialect uint8 `json:"dialect"`
	Seed    int64 `json:"seed"`
	MaxLen  int   `json:"max_len"`

	// Counters.
	Execs        int `json:"execs"`
	Stmts        int `json:"stmts"`
	EnginePanics int `json:"engine_panics"`

	// RNG stream position (xrand.Source state) and the fault injector's
	// private stream, when fault injection is armed.
	RNG        uint64 `json:"rng"`
	FaultState uint64 `json:"fault_state,omitempty"`

	Pool        []PoolSeed          `json:"pool"`
	Affinity    [][2]uint16         `json:"affinity"`
	GenAffinity [][2]uint16         `json:"gen_affinity"`
	Coverage    []Edge              `json:"coverage"`
	Crashes     []Crash             `json:"crashes"`
	Curve       []CurvePoint        `json:"curve"`
	Library     map[uint16][]string `json:"library"`

	// Sequence-synthesis state: the generated-sequence vector (the Prefix
	// Sequence index is rebuilt from it), start types, rotation counter,
	// and the affinity pairs discovered but not yet synthesized.
	SynthSeqs   [][]uint16  `json:"synth_seqs"`
	SynthStarts []uint16    `json:"synth_starts"`
	SynthRot    int         `json:"synth_rot"`
	Pending     [][2]uint16 `json:"pending"`

	// Sharded-campaign topology (v3). Workers and EpochStmts identify the
	// campaign like Seed does — resuming under a different topology would
	// change every epoch boundary — and Epoch counts the merge barriers
	// passed. Shards holds one complete per-worker state in shard-index
	// order; when it is empty the checkpoint is a single-shard campaign and
	// the worker's state lives at the top level. In a sharded checkpoint the
	// top-level Execs/Stmts/EnginePanics are totals across shards, Curve is
	// the global (barrier-sampled) curve, and Crashes is the merged global
	// oracle including triage results; the remaining top-level campaign
	// fields are unused.
	Workers    int      `json:"workers,omitempty"`
	EpochStmts int      `json:"epoch_stmts,omitempty"`
	Epoch      int      `json:"epoch,omitempty"`
	Shards     []*State `json:"shards,omitempty"`

	// Chaos plane and supervision (v4). ChaosRate/ChaosSeed identify the
	// injected fault schedule the way Seed identifies the fuzzing schedule,
	// and MaxEpochRetries is the per-shard retry budget — all three are
	// campaign identity: resuming under different values would diverge
	// silently, so Resume validates them. Incidents is the global journal
	// of worker failures. On a shard entry, Quarantined marks a worker
	// whose retry budget is exhausted (it holds its last-good state and no
	// longer runs epochs) and Retries is its cumulative retry tally.
	ChaosRate       float64    `json:"chaos_rate,omitempty"`
	ChaosSeed       int64      `json:"chaos_seed,omitempty"`
	MaxEpochRetries int        `json:"max_epoch_retries,omitempty"`
	Incidents       []Incident `json:"incidents,omitempty"`
	Quarantined     bool       `json:"quarantined,omitempty"`
	Retries         int        `json:"retries,omitempty"`
}

// versionFor stamps the oldest format version whose readers understand
// every feature st uses: states that never engaged the chaos/supervision
// plane keep writing v3, so a supervised-but-uneventful campaign's files
// stay byte-identical to pre-supervision builds.
func versionFor(st *State) int {
	if st.ChaosRate != 0 || st.ChaosSeed != 0 || st.MaxEpochRetries != 0 ||
		len(st.Incidents) > 0 || st.Quarantined || st.Retries > 0 {
		return Version
	}
	for _, sh := range st.Shards {
		if sh.Quarantined || sh.Retries > 0 {
			return Version
		}
	}
	return 3
}

// envelope wraps the state with an integrity checksum so a torn or
// corrupted file is detected at load time instead of resuming a campaign
// from garbage. Save writes it compact, as json.Marshal would, but builds
// the bytes by hand (see SaveFS); Load decodes it through this type.
type envelope struct {
	Checksum string          `json:"checksum"`
	State    json.RawMessage `json:"state"`
}

// The fixed text around the checksum and the payload of a saved envelope.
const (
	envPrefix = `{"checksum":"`
	envMiddle = `","state":`
)

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(h[:])
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
	st.Version = versionFor(st)
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal: %w", err)
	}
	// The envelope is {"checksum":"sha256:…","state":<payload>}: exactly
	// what json.Marshal(envelope{…}) produces, assembled around the payload
	// in one pre-sized buffer instead of re-encoding (and re-validating) the
	// already-marshalled state.
	checksum := sum(payload)
	data := make([]byte, 0, len(envPrefix)+len(checksum)+len(envMiddle)+len(payload)+1)
	data = append(data, envPrefix...)
	data = append(data, checksum...)
	data = append(data, envMiddle...)
	data = append(data, payload...)
	data = append(data, '}')
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
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

// Load reads and verifies a checkpoint. It fails loudly on a checksum
// mismatch (torn write, manual edit, disk corruption) or a format-version
// mismatch.
func Load(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("checkpoint: %s is not a checkpoint file: %w", path, err)
	}
	// Save hashes the compact payload and embeds it verbatim, but files
	// from earlier builds embed it indented; compacting first makes the
	// checksum whitespace-insensitive, so both layouts verify against
	// exactly the bytes Save hashed.
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.State); err != nil {
		return nil, fmt.Errorf("checkpoint: decode state: %w", err)
	}
	if got := sum(compact.Bytes()); got != env.Checksum {
		return nil, fmt.Errorf("checkpoint: %s is corrupt: checksum %s, want %s", path, got, env.Checksum)
	}
	var st State
	if err := json.Unmarshal(env.State, &st); err != nil {
		return nil, fmt.Errorf("checkpoint: decode state: %w", err)
	}
	if st.Version < minReadVersion || st.Version > Version {
		return nil, fmt.Errorf("checkpoint: %s has format version %d, this build reads %d–%d", path, st.Version, minReadVersion, Version)
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
