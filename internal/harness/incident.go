package harness

import "github.com/seqfuzz/lego/internal/checkpoint"

// Incident kinds: what felled the worker.
const (
	// IncidentWorkerPanic is a chaos-injected worker panic.
	IncidentWorkerPanic = "WORKER_PANIC"
	// IncidentEpochStall is a chaos-injected stall: the worker stopped making
	// progress mid-epoch and the supervisor's step watchdog aborted it at the
	// barrier.
	IncidentEpochStall = "EPOCH_STALL"
	// IncidentOrganicPanic is a real panic that escaped a worker — a harness
	// bug, not an injected fault — contained by the supervisor's recover.
	IncidentOrganicPanic = "ORGANIC_PANIC"
)

// Incident outcomes: what the supervisor did about it.
const (
	// IncidentRetried: the shard was restored to its last barrier snapshot
	// and deterministically re-ran the epoch.
	IncidentRetried = "RETRIED"
	// IncidentQuarantined: the shard's retry budget is exhausted; it holds
	// its last-good state and the campaign degrades to fewer workers.
	IncidentQuarantined = "QUARANTINED"
)

// Incident is one entry of a supervised campaign's incident journal: a
// worker failure and the supervisor's resolution. Incidents are part of the
// campaign's deterministic output — same seed and chaos schedule, same
// journal — which is what makes the supervision machinery testable at all.
// The live journal is the checkpointed one.
type Incident = checkpoint.Incident
