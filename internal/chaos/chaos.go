// Package chaos is the campaign's deterministic fault plane: every injected
// failure is a pure function of (Rate, Seed) and the coordinates of the
// decision. It schedules two families of faults:
//
//   - engine faults, the organic panics minidb raises when its FaultRate is
//     armed, keyed by (harness exec index, statement index, site). They
//     prove the harness survives its *target*: crash containment, oracle
//     deduplication of contained panics, triage of flaky crashes.
//   - supervision faults for sharded campaigns: worker panics mid-epoch and
//     epoch stalls keyed by (epoch, shard, attempt), and checkpoint I/O
//     faults keyed by save ordinal. They prove the campaign survives its
//     *harness*: retry from the last barrier snapshot, quarantine on budget
//     exhaustion, graceful degradation.
//
// # Determinism
//
// Each decision mixes its kind and coordinates into a private splitmix64
// stream seeded by Seed. A keyed schedule has no cursor to persist or
// replay: a campaign resumed at execution N, or at epoch E, re-derives
// exactly the faults the uninterrupted campaign would have seen from there
// on, and an engine rebuilt after a contained panic needs nothing carried
// over. Keying by attempt also lets a retried epoch re-roll: attempt 0 may
// panic where attempt 1 runs clean, without any state recording that
// history; keying engine faults by exec index does the same for triage
// replays of an injected crash.
package chaos

import (
	"errors"
	"fmt"
)

// Decision kinds, mixed into the key stream so the same coordinates draw
// independent schedules per failure mode.
const (
	kindWorkerPanic uint64 = iota + 1
	kindEpochStall
	kindSaveFault
	kindEngineFault
)

// golden is the splitmix64 increment, reused as the key-absorption stride.
const golden = 0x9e3779b97f4a7c15

// Injector generates the fault schedule. The zero Injector injects nothing.
type Injector struct {
	// Rate is the per-decision fault probability, shared by every kind.
	Rate float64
	// Seed selects the schedule; campaigns with equal (Rate, Seed) see
	// identical faults.
	Seed int64
}

// New builds an injector. A zero seed is normalized to 1, mirroring the
// campaign-seed normalization, so "unset" and "explicitly 1" agree.
func New(rate float64, seed int64) *Injector {
	if seed == 0 {
		seed = 1
	}
	return &Injector{Rate: rate, Seed: seed}
}

// mix is the splitmix64 output function.
func mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream derives the private splitmix64 stream for one keyed decision by
// absorbing the kind and coordinates into the seed.
type stream struct{ state uint64 }

func (in *Injector) stream(kind uint64, keys ...int) stream {
	st := mix(uint64(in.Seed) + golden*kind)
	for _, k := range keys {
		st = mix(st + golden*uint64(int64(k)+1))
	}
	return stream{state: st}
}

// next draws a uniform float in [0, 1).
func (s *stream) next() float64 {
	s.state += golden
	return float64(mix(s.state)>>11) / (1 << 53)
}

// WorkerPanic reports whether the worker running (epoch, shard, attempt)
// panics mid-epoch, and at which fraction of its epoch budget the panic
// strikes.
func (in *Injector) WorkerPanic(epoch, shard, attempt int) (fire bool, frac float64) {
	s := in.stream(kindWorkerPanic, epoch, shard, attempt)
	return s.next() < in.Rate, s.next()
}

// EpochStall reports whether the worker running (epoch, shard, attempt)
// stalls — stops making progress at the given fraction of its epoch budget
// and never reaches the barrier, for the supervisor's watchdog to abort.
func (in *Injector) EpochStall(epoch, shard, attempt int) (fire bool, frac float64) {
	s := in.stream(kindEpochStall, epoch, shard, attempt)
	return s.next() < in.Rate, s.next()
}

// EngineFault reports whether the engine panics at site (0 before dispatch,
// 1 after) of statement stmt in the harness's exec-th test case.
func (in *Injector) EngineFault(exec, stmt, site int) bool {
	s := in.stream(kindEngineFault, exec, stmt, site)
	return s.next() < in.Rate
}

// FSFault names one injected checkpoint I/O failure mode.
type FSFault int

// The checkpoint write path's three failure modes: the disk filling up, a
// write torn partway through, and the final rename failing.
const (
	FaultNone FSFault = iota
	FaultENOSPC
	FaultTornWrite
	FaultRename
)

func (f FSFault) String() string {
	switch f {
	case FaultENOSPC:
		return "ENOSPC"
	case FaultTornWrite:
		return "torn write"
	case FaultRename:
		return "rename failure"
	default:
		return "none"
	}
}

// SaveFault draws the fault (if any) afflicting the save-th checkpoint
// write of this process.
func (in *Injector) SaveFault(save int) FSFault {
	s := in.stream(kindSaveFault, save)
	if s.next() >= in.Rate {
		return FaultNone
	}
	return FSFault(1 + int(s.next()*3))
}

// InjectedPanic is the value a chaos-scheduled worker panic carries, so the
// supervisor's recover can tell an injected failure from an organic one.
type InjectedPanic struct {
	Epoch, Shard, Attempt int
}

func (p InjectedPanic) Error() string {
	return fmt.Sprintf("chaos: injected worker panic (epoch %d, shard %d, attempt %d)", p.Epoch, p.Shard, p.Attempt)
}

// ErrInjected is the sentinel every injected I/O fault wraps; callers use
// errors.Is(err, chaos.ErrInjected) to tell a scheduled fault (skip the
// save, keep the campaign) from a real disk failure (abort).
var ErrInjected = errors.New("chaos: injected I/O fault")
