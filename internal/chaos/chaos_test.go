package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"github.com/seqfuzz/lego/internal/checkpoint"
)

// TestScheduleIsPureFunctionOfRateAndSeed: two injectors with equal
// (Rate, Seed) draw identical decisions at every coordinate; changing the
// seed moves the schedule.
func TestScheduleIsPureFunctionOfRateAndSeed(t *testing.T) {
	a, b := New(0.3, 7), New(0.3, 7)
	other := New(0.3, 8)
	diverged := false
	for epoch := 0; epoch < 20; epoch++ {
		for shard := 0; shard < 4; shard++ {
			for attempt := 0; attempt < 3; attempt++ {
				af, afr := a.WorkerPanic(epoch, shard, attempt)
				bf, bfr := b.WorkerPanic(epoch, shard, attempt)
				if af != bf || afr != bfr {
					t.Fatalf("equal injectors diverged at (%d,%d,%d)", epoch, shard, attempt)
				}
				as, _ := a.EpochStall(epoch, shard, attempt)
				bs, _ := b.EpochStall(epoch, shard, attempt)
				if as != bs {
					t.Fatalf("equal injectors' stall schedules diverged at (%d,%d,%d)", epoch, shard, attempt)
				}
				of, ofr := other.WorkerPanic(epoch, shard, attempt)
				if of != af || ofr != afr {
					diverged = true
				}
			}
		}
	}
	if !diverged {
		t.Fatal("seed 7 and seed 8 drew identical schedules across 240 coordinates")
	}
}

// TestRateExtremes: rate 0 never fires, rate 1 always fires, and fractions
// stay in [0, 1).
func TestRateExtremes(t *testing.T) {
	never, always := New(0, 1), New(1, 1)
	for i := 0; i < 50; i++ {
		if fire, _ := never.WorkerPanic(i, 0, 0); fire {
			t.Fatal("rate-0 injector fired")
		}
		fire, frac := always.WorkerPanic(i, 0, 0)
		if !fire {
			t.Fatal("rate-1 injector did not fire")
		}
		if frac < 0 || frac >= 1 {
			t.Fatalf("fraction %v outside [0,1)", frac)
		}
		if always.SaveFault(i) == FaultNone {
			t.Fatal("rate-1 injector drew no save fault")
		}
		if never.SaveFault(i) != FaultNone {
			t.Fatal("rate-0 injector drew a save fault")
		}
		if !always.EngineFault(i, 0, 0) || never.EngineFault(i, 0, 1) {
			t.Fatal("engine faults ignore the rate extremes")
		}
	}
}

// TestKindsDrawIndependentSchedules: the panic and stall schedules at the
// same coordinates must not be copies of each other.
func TestKindsDrawIndependentSchedules(t *testing.T) {
	in := New(0.5, 3)
	same := true
	for i := 0; i < 64; i++ {
		p, _ := in.WorkerPanic(i, 1, 0)
		s, _ := in.EpochStall(i, 1, 0)
		if p != s {
			same = false
		}
	}
	if same {
		t.Fatal("panic and stall schedules agreed on all 64 coordinates")
	}
}

// TestEngineFaultsKeyedByCoordinates: engine-fault decisions agree between
// equal injectors, and each coordinate — exec, statement, site — moves the
// schedule, so a replay at a new exec index re-rolls its faults.
func TestEngineFaultsKeyedByCoordinates(t *testing.T) {
	a, b := New(0.5, 9), New(0.5, 9)
	moved := [3]bool{}
	for i := 0; i < 64; i++ {
		f := a.EngineFault(i, 2, 0)
		if f != b.EngineFault(i, 2, 0) {
			t.Fatalf("equal injectors diverged at exec %d", i)
		}
		moved[0] = moved[0] || f != a.EngineFault(i+64, 2, 0)
		moved[1] = moved[1] || f != a.EngineFault(i, 3, 0)
		moved[2] = moved[2] || f != a.EngineFault(i, 2, 1)
	}
	if moved != [3]bool{true, true, true} {
		t.Fatalf("a coordinate never moved the schedule (exec, stmt, site): %v", moved)
	}
}

func testState() *checkpoint.State {
	return &checkpoint.State{Dialect: 2, Seed: 1, MaxLen: 5, Workers: 1, Execs: 10,
		Shards: []checkpoint.Shard{{Execs: 10, RNG: 42}}}
}

// TestFSInjectsEachFaultKind: driving checkpoint.SaveFS through an
// always-faulting FS surfaces every failure mode, each wrapping ErrInjected
// and its modeled errno — and an ENOSPC/torn-write fault leaves a
// previously saved primary checkpoint untouched.
func TestFSInjectsEachFaultKind(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	if err := checkpoint.Save(path, testState()); err != nil {
		t.Fatal(err)
	}

	cfs := NewFS(New(1, 5), checkpoint.OS)
	seen := map[FSFault]bool{}
	for i := 0; i < 32 && len(seen) < 3; i++ {
		err := checkpoint.SaveFS(cfs, path, testState())
		if err == nil {
			t.Fatal("always-faulting FS let a save succeed")
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("injected fault does not wrap ErrInjected: %v", err)
		}
		switch {
		case errors.Is(err, syscall.ENOSPC):
			seen[FaultENOSPC] = true
		case errors.Is(err, syscall.EIO):
			seen[FaultTornWrite] = true
		case errors.Is(err, syscall.EACCES):
			seen[FaultRename] = true
		default:
			t.Fatalf("injected fault models no known errno: %v", err)
		}
	}
	if len(seen) < 3 {
		t.Fatalf("32 faulted saves exercised only %d of 3 fault kinds", len(seen))
	}
	if cfs.Faults() == 0 {
		t.Fatal("FS counted no faults")
	}

	// Whatever the fault mix, a loadable generation must survive: the
	// primary (write faults fail before rotation) or the rotated backup
	// (rename faults strike after rotation).
	if _, _, err := checkpoint.LoadWithFallback(path); err != nil {
		t.Fatalf("no generation survived the faulted saves: %v", err)
	}

	// No temp litter: every faulted save cleaned up after itself.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); name != "c.ckpt" && name != "c.ckpt"+checkpoint.BackupSuffix {
			t.Fatalf("faulted saves left %s behind", name)
		}
	}
}

// TestFSPassesThroughWhenQuiet: a zero-rate chaos FS is transparent — saves
// succeed and round-trip.
func TestFSPassesThroughWhenQuiet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	cfs := NewFS(New(0, 5), checkpoint.OS)
	if err := checkpoint.SaveFS(cfs, path, testState()); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Execs != 10 || st.Shards[0].RNG != 42 {
		t.Fatalf("round trip corrupted state: %+v", st)
	}
	if cfs.Faults() != 0 {
		t.Fatalf("quiet FS injected %d faults", cfs.Faults())
	}
}
