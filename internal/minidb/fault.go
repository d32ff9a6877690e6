package minidb

import (
	"fmt"

	"github.com/seqfuzz/lego/internal/chaos"
)

// faultInjector raises non-BugReport panics at statement dispatch,
// simulating the organic engine defects (nil derefs, slice overruns, logic
// bombs) a real in-process substrate accumulates over time. AFL++ survives
// those because the DBMS runs in a forked child; our harness must survive
// them via crash containment (harness.Runner), and the injector exists so
// tests can prove that containment under load.
//
// Each decision comes from the chaos plane, keyed by (exec, statement,
// site) under FaultSeed, so the schedule is a pure function of (FaultRate,
// FaultSeed) with no cursor: an engine rebuilt after a contained panic, or
// restored from a checkpoint, draws exactly the faults the original would
// have.
type faultInjector struct {
	plane *chaos.Injector
	exec  int // the harness's index of the running test case
}

// beforeDispatch and afterDispatch are two distinct injection sites: the
// panic's call stack differs between them, so a campaign under fault
// injection accumulates (at least) two unique organic crash signatures —
// enough to exercise oracle deduplication of contained panics.

// beforeDispatch raises a pre-dispatch organic fault.
//
//lego:injector
func (f *faultInjector) beforeDispatch(stmt int) {
	if f.plane.EngineFault(f.exec, stmt, 0) {
		panic(fmt.Errorf("injected engine fault at exec %d, statement %d (pre-dispatch)", f.exec, stmt))
	}
}

// afterDispatch raises a post-dispatch organic fault.
//
//lego:injector
func (f *faultInjector) afterDispatch(stmt int) {
	if f.plane.EngineFault(f.exec, stmt, 1) {
		panic(fmt.Errorf("injected engine fault at exec %d, statement %d (post-dispatch)", f.exec, stmt))
	}
}
