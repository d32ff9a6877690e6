package chaos

import (
	"fmt"
	"io/fs"
	"strings"
	"syscall"

	"github.com/seqfuzz/lego/internal/checkpoint"
)

// FS wraps a checkpoint.FS and injects the schedule's I/O faults into the
// checkpoint write protocol: the n-th Save of the process draws
// Injector.SaveFault(n), and the drawn fault surfaces at the matching step
// — ENOSPC and torn writes at File.Write, rename failures at the final
// rename (the rotation rename is left alone, so a faulted save never eats
// the last-good generation). Every injected error wraps ErrInjected.
//
// The save ordinal is process-local state, not campaign state: faults
// change what lands on disk, never what the campaign computes, so the
// ordinal needs no checkpointing. FS is not safe for concurrent use. A
// campaign saves off its coordinator, on the leg's one saver goroutine,
// which runs one save at a time in snapshot order, so the ordinal still
// counts saves in that order.
type FS struct {
	inj   *Injector
	inner checkpoint.FS

	saves   int     // CreateTemp calls seen — one per checkpoint.Save
	pending FSFault // fault drawn for the save in flight
	faults  int     // injected faults raised so far
}

// NewFS builds the fault-injecting filesystem layer. A nil injector (or a
// zero rate) passes everything through untouched.
func NewFS(inj *Injector, inner checkpoint.FS) *FS {
	return &FS{inj: inj, inner: inner}
}

// Faults returns how many I/O faults were injected so far.
func (c *FS) Faults() int { return c.faults }

// fsError is an injected fault: errors.Is finds both ErrInjected and the
// modeled errno through it.
type fsError struct {
	op   string
	fail FSFault
	err  error
}

func (e *fsError) Error() string {
	return fmt.Sprintf("chaos: injected %s fault on %s: %v", e.fail, e.op, e.err)
}

func (e *fsError) Unwrap() []error { return []error{ErrInjected, e.err} }

func (c *FS) CreateTemp(dir, pattern string) (checkpoint.File, error) {
	c.pending = c.inj.SaveFault(c.saves)
	c.saves++
	f, err := c.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: f, fs: c}, nil
}

func (c *FS) Stat(name string) (fs.FileInfo, error) { return c.inner.Stat(name) }

func (c *FS) Rename(oldpath, newpath string) error {
	// Only the temp-to-final rename is faultable; the best-effort rotation
	// rename (path -> path.bak) passes through so the backup generation is
	// governed by real disk behavior alone.
	if c.pending == FaultRename && strings.Contains(oldpath, ".tmp-") {
		c.pending = FaultNone
		c.faults++
		return &fsError{op: "rename", fail: FaultRename, err: syscall.EACCES}
	}
	return c.inner.Rename(oldpath, newpath)
}

func (c *FS) Remove(name string) error { return c.inner.Remove(name) }

func (c *FS) SyncDir(dir string) error { return c.inner.SyncDir(dir) }

// faultFile applies the pending write fault to the temp file.
type faultFile struct {
	inner checkpoint.File
	fs    *FS
}

func (f *faultFile) Write(p []byte) (int, error) {
	switch f.fs.pending {
	case FaultENOSPC:
		f.fs.pending = FaultNone
		f.fs.faults++
		return 0, &fsError{op: "write", fail: FaultENOSPC, err: syscall.ENOSPC}
	case FaultTornWrite:
		// Half the payload lands before the failure, modeling a write torn
		// by a crashing disk; Save's cleanup removes the torn temp file, and
		// even if it survived, Load's checksum would reject it.
		f.fs.pending = FaultNone
		f.fs.faults++
		n, err := f.inner.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, &fsError{op: "write", fail: FaultTornWrite, err: syscall.EIO}
	default:
		return f.inner.Write(p)
	}
}

func (f *faultFile) Sync() error { return f.inner.Sync() }

func (f *faultFile) Close() error { return f.inner.Close() }

func (f *faultFile) Name() string { return f.inner.Name() }
