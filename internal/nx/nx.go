// Package nx is a compatibility veneer shaped after the Paragon OSF/1 nx
// I/O interface the paper's workloads were written against: gopen /
// setiomode / cread / iread / iowait / iodone / lseek / close, with file
// descriptors instead of handles. It makes ports of historical Paragon
// programs read like the originals; new code should use internal/workload
// or internal/pfs directly.
//
// A Process binds one compute node's simulated process to the machine;
// all calls must run on that process's goroutine.
package nx

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// Whence values for Lseek, matching the classic constants.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// ErrBadFD reports an unknown or closed file descriptor.
var ErrBadFD = errors.New("nx: bad file descriptor")

// Process is one node's nx context.
type Process struct {
	p      *sim.Proc
	m      *machine.Machine
	node   int
	fds    map[int]*pfs.File
	nextFD int
}

// Attach binds simulated process p, running on compute node node, to
// machine m.
func Attach(p *sim.Proc, m *machine.Machine, node int) *Process {
	return &Process{p: p, m: m, node: node, fds: make(map[int]*pfs.File), nextFD: 3}
}

// Gopen opens a PFS file in the given I/O mode and returns a descriptor.
// Collective modes need the group shared by all parties (the "global"
// in gopen).
func (px *Process) Gopen(path string, mode pfs.Mode, group *pfs.OpenGroup) (int, error) {
	f, err := px.m.FS.Open(path, px.node, mode, group)
	if err != nil {
		return -1, err
	}
	fd := px.nextFD
	px.nextFD++
	px.fds[fd] = f
	return fd, nil
}

// file resolves a descriptor.
func (px *Process) file(fd int) (*pfs.File, error) {
	f, ok := px.fds[fd]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return f, nil
}

// File exposes the underlying open instance (to attach a prefetcher or
// read statistics).
func (px *Process) File(fd int) (*pfs.File, error) { return px.file(fd) }

// Setiomode changes the descriptor's I/O mode mid-file.
func (px *Process) Setiomode(fd int, mode pfs.Mode) error {
	f, err := px.file(fd)
	if err != nil {
		return err
	}
	return f.SetMode(mode)
}

// Iomode reports the descriptor's current I/O mode.
func (px *Process) Iomode(fd int) (pfs.Mode, error) {
	f, err := px.file(fd)
	if err != nil {
		return 0, err
	}
	return f.Mode(), nil
}

// Cread is the synchronous read: it blocks until n bytes (or the EOF
// remainder) are in the caller's buffer and returns the count, 0 at EOF
// (the historical call returned -1; Go idiom keeps the error channel
// separate).
func (px *Process) Cread(fd int, n int64) (int64, error) {
	f, err := px.file(fd)
	if err != nil {
		return 0, err
	}
	got, err := f.Read(px.p, n)
	if errors.Is(err, io.EOF) {
		return 0, nil
	}
	return got, err
}

// Cwrite is the synchronous write at the individual pointer.
func (px *Process) Cwrite(fd int, n int64) (int64, error) {
	f, err := px.file(fd)
	if err != nil {
		return 0, err
	}
	off := f.Offset()
	if off+n > f.Size() {
		n = f.Size() - off
	}
	if n <= 0 {
		return 0, nil
	}
	if err := f.Write(px.p, off, n); err != nil {
		return 0, err
	}
	if err := f.SeekTo(off + n); err != nil {
		return 0, err
	}
	return n, nil
}

// Request tracks an asynchronous operation, the return of Iread.
type Request struct {
	async *pfs.Async
}

// Iread posts an asynchronous read of n bytes at the individual file
// pointer and advances the pointer immediately, as the historical iread
// did. Only M_ASYNC descriptors may use it (shared-pointer modes cannot
// pre-advance safely).
func (px *Process) Iread(fd int, n int64) (*Request, error) {
	f, err := px.file(fd)
	if err != nil {
		return nil, err
	}
	if f.Mode() != pfs.MAsync {
		return nil, fmt.Errorf("nx: iread requires M_ASYNC, fd %d is %v", fd, f.Mode())
	}
	off := f.Offset()
	if off >= f.Size() {
		return nil, fmt.Errorf("nx: iread at EOF")
	}
	if off+n > f.Size() {
		n = f.Size() - off
	}
	req := f.IReadAt(off, n)
	if err := f.SeekTo(off + n); err != nil {
		return nil, err
	}
	return &Request{async: req}, nil
}

// Iowait blocks until the request completes and returns its error.
func (px *Process) Iowait(r *Request) error {
	if r == nil || r.async == nil {
		return errors.New("nx: iowait on nil request")
	}
	return r.async.Done.Wait(px.p)
}

// Iodone reports whether the request has completed, without blocking.
func (px *Process) Iodone(r *Request) bool {
	return r != nil && r.async != nil && r.async.Done.Fired()
}

// Lseek moves the individual file pointer and returns the new offset.
func (px *Process) Lseek(fd int, off int64, whence int) (int64, error) {
	f, err := px.file(fd)
	if err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = f.Offset()
	case SeekEnd:
		base = f.Size()
	default:
		return 0, fmt.Errorf("nx: bad whence %d", whence)
	}
	if err := f.SeekTo(base + off); err != nil {
		return 0, err
	}
	return f.Offset(), nil
}

// Eseof reports whether the individual pointer sits at end of file.
func (px *Process) Eseof(fd int) (bool, error) {
	f, err := px.file(fd)
	if err != nil {
		return false, err
	}
	return f.Offset() >= f.Size(), nil
}

// Mkdir creates a PFS directory.
func (px *Process) Mkdir(path string) error { return px.m.FS.Mkdir(path) }

// Unlink removes a PFS file or empty directory.
func (px *Process) Unlink(path string) error { return px.m.FS.Remove(path) }

// Stat describes a PFS path.
func (px *Process) Stat(path string) (pfs.Info, error) { return px.m.FS.Stat(path) }

// Close releases the descriptor.
func (px *Process) Close(fd int) error {
	f, err := px.file(fd)
	if err != nil {
		return err
	}
	delete(px.fds, fd)
	return f.Close()
}
