package pfs

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/trace"
)

// refRead is the process form of ReadCall, kept as its reference (it was
// the body of File.Read): it sleeps through the client call and the
// mode's pointer step, and parks on the data step. The drive test runs
// it under the reference closed-loop driver.
func refRead(p *sim.Proc, f *File, n int64) (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if n <= 0 {
		return 0, fmt.Errorf("pfs: read size %d must be positive", n)
	}
	start := p.Now()
	f.fsys.emit(trace.ReadStart, f.node, f.meta.name, f.offset, n)
	defer func() { f.fsys.emit(trace.ReadEnd, f.node, f.meta.name, f.offset, n) }()
	p.Sleep(f.fsys.cfg.ClientCall)

	var off int64
	var err error
	switch f.mode {
	case MAsync:
		off = f.offset
		n = clamp(off, n, f.meta.size)
		if n == 0 {
			return 0, io.EOF
		}
		f.offset += n
		err = refPerformRead(p, f, off, n)

	case MUnix:
		refLockToken(p, f)
		p.Sleep(f.fsys.cfg.TokenClaim)
		off = f.meta.sharedOff
		n = clamp(off, n, f.meta.size)
		if n == 0 {
			f.meta.token.Unlock()
			return 0, io.EOF
		}
		f.meta.sharedOff += n
		err = refPerformRead(p, f, off, n)
		f.meta.token.Unlock()

	case MLog:
		refLockToken(p, f)
		p.Sleep(f.fsys.cfg.TokenClaim)
		off = f.meta.sharedOff
		n = clamp(off, n, f.meta.size)
		f.meta.sharedOff += n
		f.meta.token.Unlock()
		if n == 0 {
			return 0, io.EOF
		}
		err = refPerformRead(p, f, off, n)

	case MRecord:
		return refRecordRead(p, f, n, start)

	case MSync, MGlobal:
		return refCollectiveRead(p, f, n, start)

	default:
		return 0, fmt.Errorf("pfs: invalid mode %d", int(f.mode))
	}
	if err != nil {
		return 0, err
	}
	return refReadDone(f, n, start), nil
}

// refLockToken is the process form of the token step.
func refLockToken(p *sim.Proc, f *File) {
	fsys := f.fsys
	t0 := p.Now()
	f.meta.token.Lock(p)
	if w := p.Now() - t0; w > 0 {
		fsys.TokenWaits++
		fsys.TokenWaitTime += w
	}
	fsys.TokenOps++
}

func refRecordRead(p *sim.Proc, f *File, n int64, start sim.Time) (int64, error) {
	if f.meta.recordSize == 0 {
		f.meta.recordSize = n
	} else if f.meta.recordSize != n {
		return 0, ErrBadSize
	}
	off := (f.rounds*int64(f.Parties()) + int64(f.rank)) * n
	if off >= f.meta.size {
		return 0, io.EOF
	}
	f.rounds++
	n = clamp(off, n, f.meta.size)
	p.Sleep(f.fsys.cfg.CollectSync)
	if err := refPerformRead(p, f, off, n); err != nil {
		return 0, err
	}
	return refReadDone(f, n, start), nil
}

func refCollectiveRead(p *sim.Proc, f *File, n int64, start sim.Time) (int64, error) {
	if f.meta.sharedOff >= f.meta.size {
		return 0, io.EOF
	}
	// The process form of OpenGroup.round.
	g := f.group
	g.sizes[f.rank] = n
	g.barrier.Wait(p)
	off, uniform := g.claim(f.meta, f.rank, f.mode == MGlobal)
	if f.mode == MGlobal && !uniform {
		return 0, ErrBadSize
	}
	f.lastTotal = f.group.total
	n = clamp(off, n, f.meta.size)
	p.Sleep(f.fsys.cfg.CollectSync)
	if f.mode == MSync {
		p.Sleep(sim.Time(f.rank) * f.fsys.cfg.SyncStagger)
	}
	if n == 0 {
		return 0, io.EOF
	}

	var err error
	if f.mode == MGlobal {
		err = refGlobalRead(p, f, off, n)
	} else {
		err = refPerformRead(p, f, off, n)
	}
	if err != nil {
		return 0, err
	}
	return refReadDone(f, n, start), nil
}

func refGlobalRead(p *sim.Proc, f *File, off, n int64) error {
	if f.rank == 0 {
		if err := refPerformRead(p, f, off, n); err != nil {
			return err
		}
		f.forward(n)
		return nil
	}
	f.bcast().Acquire(p, 1)
	f.RecordDelivery(off, n)
	return nil
}

func refReadDone(f *File, n int64, start sim.Time) int64 {
	f.ReadCalls++
	f.BytesRead += n
	f.ReadTime.ObserveTime(f.fsys.k.Now() - start)
	return n
}

// refPerformRead parks p on the data step.
func refPerformRead(p *sim.Proc, f *File, off, n int64) error {
	f.readCall(off, n, sim.Resume, p)
	return p.Park()
}
