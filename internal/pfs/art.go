package pfs

import (
	"fmt"

	"repro/internal/sim"
)

// Async is one asynchronous request: the internal structure the Paragon
// OS allocates in the setup phase and tracks on the active list. Done
// fires when the data is available (reads) or durable (writes); the ART
// itself moves no user-visible pointers.
type Async struct {
	Off, N int64
	Write  bool
	Done   *sim.Signal
}

// art is the asynchronous request thread machinery for one open
// instance: requests queue FIFO on the active list and the thread posts
// and processes them one at a time via Fast Path, exactly the structure
// Section 3 of the paper describes. The thread is not a simulated
// process but three pooled callbacks: artStart, artPost and artDone.
type art struct {
	f      *File
	active []*Async // the active list, a head-indexed ring
	head   int
	busy   bool        // a request is in progress or an artStart is booked
	sig    *sim.Signal // the head request's stripe signal while it is posted
	issued int64
}

// IWriteAt queues an asynchronous write of [off, off+n), the write-side
// twin of IReadAtReusing (used by the write-behind extension).
func (f *File) IWriteAt(off, n int64) *Async {
	return f.enqueue(&Async{Off: off, N: n, Write: true})
}

// IReadAtReusing queues an asynchronous read of [off, off+n) and returns
// its tracking structure immediately (the setup phase). The request is
// processed FIFO by the file's asynchronous request thread. An
// out-of-range request fails the returned signal rather than erroring
// synchronously, matching how the asynchronous path reports errors at
// wait time. The caller manages the request storage: req (nil on the
// first call) is reset and requeued, so a steady stream of asynchronous
// reads — the prefetcher's issue loop — allocates no Async and no Signal.
// The caller must not requeue req until its Done has fired and every
// consumer is finished with it.
func (f *File) IReadAtReusing(req *Async, off, n int64) *Async {
	if req == nil {
		req = &Async{}
	}
	req.Off, req.N, req.Write = off, n, false
	return f.enqueue(req)
}

func (f *File) enqueue(req *Async) *Async {
	if req.Done == nil {
		req.Done = sim.NewSignal(f.fsys.k)
	} else {
		req.Done.Reset(f.fsys.k)
	}
	op := "read"
	if req.Write {
		op = "write"
	}
	if f.closed {
		f.fsys.k.After(0, func() { req.Done.Fire(ErrClosed) })
		return req
	}
	if req.Off < 0 || req.N <= 0 || req.Off+req.N > f.meta.size {
		err := fmt.Errorf("pfs: async %s [%d,+%d) outside %s (%d bytes)",
			op, req.Off, req.N, f.meta.name, f.meta.size)
		f.fsys.k.After(0, func() { req.Done.Fire(err) })
		return req
	}
	a := f.art
	if a == nil {
		a = &art{f: f}
		f.art = a
	}
	a.issued++
	a.active = append(a.active, req)
	if !a.busy {
		// An idle thread is woken by one zero-delay event; requests that
		// arrive while it is busy wait on the active list for free.
		a.busy = true
		f.fsys.k.AfterCall(0, artStart, a)
	}
	return req
}

// artStart wakes the idle thread, which pays the posting cost before it
// posts the head of the active list.
func artStart(x any) {
	a := x.(*art)
	a.f.fsys.k.AfterCall(a.f.fsys.cfg.ARTSetup, artPost, a)
}

// artPost issues the head request over Fast Path on a pooled signal.
func artPost(x any) {
	a := x.(*art)
	f, req := a.f, a.active[a.head]
	a.sig = f.fsys.getSig()
	f.fsys.stripeIOInto(a.sig, f.node, f.tenant, f.meta, req.Off, req.N, req.Write)
	a.sig.WaitCall(artDone, a)
}

// artDone completes the head request — a read counts its bytes into
// IOBytes, as a stripe read does — and posts the next one after the posting
// cost, or lets the thread go idle.
func artDone(x any, err error) {
	a := x.(*art)
	f, req := a.f, a.active[a.head]
	f.fsys.putSig(a.sig)
	a.sig = nil
	a.active[a.head] = nil
	a.head++
	if a.head == len(a.active) {
		a.active, a.head = a.active[:0], 0
	}
	if err == nil && !req.Write {
		f.IOBytes += req.N
	}
	req.Done.Fire(err)
	if a.head < len(a.active) {
		f.fsys.k.AfterCall(f.fsys.cfg.ARTSetup, artPost, a)
		return
	}
	a.busy = false
}
