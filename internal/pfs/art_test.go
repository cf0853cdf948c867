package pfs

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestARTPostsOneAtATime: the asynchronous request thread posts its
// requests FIFO and one at a time, each after its own ARTSetup — the
// first after the thread wakes, every later one after its predecessor
// completes — and fires each Done once. Only a request that finds the
// thread idle books an event; requests queued behind a busy thread book
// none.
func TestARTPostsOneAtATime(t *testing.T) {
	r := newRig(t, 1, 4)
	tl := trace.NewLog(1 << 12)
	r.fsys.SetTrace(tl)
	if err := r.fsys.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	f, err := r.fsys.Open("f", 0, MAsync, nil)
	if err != nil {
		t.Fatal(err)
	}
	setup := r.fsys.cfg.ARTSetup
	const n = 6
	var reqs []*Async
	fired := make([]int, n)
	var order []int
	enqueue := func(wantEvents int) {
		i := len(reqs)
		before := r.k.Pending()
		a := f.IReadAt(int64(i)*128<<10, 128<<10)
		if got := r.k.Pending() - before; got != wantEvents {
			t.Errorf("request %d booked %d events, want %d", i, got, wantEvents)
		}
		a.Done.OnFireCall(func(any, error) { fired[i]++; order = append(order, i) }, nil)
		reqs = append(reqs, a)
	}
	enqueue(1) // the idle thread is woken once
	enqueue(0) // its start is already booked
	enqueue(0)
	r.k.At(setup/2, func() { enqueue(0) })               // paying the first ARTSetup
	r.k.At(setup+sim.Millisecond, func() { enqueue(0) }) // the first request in flight
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	drained := r.k.Now()
	enqueue(1) // idle again once the active list drained
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}

	for i, a := range reqs {
		if fired[i] != 1 || a.Done.Err() != nil {
			t.Fatalf("request %d: Done fired %d times, err %v", i, fired[i], a.Done.Err())
		}
		if order[i] != i {
			t.Fatalf("completion order %v, want FIFO", order)
		}
	}
	// Every stripe send of a request happens at its post instant, so the
	// distinct send instants are the post instants.
	var posts []sim.Time
	for _, e := range tl.Events() {
		if e.Kind == trace.StripeSend && (len(posts) == 0 || posts[len(posts)-1] != e.T) {
			posts = append(posts, e.T)
		}
	}
	if len(posts) != n {
		t.Fatalf("%d post instants for %d requests: %v", len(posts), n, posts)
	}
	for i := range reqs {
		var ready sim.Time // the thread woke at 0 for the first request
		switch {
		case i == n-1:
			ready = drained
		case i > 0:
			ready = reqs[i-1].Done.FiredAt()
		}
		if posts[i] != ready+setup {
			t.Fatalf("request %d posted at %v, want ARTSetup after %v", i, posts[i], ready)
		}
	}
	if f.art.issued != n || f.IOBytes != n*128<<10 {
		t.Fatalf("ART issued %d, IOBytes %d", f.art.issued, f.IOBytes)
	}
}
