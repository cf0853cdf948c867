package pfs

import (
	"io"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestTraceRecordsReadsAndStripes(t *testing.T) {
	r := newRig(t, 1, 4)
	tl := trace.NewLog(1024)
	r.fsys.SetTrace(tl)
	if r.fsys.tr != tl {
		t.Fatal("Trace accessor broken")
	}
	if err := r.fsys.Create("f", 512<<10); err != nil {
		t.Fatal(err)
	}
	r.k.Go("reader", func(p *sim.Proc) {
		f, _ := r.fsys.Open("f", 0, MAsync, nil)
		for {
			if _, err := f.Read(p, 128<<10); err == io.EOF {
				return
			} else if err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 reads of 128 KB, and the EOF probe also records a start/end pair.
	if got := tl.Count(trace.ReadStart); got != 5 {
		t.Fatalf("ReadStart = %d, want 5", got)
	}
	if tl.Count(trace.ReadEnd) != tl.Count(trace.ReadStart) {
		t.Fatal("unbalanced read start/end")
	}
	// Each 128 KB read declusters into 2 pieces: 8 sends, 8 replies.
	if got := tl.Count(trace.StripeSend); got != 8 {
		t.Fatalf("StripeSend = %d, want 8", got)
	}
	if tl.Count(trace.StripeReply) != 8 {
		t.Fatalf("StripeReply = %d, want 8", tl.Count(trace.StripeReply))
	}
	// Timeline must be in nondecreasing time order.
	evs := tl.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatal("trace not time-ordered")
		}
	}
}

func TestNoTraceNoOverhead(t *testing.T) {
	// Without a log attached, emit must be a no-op (nil check only).
	r := newRig(t, 1, 2)
	if err := r.fsys.Create("f", 128<<10); err != nil {
		t.Fatal(err)
	}
	r.k.Go("reader", func(p *sim.Proc) {
		f, _ := r.fsys.Open("f", 0, MAsync, nil)
		if _, err := f.Read(p, 64<<10); err != nil {
			t.Error(err)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.fsys.tr != nil {
		t.Fatal("trace attached unexpectedly")
	}
}
