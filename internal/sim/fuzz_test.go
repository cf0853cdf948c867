package sim

import "testing"

// FuzzQueueOrder feeds the ladder queue and the sorted-slice reference
// model (refQueue) arbitrary interleavings of pushes (times at four
// magnitudes, from adjacent ticks to far-future DownDeadline-scale
// timers, including exact ties) and pops, and asserts the ladder's pop
// sequence equals the model's exactly — the kernel's (time, seq) total
// order.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 3, 3})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{0x0c, 0xff, 0x1c, 0xff, 0x2c, 0x01, 3, 3, 3})
	f.Add([]byte{0x40, 0x10, 0x20, 3, 0x44, 0xff, 0xff, 3, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		ref := &refQueue{}
		lq := newLadderQueue()
		var seq uint64
		size := 0
		popBoth := func() {
			a, b := ref.pop(), lq.pop()
			if a.t != b.t || a.seq != b.seq {
				t.Fatalf("pop mismatch: reference (%v, %d) vs ladder (%v, %d)", a.t, a.seq, b.t, b.seq)
			}
			size--
		}
		i := 0
		next := func() byte {
			if i < len(data) {
				b := data[i]
				i++
				return b
			}
			return 0
		}
		for i < len(data) {
			op := next()
			if op&3 == 3 {
				if size > 0 {
					popBoth()
				}
				continue
			}
			// Times span the kernel's whole legal domain [0, 1<<62) —
			// masked, not clamped, so far-future magnitudes stay
			// covered without overflowing Time (see ladder.go).
			scale := []uint64{1, 1 << 10, 1 << 30, 1 << 50}[(op>>2)&3]
			v := uint64(next())
			if op&0x40 != 0 {
				v = v*256 + uint64(next())
			}
			tm := Time(v * scale & (1<<62 - 1))
			seq++
			ref.push(&event{t: tm, seq: seq})
			lq.push(&event{t: tm, seq: seq})
			size++
		}
		for size > 0 {
			popBoth()
		}
		if tm, ok := lq.peek(); ok {
			t.Fatalf("ladder not empty after drain: peek %v", tm)
		}
	})
}

// FuzzKernelOrdering feeds the scheduler arbitrary shapes of At/After
// schedules — including events that schedule further events while
// running — and asserts the kernel's core contract: every scheduled
// event executes exactly once, execution time never goes backwards, and
// events at the same instant run in FIFO scheduling order (the (t, seq)
// discipline every higher layer's determinism rests on).
func FuzzKernelOrdering(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{7, 7, 7, 7})
	f.Add([]byte{0x3f, 0x10, 0x20, 0xff, 0})
	f.Add([]byte{13, 0x31, 0x31, 0x31, 200, 100, 50})
	// Lane-heavy: every byte is a multiple of 13, so nearly every event
	// (children included) lands at the instant that booked it.
	f.Add([]byte{0x34, 0x34, 0x00, 0x0d, 0x34, 0x1a, 0x27, 0x75})
	f.Add([]byte{0x34, 0x34, 0x34, 0x34, 0x34, 0x34, 0x34, 0x34, 0x34, 0x34, 0x34, 0x34})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 48 {
			data = data[:48]
		}
		k := NewKernel()
		type rec struct {
			t     Time
			issue int
		}
		var execd []rec
		issued := 0

		// spawn schedules one event issue-numbered in At-call order; bits
		// of b decide whether the event spawns children when it runs.
		var spawn func(b byte, depth int)
		spawn = func(b byte, depth int) {
			me := issued
			issued++
			delay := Time(b%13) * Millisecond
			k.After(delay, func() {
				execd = append(execd, rec{k.Now(), me})
				if depth < 3 && b&0x10 != 0 {
					spawn(b>>1, depth+1)
				}
				if depth < 3 && b&0x20 != 0 {
					spawn(b>>2, depth+1)
				}
			})
		}
		for _, b := range data {
			spawn(b, 0)
		}

		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(execd) != issued {
			t.Fatalf("executed %d of %d scheduled events", len(execd), issued)
		}
		if k.Executed() != uint64(issued) {
			t.Fatalf("kernel counted %d executions, harness %d", k.Executed(), issued)
		}
		if k.Pending() != 0 || k.Live() != 0 {
			t.Fatalf("residual state: %d pending events, %d live procs", k.Pending(), k.Live())
		}
		seen := make(map[int]bool, len(execd))
		for i, r := range execd {
			if seen[r.issue] {
				t.Fatalf("event %d executed twice", r.issue)
			}
			seen[r.issue] = true
			if i == 0 {
				continue
			}
			prev := execd[i-1]
			if r.t < prev.t {
				t.Fatalf("time went backwards: event %d at %v after event %d at %v",
					r.issue, r.t, prev.issue, prev.t)
			}
			if r.t == prev.t && r.issue < prev.issue {
				t.Fatalf("FIFO violated at %v: event %d ran after event %d", r.t, r.issue, prev.issue)
			}
		}
	})
}
