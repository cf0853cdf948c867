package machine

import (
	"slices"
	"testing"

	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// memberCounters is one array member's measurements at the end of a run.
type memberCounters struct {
	requests, sectors, errs int64
	busy                    float64
	seek, qlen              uint64
}

// writeReadRun is everything a write-then-read-back run observed.
type writeReadRun struct {
	done     [][]sim.Time // per compute node: each operation's completion instant
	digest   uint64
	arrays   [][2]int64 // per array: Requests, Bytes
	members  []memberCounters
	executed uint64
}

// runWriteRead has every compute node write its partition of a shared
// file in 64 KiB records, then read back the first quarter of it. With
// perMember set, Members() is called on every array before the run,
// which forces the per-member path: the reference.
func runWriteRead(t *testing.T, perMember bool) writeReadRun {
	t.Helper()
	m := Build(DefaultConfig())
	defer m.Close()
	if perMember {
		for _, a := range m.Arrays {
			a.Members()
		}
	}
	tl := trace.NewLog(1 << 16)
	m.SetTrace(tl)
	m.FS.SetTrace(tl)
	const fileSize, rec = 8 << 20, 64 << 10
	if err := m.FS.Create("f", fileSize); err != nil {
		t.Fatal(err)
	}
	share := int64(fileSize / len(m.Compute))
	out := writeReadRun{done: make([][]sim.Time, len(m.Compute))}
	for i, node := range m.Compute {
		m.K.Go("writer", func(p *sim.Proc) {
			f, err := m.FS.Open("f", node, pfs.MAsync, nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			start := int64(i) * share
			for off := start; off < start+share; off += rec {
				if err := f.Write(p, off, rec); err != nil {
					t.Error(err)
					return
				}
				out.done[i] = append(out.done[i], p.Now())
			}
			for off := start; off < start+share/4; off += rec {
				if _, err := f.ReadAt(p, off, rec); err != nil {
					t.Error(err)
					return
				}
				out.done[i] = append(out.done[i], p.Now())
			}
		})
	}
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	out.executed = m.K.Executed()
	out.digest = tl.Digest()
	now := m.K.Now()
	for _, a := range m.Arrays {
		out.arrays = append(out.arrays, [2]int64{a.Requests, a.Bytes})
		for _, d := range a.Members() {
			out.members = append(out.members, memberCounters{
				requests: d.Requests, sectors: d.Sectors, errs: d.Errors, busy: d.Busy.Fraction(now),
				seek: d.SeekDist.Fingerprint(), qlen: d.QueueLen.Fingerprint(),
			})
		}
	}
	return out
}

// TestWritesKeepLockstep: a write-then-read-back workload on a built
// machine gives the same trace, the same completion instants and the
// same disk counters whether its arrays serve in lockstep or member by
// member. Writes do not end lockstep, so the lockstep run executes fewer
// kernel events.
func TestWritesKeepLockstep(t *testing.T) {
	want := runWriteRead(t, true)
	got := runWriteRead(t, false)
	if got.digest != want.digest {
		t.Errorf("trace digest %016x, per-member %016x", got.digest, want.digest)
	}
	for i := range want.done {
		if !slices.Equal(got.done[i], want.done[i]) {
			t.Errorf("node %d completions\n%v\nper-member\n%v", i, got.done[i], want.done[i])
		}
	}
	if !slices.Equal(got.arrays, want.arrays) {
		t.Errorf("array counters %v, per-member %v", got.arrays, want.arrays)
	}
	if !slices.Equal(got.members, want.members) {
		t.Errorf("member counters\n%+v\nper-member\n%+v", got.members, want.members)
	}
	if got.executed >= want.executed {
		t.Errorf("lockstep run executed %d events, per-member %d: the writes ended lockstep", got.executed, want.executed)
	}
}
