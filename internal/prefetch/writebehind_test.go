package prefetch_test

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// writeRun writes the whole file in 64 KB records with a compute delay
// between writes, either synchronously or under write-behind.
func writeRun(t *testing.T, behind bool, delay sim.Time) sim.Time {
	t.Helper()
	m := machine.Build(smallMachine())
	const fileSize, rec = 1 << 20, 64 << 10
	if err := m.FS.Create("f", fileSize); err != nil {
		t.Fatal(err)
	}
	var wb *prefetch.WriteBehind
	if behind {
		wb = prefetch.NewWriteBehind(m.K, prefetch.DefaultWriteBehindConfig())
	}
	m.K.Go("writer", func(p *sim.Proc) {
		f, err := m.FS.Open("f", 0, pfs.MAsync, nil)
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		for off := int64(0); off < fileSize; off += rec {
			if behind {
				if err := wb.Write(p, f, off, rec); err != nil {
					t.Error(err)
					return
				}
			} else {
				if err := f.Write(p, off, rec); err != nil {
					t.Error(err)
					return
				}
			}
			p.Sleep(delay)
		}
		if behind {
			if err := wb.Flush(p, f); err != nil {
				t.Error(err)
			}
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	return m.K.Now()
}

func TestWriteBehindOverlapsComputation(t *testing.T) {
	delay := 40 * sim.Millisecond
	sync := writeRun(t, false, delay)
	behind := writeRun(t, true, delay)
	if behind >= sync {
		t.Fatalf("write-behind (%v) not faster than synchronous (%v) with compute to hide behind", behind, sync)
	}
	// With full overlap the run approaches pure compute time (16 writes
	// x 40 ms) plus the final flush.
	if behind > sync*9/10 {
		t.Fatalf("write-behind %v saved <10%% vs %v", behind, sync)
	}
}

func TestWriteBehindBackpressure(t *testing.T) {
	m := machine.Build(smallMachine())
	if err := m.FS.Create("f", 4<<20); err != nil {
		t.Fatal(err)
	}
	cfg := prefetch.DefaultWriteBehindConfig()
	cfg.MaxBuffers = 2
	wb := prefetch.NewWriteBehind(m.K, cfg)
	m.K.Go("writer", func(p *sim.Proc) {
		f, _ := m.FS.Open("f", 0, pfs.MAsync, nil)
		defer f.Close()
		for off := int64(0); off < 4<<20; off += 64 << 10 {
			if err := wb.Write(p, f, off, 64<<10); err != nil {
				t.Error(err)
				return
			}
		}
		if err := wb.Flush(p, f); err != nil {
			t.Error(err)
		}
		if wb.Pending(f) != 0 {
			t.Errorf("Pending = %d after flush", wb.Pending(f))
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	if wb.Stalls == 0 {
		t.Fatal("back-to-back writes through a 2-buffer pool never stalled")
	}
	if wb.StallTime.Mean() <= 0 {
		t.Fatal("stalls recorded no waiting time")
	}
	if wb.Writes != 64 {
		t.Fatalf("Writes = %d, want 64", wb.Writes)
	}
}

func TestWriteBehindValidation(t *testing.T) {
	m := machine.Build(smallMachine())
	if err := m.FS.Create("f", 128<<10); err != nil {
		t.Fatal(err)
	}
	wb := prefetch.NewWriteBehind(m.K, prefetch.DefaultWriteBehindConfig())
	m.K.Go("writer", func(p *sim.Proc) {
		f, _ := m.FS.Open("f", 0, pfs.MAsync, nil)
		if err := wb.Write(p, f, 128<<10, 1); err == nil {
			t.Error("out-of-range staged write accepted")
		}
		if err := wb.Write(p, f, 0, 0); err == nil {
			t.Error("zero-length staged write accepted")
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBehindSurfacesDiskErrors(t *testing.T) {
	m := machine.Build(smallMachine())
	if err := m.FS.Create("f", 512<<10); err != nil {
		t.Fatal(err)
	}
	for _, a := range m.Arrays {
		for i, d := range a.Members() {
			d.InjectFaultProfile(disk.FaultProfile{Rate: 1, Seed: int64(i)})
		}
	}
	wb := prefetch.NewWriteBehind(m.K, prefetch.DefaultWriteBehindConfig())
	m.K.Go("writer", func(p *sim.Proc) {
		f, _ := m.FS.Open("f", 0, pfs.MAsync, nil)
		if err := wb.Write(p, f, 0, 64<<10); err != nil {
			t.Errorf("staging should not fail: %v", err)
		}
		if err := wb.Flush(p, f); err == nil {
			t.Error("flush swallowed the disk error")
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
}
