package disk

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

func TestFaultInjectionAlwaysFails(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", testGeo(), FIFO)
	d.InjectFaultProfile(FaultProfile{Rate: 1, Seed: 1})
	done := readSig(d, 0, 8)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var de *Error
	if !errors.As(done.Err(), &de) {
		t.Fatalf("err = %v, want *disk.Error", done.Err())
	}
	if de.Disk != "d0" || de.Sector != 0 {
		t.Fatalf("error fields %+v", de)
	}
	if d.Errors != 1 {
		t.Fatalf("Errors = %d", d.Errors)
	}
}

func TestFaultInjectionDisabledByDefault(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", testGeo(), FIFO)
	var sigs []*sim.Signal
	for i := int64(0); i < 50; i++ {
		sigs = append(sigs, readSig(d, i*8, 8))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range sigs {
		if s.Err() != nil {
			t.Fatalf("unexpected fault with injection disarmed: %v", s.Err())
		}
	}
}

func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() []bool {
		k := sim.NewKernel()
		d := New(k, "d0", testGeo(), FIFO)
		d.InjectFaultProfile(FaultProfile{Rate: 0.3, Seed: 99})
		var sigs []*sim.Signal
		for i := int64(0); i < 40; i++ {
			sigs = append(sigs, readSig(d, i*8, 8))
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, len(sigs))
		for i, s := range sigs {
			out[i] = s.Err() != nil
		}
		return out
	}
	a, b := run(), run()
	anyFault := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("fault pattern not deterministic")
		}
		anyFault = anyFault || a[i]
	}
	if !anyFault {
		t.Fatal("0.3 fault rate produced no faults in 40 requests")
	}
}

func TestFaultRateValidation(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", testGeo(), FIFO)
	defer func() {
		if recover() == nil {
			t.Fatal("fault rate 2 accepted")
		}
	}()
	d.InjectFaultProfile(FaultProfile{Rate: 2, Seed: 0})
}

func TestTransientFaultRecoversOnReread(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", testGeo(), FIFO)
	d.InjectFaultProfile(FaultProfile{Rate: 1, TransientFrac: 1, Seed: 3})
	first := readSig(d, 0, 8)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !IsTransient(first.Err()) {
		t.Fatalf("first read err = %v, want transient *disk.Error", first.Err())
	}
	// The re-read of the faulted sector must succeed even at rate 1.
	second := readSig(d, 0, 8)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if second.Err() != nil {
		t.Fatalf("re-read of transiently faulted sector failed: %v", second.Err())
	}
	// A third read is a fresh draw again: at rate 1 it faults.
	third := readSig(d, 0, 8)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if third.Err() == nil {
		t.Fatal("fresh read after recovery should draw a new fault at rate 1")
	}
	if d.TransientErrors != 2 {
		t.Fatalf("TransientErrors = %d, want 2", d.TransientErrors)
	}
}

func TestPermanentFaultPinsSector(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", testGeo(), FIFO)
	d.InjectFaultProfile(FaultProfile{Rate: 1, PermanentFrac: 1, Seed: 3})
	for i := 0; i < 3; i++ {
		done := readSig(d, 0, 8)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if done.Err() == nil {
			t.Fatalf("read %d of a dead sector succeeded", i)
		}
		if IsTransient(done.Err()) {
			t.Fatalf("read %d: permanent fault reported transient", i)
		}
	}
	// Only the first failure draws; the rest are the pinned sector.
	if d.PermanentErrors != 3 || d.Errors != 3 {
		t.Fatalf("PermanentErrors = %d, Errors = %d, want 3, 3", d.PermanentErrors, d.Errors)
	}
	// A different sector is a fresh draw, classified permanent at rate 1.
	other := readSig(d, 512, 8)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if other.Err() == nil {
		t.Fatal("fresh sector read should fault at rate 1")
	}
}

func TestFaultJitterSlowsAndStaysDeterministic(t *testing.T) {
	elapsed := func(fp FaultProfile) sim.Time {
		k := sim.NewKernel()
		d := New(k, "d0", testGeo(), FIFO)
		d.InjectFaultProfile(fp)
		var last *sim.Signal
		for i := int64(0); i < 20; i++ {
			last = readSig(d, i*8, 8)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return last.FiredAt()
	}
	base := elapsed(FaultProfile{Rate: 0.5, TransientFrac: 1, Seed: 11})
	jit := elapsed(FaultProfile{Rate: 0.5, TransientFrac: 1, Jitter: 0.5, Seed: 11})
	if jit <= base {
		t.Fatalf("jittered run finished at %v, base at %v; jitter should cost time", jit, base)
	}
	if again := elapsed(FaultProfile{Rate: 0.5, TransientFrac: 1, Jitter: 0.5, Seed: 11}); again != jit {
		t.Fatalf("jitter not deterministic: %v vs %v", again, jit)
	}
	// Jitter draws must not perturb the fault stream: same seed, same
	// faults with and without jitter (checked via the error counter).
	kA, kB := sim.NewKernel(), sim.NewKernel()
	dA, dB := New(kA, "a", testGeo(), FIFO), New(kB, "b", testGeo(), FIFO)
	dA.InjectFaultProfile(FaultProfile{Rate: 0.5, TransientFrac: 1, Seed: 11})
	dB.InjectFaultProfile(FaultProfile{Rate: 0.5, TransientFrac: 1, Jitter: 0.5, Seed: 11})
	for i := int64(0); i < 20; i++ {
		readSig(dA, i*8, 8)
		readSig(dB, i*8, 8)
	}
	if err := kA.Run(); err != nil {
		t.Fatal(err)
	}
	if err := kB.Run(); err != nil {
		t.Fatal(err)
	}
	if dA.Errors != dB.Errors {
		t.Fatalf("jitter changed the fault stream: %d vs %d errors", dA.Errors, dB.Errors)
	}
}

func TestFaultProfileValidation(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, "d0", testGeo(), FIFO)
	defer func() {
		if recover() == nil {
			t.Fatal("fractions summing past 1 accepted")
		}
	}()
	d.InjectFaultProfile(FaultProfile{Rate: 0.5, TransientFrac: 0.8, PermanentFrac: 0.8})
}

func TestArrayPropagatesMemberFault(t *testing.T) {
	k := sim.NewKernel()
	a := NewArray(k, "raid", 4, testGeo(), FIFO, 0)
	a.Members()[2].InjectFaultProfile(FaultProfile{Rate: 1, Seed: 7})
	done := arrayReadSig(a, 0, 64<<10)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var de *Error
	if !errors.As(done.Err(), &de) {
		t.Fatalf("array err = %v, want member *disk.Error", done.Err())
	}
	if de.Disk != "raid.2" {
		t.Fatalf("fault attributed to %s, want raid.2", de.Disk)
	}
}
