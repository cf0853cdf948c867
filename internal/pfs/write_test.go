package pfs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

func TestFileWrite(t *testing.T) {
	r := newRig(t, 1, 2)
	if err := r.fsys.Create("f", 512<<10); err != nil {
		t.Fatal(err)
	}
	r.k.Go("writer", func(p *sim.Proc) {
		f, _ := r.fsys.Open("f", 0, MAsync, nil)
		if err := f.Write(p, 0, 128<<10); err != nil {
			t.Error(err)
		}
		if err := f.Write(p, 512<<10, 1); err == nil {
			t.Error("write past EOF accepted")
		}
		if err := f.Write(p, -1, 10); err == nil {
			t.Error("negative offset accepted")
		}
		f.Close()
		if err := f.Write(p, 0, 10); !errors.Is(err, ErrClosed) {
			t.Errorf("write after close: %v", err)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIWriteAt(t *testing.T) {
	r := newRig(t, 1, 2)
	if err := r.fsys.Create("f", 512<<10); err != nil {
		t.Fatal(err)
	}
	r.k.Go("writer", func(p *sim.Proc) {
		f, _ := r.fsys.Open("f", 0, MAsync, nil)
		a := f.IWriteAt(0, 128<<10)
		if !a.Write {
			t.Error("IWriteAt request not marked as write")
		}
		if err := a.Done.Wait(p); err != nil {
			t.Error(err)
		}
		bad := f.IWriteAt(512<<10, 64<<10)
		if err := bad.Done.Wait(p); err == nil {
			t.Error("out-of-range async write reported success")
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	var served int64
	for _, srv := range r.fsys.servers {
		served += srv.BytesServed
	}
	if served != 128<<10 {
		t.Fatalf("I/O nodes absorbed %d write bytes, want 128KiB", served)
	}
}

func TestGlobalModeSizeMismatch(t *testing.T) {
	r := newRig(t, 2, 2)
	if err := r.fsys.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	group := NewOpenGroup(r.k, 2)
	sawErr := 0
	for i := 0; i < 2; i++ {
		i := i
		node := r.compute[i]
		r.k.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
			f, _ := r.fsys.Open("f", node, MGlobal, group)
			size := int64(64 << 10)
			if i == 1 {
				size = 128 << 10
			}
			if _, err := f.Read(p, size); errors.Is(err, ErrBadSize) {
				sawErr++
			}
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if sawErr != 2 {
		t.Fatalf("%d parties saw ErrBadSize, want 2 (M_GLOBAL requires uniform sizes)", sawErr)
	}
}

func TestHintAtValidation(t *testing.T) {
	r := newRig(t, 1, 2)
	if err := r.fsys.Create("f", 256<<10); err != nil {
		t.Fatal(err)
	}
	f, err := r.fsys.Open("f", 0, MAsync, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.HintAt(256<<10, 1); err == nil {
		t.Fatal("out-of-range hint accepted")
	}
	if err := f.HintAt(0, 64<<10); err != nil {
		t.Fatal(err)
	}
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.HintAt(0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("hint after close: %v", err)
	}
}
