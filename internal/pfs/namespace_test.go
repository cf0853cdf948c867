package pfs

import (
	"errors"
	"io"
	"testing"

	"repro/internal/sim"
)

func TestMkdirStatList(t *testing.T) {
	r := newRig(t, 1, 2)
	if err := r.fsys.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	if err := r.fsys.Mkdir("/data"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate mkdir: %v", err)
	}
	if err := r.fsys.Mkdir("/no/parent"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("mkdir without parent: %v", err)
	}
	if err := r.fsys.Mkdir("/data/run1"); err != nil {
		t.Fatal(err)
	}
	if err := r.fsys.CreateStriped("/data/run1/matrix", 1<<20, 64<<10, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.fsys.Create("/data/notes", 64<<10); err != nil {
		t.Fatal(err)
	}

	info, err := r.fsys.Stat("/data/run1/matrix")
	if err != nil {
		t.Fatal(err)
	}
	if info.IsDir || info.Size != 1<<20 || info.StripeUnit != 64<<10 || info.StripeGroup != 2 {
		t.Fatalf("Stat = %+v", info)
	}
	if info, err := r.fsys.Stat("/data"); err != nil || !info.IsDir {
		t.Fatalf("Stat dir = %+v, %v", info, err)
	}
	if _, err := r.fsys.Stat("/ghost"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Stat missing: %v", err)
	}

	entries, err := r.fsys.List("/data")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0] != "notes" || entries[1] != "run1/" {
		t.Fatalf("List(/data) = %v", entries)
	}
	if _, err := r.fsys.List("/data/notes"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("List of a file: %v", err)
	}
	// Files created under the legacy bare-name convention live in root.
	root, err := r.fsys.List("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(root) != 1 || root[0] != "data/" {
		t.Fatalf("List(/) = %v", root)
	}
}

func TestRemoveSemantics(t *testing.T) {
	r := newRig(t, 1, 2)
	if err := r.fsys.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := r.fsys.Create("/d/f", 256<<10); err != nil {
		t.Fatal(err)
	}
	// Non-empty directory refuses.
	if err := r.fsys.Remove("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("remove non-empty dir: %v", err)
	}
	// Open file refuses.
	f, err := r.fsys.Open("/d/f", 0, MAsync, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.fsys.Remove("/d/f"); !errors.Is(err, ErrBusy) {
		t.Fatalf("remove open file: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Now both go, in order.
	if err := r.fsys.Remove("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := r.fsys.Remove("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fsys.Stat("/d"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("removed dir still stats: %v", err)
	}
	if err := r.fsys.Remove("/"); err == nil {
		t.Fatal("removing / succeeded")
	}
	if err := r.fsys.Remove("/ghost"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("remove missing: %v", err)
	}
}

// TestRemoveReclaimsSpace fills most of the volume, removes, and fills
// again: the second allocation must succeed only because Remove returned
// the blocks.
func TestRemoveReclaimsSpace(t *testing.T) {
	r := newRig(t, 1, 1) // one I/O node: its UFS bounds the volume
	cap := r.fsys.servers[0].FS()
	_ = cap
	big := int64(6) << 30 // ~6 GB of the ~7 GB volume... size depends on geometry
	// Find a size that fits once but not twice.
	size := big
	for r.fsys.CreateStriped("probe", size, 64<<10, []int{0}) != nil {
		size /= 2
	}
	if err := r.fsys.Remove("probe"); err != nil {
		t.Fatal(err)
	}
	// Without reclamation this second pair could not fit.
	if err := r.fsys.CreateStriped("a", size, 64<<10, []int{0}); err != nil {
		t.Fatalf("recreate after remove: %v", err)
	}
	if err := r.fsys.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.fsys.CreateStriped("b", size, 64<<10, []int{0}); err != nil {
		t.Fatalf("third create after removals: %v", err)
	}
}

// TestRecreateAfterRemoveIsReadable: the full cycle create-write-remove-
// recreate-read, exercising stripe file removal on the I/O nodes.
func TestRecreateAfterRemoveIsReadable(t *testing.T) {
	r := newRig(t, 1, 4)
	if err := r.fsys.Create("f", 512<<10); err != nil {
		t.Fatal(err)
	}
	if err := r.fsys.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if err := r.fsys.Create("f", 1<<20); err != nil {
		t.Fatalf("recreate: %v", err)
	}
	var total int64
	r.k.Go("reader", func(p *sim.Proc) {
		f, err := r.fsys.Open("f", 0, MAsync, nil)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			n, err := f.Read(p, 256<<10)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			total += n
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 1<<20 {
		t.Fatalf("read %d after recreate, want 1MiB", total)
	}
}
