package pfs

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/ionode"
	"repro/internal/sim"
	"repro/internal/trace"
)

// readAtReq is one seeded positioned read: issued at instant at on
// files[file].
type readAtReq struct {
	at     sim.Time
	file   int
	off, n int64
}

// readAtOutcome is what one request's caller observed: when the read
// returned, how many bytes it reported, and its error.
type readAtOutcome struct {
	done sim.Time
	n    int64
	err  string
}

// readAtCounters is the file-level accounting summed over the open
// instances.
type readAtCounters struct {
	readCalls, bytesRead, ioBytes, delivered int64
	readTime                                 uint64 // folded ReadTime fingerprints
}

// readAtRun is everything TestReadAtCallMatchesReadAt compares between
// the two read paths.
type readAtRun struct {
	outcomes []readAtOutcome
	atEnd    []readAtCounters // the counters at each read-end event
	final    readAtCounters
	digests  []uint64 // per-instance delivery digests
	trace    uint64
	executed uint64
	errs     []error
}

// readAtScenario builds a small machine, its open files and a request
// schedule. Requests on a closed instance, or outside its file, are the
// scenario's to include.
type readAtScenario struct {
	name  string
	cfg   func(*Config)
	setup func(t *testing.T, r *rig, arrays []*disk.Array) []*File
	edit  func(reqs []readAtReq, files []*File)       // optional: bend the seeded schedule
	want  func(run readAtRun, reqs []readAtReq) error // the scenario's case occurred
}

// seededReads draws count reads over files at instants in [0, span):
// mostly whole stripe units, some spanning several, some unaligned, so
// requests overlap on a file and on the I/O nodes.
func seededReads(seed int64, files []*File, count int, span sim.Time) []readAtReq {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]readAtReq, count)
	for i := range reqs {
		fi := rng.Intn(len(files))
		size := files[fi].Size()
		n := int64(1+rng.Intn(3)) * (16 << 10)
		if rng.Intn(4) == 0 {
			n += int64(rng.Intn(4096)) + 1
		}
		if n > size {
			n = size
		}
		reqs[i] = readAtReq{
			at:   sim.Time(rng.Int63n(int64(span))),
			file: fi,
			off:  rng.Int63n(size - n + 1),
			n:    n,
		}
	}
	return reqs
}

// runReadAt drives the scenario's requests through ReadAt on one process
// per request, or (callback) through ReadAtCall. Each request starts
// with one zero-delay event at its instant on both paths, as a spawned
// process does.
func runReadAt(t *testing.T, sc readAtScenario, seed int64, callback bool) (readAtRun, []readAtReq) {
	t.Helper()
	cfg := DefaultConfig()
	if sc.cfg != nil {
		sc.cfg(&cfg)
	}
	r, arrays := newRetryRig(t, 2, 3, cfg)
	files := sc.setup(t, r, arrays)
	reqs := seededReads(seed, files, 48, 60*sim.Millisecond)
	if sc.edit != nil {
		sc.edit(reqs, files)
	}
	tl := trace.NewLog(1 << 16)
	r.fsys.SetTrace(tl)
	run := readAtRun{outcomes: make([]readAtOutcome, len(reqs)), errs: make([]error, len(reqs))}
	sum := func() readAtCounters {
		var c readAtCounters
		for _, f := range files {
			c.readCalls += f.ReadCalls
			c.bytesRead += f.BytesRead
			c.ioBytes += f.IOBytes
			c.delivered += f.DeliveredBytes
			c.readTime = c.readTime*31 + f.ReadTime.Fingerprint()
		}
		return c
	}
	r.fsys.onEmit = func(e trace.Event) {
		if e.Kind == trace.ReadEnd {
			run.atEnd = append(run.atEnd, sum())
		}
	}
	record := func(i int, n int64, err error) {
		o := readAtOutcome{done: r.k.Now(), n: n}
		if err != nil {
			o.err = err.Error()
		}
		run.outcomes[i] = o
		run.errs[i] = err
	}
	for i, rq := range reqs {
		i, rq := i, rq
		f := files[rq.file]
		r.k.At(rq.at, func() {
			if !callback {
				r.k.Go("reader", func(p *sim.Proc) {
					n, err := f.ReadAt(p, rq.off, rq.n)
					record(i, n, err)
				})
				return
			}
			r.k.After(0, func() {
				f.ReadAtCall(rq.off, rq.n, func(a any, n int64, err error) {
					record(a.(int), n, err)
				}, i)
			})
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	r.k.Close()
	run.final = sum()
	for _, f := range files {
		run.digests = append(run.digests, f.DeliveryDigest())
	}
	run.trace = tl.Digest()
	run.executed = r.k.Executed()
	return run, reqs
}

// TestReadAtCallMatchesReadAt pins ReadAtCall to ReadAt event for event:
// the same seeded reads through both paths must return at the same
// instants with the same results, leave the same counters (also as seen
// at every read-end event), the same delivery and trace digests, and
// execute the same number of kernel events.
func TestReadAtCallMatchesReadAt(t *testing.T) {
	twoFiles := func(t *testing.T, r *rig) []*File {
		t.Helper()
		var files []*File
		for i, name := range []string{"a", "b"} {
			if err := r.fsys.Create(name, 512<<10); err != nil {
				t.Fatal(err)
			}
			f, err := r.fsys.Open(name, i, MAsync, nil)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}
	anyErr := func(target error) func(readAtRun, []readAtReq) error {
		return func(run readAtRun, _ []readAtReq) error {
			for _, err := range run.errs {
				if errors.Is(err, target) {
					return nil
				}
			}
			return fmt.Errorf("no read failed with %v", target)
		}
	}
	scenarios := []readAtScenario{
		{
			name:  "plain",
			setup: func(t *testing.T, r *rig, _ []*disk.Array) []*File { return twoFiles(t, r) },
			want: func(run readAtRun, reqs []readAtReq) error {
				if run.final.readCalls != int64(len(reqs)) {
					return fmt.Errorf("%d of %d reads succeeded", run.final.readCalls, len(reqs))
				}
				return nil
			},
		},
		{
			name: "closed",
			setup: func(t *testing.T, r *rig, _ []*disk.Array) []*File {
				files := twoFiles(t, r)
				if err := files[1].Close(); err != nil {
					t.Fatal(err)
				}
				return files
			},
			want: anyErr(ErrClosed),
		},
		{
			name:  "out-of-range",
			setup: func(t *testing.T, r *rig, _ []*disk.Array) []*File { return twoFiles(t, r) },
			edit: func(reqs []readAtReq, files []*File) {
				// Every fourth read falls partly or wholly outside its file.
				for i := range reqs {
					switch i % 12 {
					case 0:
						reqs[i].off = files[reqs[i].file].Size() - reqs[i].n/2
					case 4:
						reqs[i].off = -1
					case 8:
						reqs[i].n = 0
					}
				}
			},
			want: func(run readAtRun, reqs []readAtReq) error {
				bad := 0
				for i, rq := range reqs {
					if rq.off < 0 || rq.n <= 0 || rq.off+rq.n > 512<<10 {
						bad++
						if run.errs[i] == nil {
							return fmt.Errorf("read %d [%d,+%d) succeeded", i, rq.off, rq.n)
						}
					}
				}
				if bad == 0 {
					return errors.New("no read fell outside its file")
				}
				return nil
			},
		},
		{
			name: "throttled",
			setup: func(t *testing.T, r *rig, _ []*disk.Array) []*File {
				r.fsys.SetTenants(2)
				for _, s := range r.fsys.Servers() {
					s.SetFairPolicy(ionode.FairPolicy{Tenants: 2, Slots: 1,
						RatePerWeight: 64 << 10, BurstBytes: 32 << 10})
				}
				files := twoFiles(t, r)
				files[1].SetTenant(1)
				return files
			},
			want: anyErr(ionode.ErrThrottled),
		},
		{
			name: "overloaded",
			setup: func(t *testing.T, r *rig, arrays []*disk.Array) []*File {
				r.fsys.Servers()[0].SetShedPolicy(ionode.ShedPolicy{Threshold: 1, Cooldown: sim.Second})
				for j, d := range arrays[0].Members() {
					d.InjectFaultProfile(disk.FaultProfile{Rate: 1, Seed: int64(j + 1)})
				}
				return twoFiles(t, r)
			},
			want: anyErr(ionode.ErrOverloaded),
		},
		{
			// A file striped only on a node that is down past the read's
			// deadline fails inside stripeIOInto: its signal has fired
			// before the read would wait on it.
			name: "fires-synchronously",
			cfg: func(c *Config) {
				c.Retry = RetryPolicy{DownPoll: sim.Millisecond, DownDeadline: 5 * sim.Millisecond}
			},
			setup: func(t *testing.T, r *rig, _ []*disk.Array) []*File {
				r.fsys.Servers()[2].Crash(10 * sim.Second)
				files := twoFiles(t, r)
				if err := r.fsys.CreateStriped("down", 512<<10, 64<<10, []int{2}); err != nil {
					t.Fatal(err)
				}
				f, err := r.fsys.Open("down", 0, MAsync, nil)
				if err != nil {
					t.Fatal(err)
				}
				return append(files, f)
			},
			want: func(run readAtRun, reqs []readAtReq) error {
				for i, err := range run.errs {
					if errors.Is(err, ErrUnavailable) && run.outcomes[i].done == reqs[i].at+DefaultConfig().ClientCall {
						return nil
					}
				}
				return errors.New("no read failed at its issue instant")
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				procs, reqs := runReadAt(t, sc, seed, false)
				calls, _ := runReadAt(t, sc, seed, true)
				if err := sc.want(procs, reqs); err != nil {
					t.Fatalf("seed %d: the scenario missed its case: %v", seed, err)
				}
				for i := range procs.outcomes {
					if p, c := procs.outcomes[i], calls.outcomes[i]; p != c {
						t.Fatalf("seed %d read %d %+v: ReadAt returned %+v, ReadAtCall %+v", seed, i, reqs[i], p, c)
					}
				}
				if procs.final != calls.final {
					t.Fatalf("seed %d: counters %+v with ReadAt, %+v with ReadAtCall", seed, procs.final, calls.final)
				}
				if len(procs.atEnd) != len(calls.atEnd) {
					t.Fatalf("seed %d: %d read-end events with ReadAt, %d with ReadAtCall", seed, len(procs.atEnd), len(calls.atEnd))
				}
				for i := range procs.atEnd {
					if procs.atEnd[i] != calls.atEnd[i] {
						t.Fatalf("seed %d read-end %d: counters %+v with ReadAt, %+v with ReadAtCall", seed, i, procs.atEnd[i], calls.atEnd[i])
					}
				}
				for i := range procs.digests {
					if procs.digests[i] != calls.digests[i] {
						t.Fatalf("seed %d file %d: delivery digest %#x with ReadAt, %#x with ReadAtCall", seed, i, procs.digests[i], calls.digests[i])
					}
				}
				if procs.trace != calls.trace {
					t.Fatalf("seed %d: trace digest %#x with ReadAt, %#x with ReadAtCall", seed, procs.trace, calls.trace)
				}
				if procs.executed != calls.executed {
					t.Fatalf("seed %d: %d events with ReadAt, %d with ReadAtCall", seed, procs.executed, calls.executed)
				}
			}
		})
	}
}

// TestReadAtCallPanicsWithPrefetcher: the prefetcher's ServeRead blocks
// a process, so the callback form refuses a file that has one.
func TestReadAtCallPanicsWithPrefetcher(t *testing.T) {
	r := newRig(t, 1, 2)
	if err := r.fsys.Create("f", 256<<10); err != nil {
		t.Fatal(err)
	}
	f, err := r.fsys.Open("f", 0, MAsync, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.SetPrefetcher(nopPrefetch{})
	defer func() {
		if recover() == nil {
			t.Fatal("ReadAtCall on a file with a prefetcher did not panic")
		}
	}()
	f.ReadAtCall(0, 64<<10, func(any, int64, error) {}, nil)
}

type nopPrefetch struct{}

func (nopPrefetch) ServeRead(*sim.Proc, *File, int64, int64) error { return nil }
func (nopPrefetch) OnClose(*File)                                  {}
