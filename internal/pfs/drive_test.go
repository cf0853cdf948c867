package pfs_test

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/scenarios"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// refRun is workload.Run as it was when every compute node ran as a
// process, kept as the reference for the callback driver: one process
// per node, the drive and driveAsync loops, and each read through
// pfs.RefRead, the process form of ReadCall. It accounts the fields
// Result.Fingerprint folds, and returns the machine for the engine
// counters.
func refRun(cfg machine.Config, spec workload.Spec) (*workload.Result, error) {
	if spec.Buffered {
		cfg.PFS.FastPath = false
	}
	m := machine.Build(cfg)
	defer m.Close()
	res := &workload.Result{Spec: spec, Machine: m, NodeTimes: make([]sim.Time, cfg.ComputeNodes)}
	group := make([]int, cfg.IONodes)
	for i := range group {
		group[i] = i
	}
	if spec.Trace != nil {
		m.SetTrace(spec.Trace)
		m.FS.SetTrace(spec.Trace)
	}
	var pf *prefetch.Prefetcher
	var ss *prefetch.ServerSide
	switch {
	case spec.Prefetch != nil:
		pcfg := *spec.Prefetch
		if spec.Trace != nil && pcfg.Trace == nil {
			pcfg.Trace = spec.Trace
		}
		pf = prefetch.New(m.K, pcfg)
		res.Prefetch = pf
	case spec.ServerSide != nil:
		ss = prefetch.NewServerSide(m.K, *spec.ServerSide)
		res.ServerSide = ss
	}

	nodes := cfg.ComputeNodes
	if spec.SeparateFiles {
		for i := 0; i < nodes; i++ {
			if err := m.FS.CreateStriped(fmt.Sprintf("%s.%d", spec.File, i), spec.FileSize/int64(nodes), cfg.PFS.StripeUnit, group); err != nil {
				return nil, err
			}
		}
	} else if err := m.FS.CreateStriped(spec.File, spec.FileSize, cfg.PFS.StripeUnit, group); err != nil {
		return nil, err
	}
	var og *pfs.OpenGroup
	if spec.Mode.Collective() && !spec.SeparateFiles {
		og = pfs.NewOpenGroup(m.K, nodes)
	}

	files := make([]*pfs.File, nodes)
	errs := make([]error, nodes)
	unav := make([]refTally, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		m.K.Go(fmt.Sprintf("app%d", i), func(p *sim.Proc) {
			name, mode := spec.File, spec.Mode
			if spec.SeparateFiles {
				name = fmt.Sprintf("%s.%d", spec.File, i)
				mode = pfs.MAsync
			}
			f, err := m.FS.Open(name, m.Compute[i], mode, og)
			if err != nil {
				errs[i] = err
				return
			}
			if pf != nil {
				pf.Attach(f)
			}
			if ss != nil {
				ss.Attach(f)
			}
			errs[i] = refDrive(p, f, spec, i, nodes, &unav[i])
			res.NodeTimes[i] = p.Now()
			files[i] = f
			if err := f.Close(); err != nil && errs[i] == nil {
				errs[i] = err
			}
		})
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	res.Engine = m.K.Stats()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("workload: node %d: %w", i, err)
		}
	}
	res.DeliveryDigests = make([]uint64, nodes)
	res.NodeUnavailableBytes = make([]int64, nodes)
	for i, u := range unav {
		res.UnavailableReads += u.reads
		res.UnavailableBytes += u.bytes
		res.NodeUnavailableBytes[i] = u.bytes
	}
	for i, f := range files {
		res.TotalBytes += f.BytesRead
		res.ReadCalls += f.ReadCalls
		res.IOBytes += f.IOBytes
		res.DeliveryDigests[i] = f.DeliveryDigest()
		f.ReadTime.Each(res.ReadTime.Observe)
	}
	for _, t := range res.NodeTimes {
		if t > res.Elapsed {
			res.Elapsed = t
		}
	}
	res.Bandwidth = stats.MBps(res.TotalBytes, res.Elapsed)
	res.TokenOps = m.FS.TokenOps
	res.TokenWaits = m.FS.TokenWaits
	res.TokenWaitTime = m.FS.TokenWaitTime
	return res, nil
}

// refTally counts one node's reads lost to dead I/O nodes.
type refTally struct{ reads, bytes int64 }

func refTolerate(spec workload.Spec, err error, u *refTally) bool {
	if !spec.ContinueOnUnavailable || !errors.Is(err, pfs.ErrUnavailable) {
		return false
	}
	u.reads++
	u.bytes += spec.RequestSize
	return true
}

// refDrive is the process read loop the callback driver replaced.
func refDrive(p *sim.Proc, f *pfs.File, spec workload.Spec, rank, parties int, u *refTally) error {
	if spec.Mode == pfs.MAsync && !spec.SeparateFiles {
		return refDriveAsync(p, f, spec, rank, parties, u)
	}
	for first := true; ; first = false {
		if !first && spec.ComputeDelay > 0 {
			p.Sleep(spec.ComputeDelay)
		}
		if _, err := pfs.RefRead(p, f, spec.RequestSize); err == io.EOF {
			return nil
		} else if err != nil && !refTolerate(spec, err, u) {
			return err
		}
	}
}

// refDriveAsync is the process form of the M_ASYNC pattern loops.
func refDriveAsync(p *sim.Proc, f *pfs.File, spec workload.Spec, rank, parties int, u *refTally) error {
	req := spec.RequestSize
	size := f.Size()
	first := true
	readAt := func(off int64) error {
		if !first && spec.ComputeDelay > 0 {
			p.Sleep(spec.ComputeDelay)
		}
		first = false
		if err := f.SeekTo(off); err != nil {
			return err
		}
		_, err := pfs.RefRead(p, f, req)
		if err == io.EOF || (err != nil && refTolerate(spec, err, u)) {
			return nil
		}
		return err
	}
	switch spec.Pattern {
	case workload.Interleaved:
		for r := int64(0); ; r++ {
			off := (r*int64(parties) + int64(rank)) * req
			if off >= size {
				return nil
			}
			if err := readAt(off); err != nil {
				return err
			}
		}
	case workload.Partitioned:
		share := size / int64(parties)
		start := int64(rank) * share
		for off := start; off < start+share; off += req {
			if err := readAt(off); err != nil {
				return err
			}
		}
		return nil
	case workload.Random:
		rng := workload.PatternRNG(spec, rank)
		records := size / req / int64(parties)
		maxRec := size / req
		for i := int64(0); i < records; i++ {
			off := rng.Int63n(maxRec) * req
			if off+req > size {
				off = size - req
			}
			if err := readAt(off); err != nil {
				return err
			}
		}
		return nil
	default: // Strided
		stride := int64(spec.Stride)
		if stride < 1 {
			stride = 1
		}
		for r := int64(0); ; r++ {
			off := (r*int64(parties)*stride + int64(rank)*stride) * req
			if off >= size {
				return nil
			}
			if err := readAt(off); err != nil {
				return err
			}
		}
	}
}

// driveOutcome is what TestDriverMatchesProcessDriver compares between
// the two drivers.
type driveOutcome struct {
	fingerprint, trace uint64
	executed           uint64
	end                sim.Time
	tokenOps           int64
	tokenWaits         int64
	tokenWaitTime      sim.Time
}

func outcomeOf(res *workload.Result, tl *trace.Log) driveOutcome {
	return driveOutcome{
		fingerprint:   res.Fingerprint(),
		trace:         tl.Digest(),
		executed:      res.Machine.K.Executed(),
		end:           res.Machine.K.Now(),
		tokenOps:      res.TokenOps,
		tokenWaits:    res.TokenWaits,
		tokenWaitTime: res.TokenWaitTime,
	}
}

// TestDriverMatchesProcessDriver runs workload.Run and refRun over every
// I/O mode, M_ASYNC's four patterns, separate files, the client and
// server-side prefetch placements, transient faults and a crash plan,
// and requires the same result fingerprint, trace digest, event count,
// end time and token contention. The shared file is not a whole number
// of records, so the last read of each pointer mode is clamped.
func TestDriverMatchesProcessDriver(t *testing.T) {
	const req = 64 << 10
	small := func() machine.Config {
		cfg := scenarios.QuickstartMachine()
		cfg.PFS.SyncStagger = 300 * sim.Microsecond
		return cfg
	}
	// Outages outlast the failover deadline, so reads fail unavailable.
	crash := func() machine.Config {
		cfg := scenarios.CrashMachine()
		cfg.Crash.Downtime = 3 * sim.Second
		return cfg
	}
	pcfg := prefetch.DefaultConfig()
	scfg := prefetch.DefaultServerSideConfig()
	type driveCase struct {
		name string
		cfg  func() machine.Config
		spec workload.Spec
	}
	var cases []driveCase
	for _, mode := range []pfs.Mode{pfs.MUnix, pfs.MLog, pfs.MSync, pfs.MRecord, pfs.MGlobal, pfs.MAsync} {
		for _, delay := range []sim.Time{0, 10 * sim.Millisecond} {
			for _, pf := range []*prefetch.Config{nil, &pcfg} {
				cases = append(cases, driveCase{
					name: fmt.Sprintf("%v/delay=%v/prefetch=%t", mode, delay, pf != nil),
					cfg:  small,
					spec: workload.Spec{FileSize: 1<<20 + 40<<10, Mode: mode, ComputeDelay: delay, Prefetch: pf},
				})
			}
		}
	}
	for _, pat := range []workload.Pattern{workload.Partitioned, workload.Random, workload.Strided} {
		for _, pf := range []*prefetch.Config{nil, &pcfg} {
			cases = append(cases, driveCase{
				name: fmt.Sprintf("M_ASYNC/%v/prefetch=%t", pat, pf != nil),
				cfg:  small,
				spec: workload.Spec{FileSize: 1 << 20, Mode: pfs.MAsync, Pattern: pat, Stride: 2, Seed: 3,
					ComputeDelay: 5 * sim.Millisecond, Prefetch: pf},
			})
		}
	}
	cases = append(cases,
		driveCase{name: "separate-files", cfg: small,
			spec: workload.Spec{FileSize: 1 << 20, Mode: pfs.MRecord, SeparateFiles: true, ComputeDelay: 5 * sim.Millisecond, Prefetch: &pcfg}},
		driveCase{name: "server-side", cfg: small,
			spec: workload.Spec{FileSize: 2 << 20, Mode: pfs.MRecord, Buffered: true, ServerSide: &scfg, ComputeDelay: 20 * sim.Millisecond}},
		driveCase{name: "transient-faults/M_RECORD", cfg: scenarios.ChaosMachine,
			spec: workload.Spec{FileSize: 1 << 20, Mode: pfs.MRecord, ComputeDelay: 5 * sim.Millisecond, Prefetch: &pcfg}},
		driveCase{name: "transient-faults/M_UNIX", cfg: scenarios.ChaosMachine,
			spec: workload.Spec{FileSize: 1 << 20, Mode: pfs.MUnix}},
		driveCase{name: "crash/M_RECORD", cfg: crash,
			spec: workload.Spec{FileSize: 2 << 20, Mode: pfs.MRecord, ComputeDelay: 20 * sim.Millisecond,
				Prefetch: &pcfg, ContinueOnUnavailable: true}},
		driveCase{name: "crash/M_ASYNC", cfg: crash,
			spec: workload.Spec{FileSize: 2 << 20, Mode: pfs.MAsync, ComputeDelay: 20 * sim.Millisecond,
				ContinueOnUnavailable: true}},
	)
	var unavailable, retries int64
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			outcome := func(run func(machine.Config, workload.Spec) (*workload.Result, error)) driveOutcome {
				t.Helper()
				spec := c.spec
				spec.File, spec.RequestSize = "data", req
				spec.Trace = trace.NewLog(1 << 16)
				res, err := run(c.cfg(), spec)
				if err != nil {
					t.Fatal(err)
				}
				if res.ReadCalls == 0 {
					t.Fatal("the run made no read")
				}
				unavailable += res.UnavailableReads
				retries += res.Machine.FS.Retries
				return outcomeOf(res, spec.Trace)
			}
			ref, got := outcome(refRun), outcome(workload.Run)
			if got != ref {
				t.Fatalf("callback driver %+v\nprocess driver  %+v", got, ref)
			}
		})
	}
	if unavailable == 0 || retries == 0 {
		t.Fatalf("the fault cases made %d unavailable reads and %d retries; want both", unavailable, retries)
	}
}
