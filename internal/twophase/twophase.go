// Package twophase implements the two-phase collective read strategy of
// del Rosario, Bordawekar and Choudhary (reference [1] of the paper):
// decouple the storage distribution from the computation's data
// distribution. Phase one reads the file in large, stripe-conforming
// contiguous chunks — each node takes the 1/P slice of the file it is
// "closest" to; phase two redistributes the records over the mesh to
// whoever actually owns them.
//
// When the target distribution would otherwise generate many small
// strided requests (small interleaved records), two-phase trades those
// for big sequential I/O plus an all-to-all message exchange — usually a
// large win, which is the comparison ExtTwoPhase quantifies against both
// the direct read and the paper's prefetching.
package twophase

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// Config tunes the strategy.
type Config struct {
	// ChunkSize is the phase-one I/O request size (large, stripe
	// aligned). Default 1 MB.
	ChunkSize int64
	// MemBandwidth prices the local copy of records already in place,
	// and the reassembly of received records. Default 45 MB/s.
	MemBandwidth float64
}

// DefaultConfig returns the usual parameters.
func DefaultConfig() Config {
	return Config{ChunkSize: 1 << 20, MemBandwidth: 45e6}
}

// Result reports a collective two-phase read.
type Result struct {
	Elapsed    sim.Time // completion of the slowest node
	Phase1     sim.Time // when the last node finished its contiguous read
	TotalBytes int64
}

// Read performs a collective two-phase read of the whole PFS file by
// parties compute nodes, targeting an interleaved distribution of
// recordSize records (record j belongs to node j mod parties). It builds
// the node processes itself and runs the machine's kernel until the
// exchange completes. The caller owns m and closes it (Machine.Close)
// when done with it.
func Read(m *machine.Machine, file string, recordSize int64, parties int, cfg Config) (*Result, error) {
	size, err := m.FS.Size(file)
	if err != nil {
		return nil, err
	}
	if parties <= 0 || parties > len(m.Compute) {
		return nil, fmt.Errorf("twophase: %d parties on a %d-node machine", parties, len(m.Compute))
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 1 << 20
	}
	if cfg.MemBandwidth <= 0 {
		cfg.MemBandwidth = 45e6
	}
	share := size / int64(parties)
	if share*int64(parties) != size || share%recordSize != 0 {
		return nil, fmt.Errorf("twophase: size %d not divisible into %d record-aligned shares", size, parties)
	}

	res := &Result{TotalBytes: size}
	k := m.K
	barrier := sim.NewBarrier(k, parties)
	// Per-node byte credits for the receive side of the exchange.
	recv := make([]*sim.Semaphore, parties)
	for i := range recv {
		recv[i] = sim.NewSemaphore(k, 0)
	}
	errs := make([]error, parties)
	var phase1End, end sim.Time

	for rank := 0; rank < parties; rank++ {
		rank := rank
		k.Go(fmt.Sprintf("twophase%d", rank), func(p *sim.Proc) {
			errs[rank] = func() error {
				f, err := m.FS.Open(file, m.Compute[rank], pfs.MAsync, nil)
				if err != nil {
					return err
				}
				defer f.Close()

				// Phase 1: large contiguous reads of this node's slice.
				start := int64(rank) * share
				for off := start; off < start+share; off += cfg.ChunkSize {
					n := cfg.ChunkSize
					if off+n > start+share {
						n = start + share - off
					}
					f.StripeReadCall(off, n, sim.Resume, p)
					if err := p.Park(); err != nil {
						return err
					}
				}
				if p.Now() > phase1End {
					phase1End = p.Now()
				}
				barrier.Wait(p)

				// Phase 2: all-to-all. Of my share, records belonging to
				// target t amount to share/parties bytes (uniform
				// interleaving); my own records just pay a local copy.
				per := share / int64(parties)
				for t := 0; t < parties; t++ {
					if t == rank {
						p.Sleep(sim.Time(float64(per) / cfg.MemBandwidth * float64(sim.Second)))
						continue
					}
					dst := recv[t]
					m.Mesh.Send(m.Compute[rank], m.Compute[t], per, func() {
						dst.Release(per)
					})
				}
				// Wait for everyone else's records for me, then pay the
				// reassembly copy.
				recv[rank].Acquire(p, per*int64(parties-1))
				p.Sleep(sim.Time(float64(per*int64(parties-1)) / cfg.MemBandwidth * float64(sim.Second)))
				if p.Now() > end {
					end = p.Now()
				}
				return nil
			}()
		})
	}
	if err := k.Run(); err != nil {
		return nil, err
	}
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("twophase: node %d: %w", rank, err)
		}
	}
	res.Phase1 = phase1End
	res.Elapsed = end
	return res, nil
}
