package main

import (
	"fmt"
	"math"
	"syscall"
	"time"
	"unsafe"
)

// A shared host slows the simulator by a factor that drifts within
// seconds and over minutes as other tenants compete for the CPUs and
// caches under it: on a 2-CPU VM, a run's median repetition moved by up to
// 2x between runs minutes apart, so no statistic over the repetitions of
// one run can get away from the drift. A probe that feels the same drift
// can. The simulator spends most of its CPU handing control between
// goroutines, over a working set of procs, queues and buffers that the
// cache holds only in part, so the probe does both: round trips between
// two goroutines, and dependent loads through a table the size of the
// simulator's heap. In nine-minute traces of interleaved samples, the
// round trips alone tracked the 8+8 simulator but not the 1024+256 one,
// the loads alone the reverse, and their geometric mean tracked both;
// binary-search, heap, map, arithmetic and goroutine-ring loops tracked
// neither as well.
//
// Every timed repetition and set-up pass is bracketed by probe samples,
// and its host seconds are divided by the mean slowdown around it: the
// seconds it would have taken on the reference host. The probe is part of
// the benchmark, not of the program, so a change to the program cannot
// move it.

const (
	chaseBytes = 32 << 20  // the load table: 8 Mi uint32 slots
	chaseLoads = 512 << 10 // dependent loads per sample, about 70 ms
	pingTrips  = 128 << 10 // goroutine round trips per sample, about 50 ms

	// The reference host's latencies, about the typical ones on a 2-CPU
	// Xeon VM when its neighbours are quiet.
	refChaseNs = 140
	refPingNs  = 400
)

// hostProbe measures how much slower than the reference host this one
// runs now.
type hostProbe struct {
	mem  []byte   // the load table's mapping, outside the Go heap
	next []uint32 // mem as a single-cycle permutation of slot indexes
	at   uint32
}

// newHostProbe maps the load table and fills it with a random
// single-cycle permutation (Sattolo's algorithm), so that every load
// depends on the one before it and no prefetcher can guess the next
// address. The table lives outside the Go heap, so it neither moves the
// collector's pacing nor is scanned by it; its resident bytes are
// subtracted from the process's peak RSS.
func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, chaseBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("mapping the host probe's table: %w", err)
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), chaseBytes/4)
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(1)
	for i := len(next) - 1; i > 0; i-- {
		// splitmix64, reduced to [0, i) by a multiply-shift.
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		j := (z >> 32) * uint64(i) >> 32
		next[i], next[j] = next[j], next[i]
	}
	return &hostProbe{mem: mem, next: next}, nil
}

// close unmaps the load table.
func (p *hostProbe) close() { _ = syscall.Munmap(p.mem) }

// probeResidentMiB is the load table's share of the process's RSS.
const probeResidentMiB = chaseBytes >> 20

// sample returns the host's slowdown now: the geometric mean of the load
// and round-trip latencies over the reference host's, 1 on the reference
// host and 2 on one that takes twice as long.
func (p *hostProbe) sample() float64 {
	at := p.at
	start := time.Now()
	for k := 0; k < chaseLoads; k++ {
		at = p.next[at]
	}
	chase := float64(time.Since(start).Nanoseconds()) / chaseLoads
	p.at = at
	return math.Sqrt(chase / refChaseNs * pingNs() / refPingNs)
}

// pingNs returns the mean nanoseconds of one round trip between two
// goroutines over unbuffered channels.
func pingNs() float64 {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	start := time.Now()
	for i := 0; i < pingTrips; i++ {
		ping <- i
		<-pong
	}
	d := time.Since(start)
	close(ping)
	<-pong // the goroutine has ended
	return float64(d.Nanoseconds()) / pingTrips
}
