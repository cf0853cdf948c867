// Package ufs models the OSF/1 Unix File Systems that each Paragon I/O
// node layered over its RAID array. A PFS file is striped across many of
// these; each I/O node sees only its own stripe units, stored as a regular
// file here.
//
// The pieces that matter to the paper are modeled faithfully:
//
//   - a block map with a fragmentation knob: files are allocated in mostly
//     contiguous extents, and contiguity is what block coalescing exploits;
//   - a buffer cache (LRU over file-system blocks) used on the buffered
//     path, charged a memory-copy cost per block;
//   - Fast Path I/O: cache and copy are bypassed and data moves "directly"
//     between disk and the requester's buffer;
//   - block coalescing: a multi-block request whose blocks are contiguous
//     on disk becomes one array request;
//   - partial-block penalty: requests not aligned to file-system blocks
//     stage through temporary buffers, costing extra CPU per partial block
//     (why the paper's request sizes are block multiples).
package ufs

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/disk"
	"repro/internal/sim"
)

// ErrCrashed is the error in-flight cache fills fail with when the I/O
// node goes down mid-read.
var ErrCrashed = errors.New("ufs: I/O node crashed during fill")

// Config describes one I/O node's file system.
type Config struct {
	BlockSize     int64    // file system block size in bytes (Paragon default 64 KB)
	CacheBlocks   int      // buffer cache capacity in blocks (0 disables)
	Fragmentation float64  // probability an allocation run breaks contiguity
	Seed          int64    // allocator randomness
	MemBandwidth  float64  // I/O-node memory copy bandwidth, bytes/sec
	PartialStage  sim.Time // extra CPU per partial (unaligned) block staged
}

// DefaultConfig returns Paragon-flavored parameters: 64 KB blocks, a 2 MB
// buffer cache, light fragmentation, and i860-era copy bandwidth.
func DefaultConfig() Config {
	return Config{
		BlockSize:     64 << 10,
		CacheBlocks:   32,
		Fragmentation: 0.05,
		Seed:          1,
		MemBandwidth:  45e6,
		PartialStage:  200 * sim.Microsecond,
	}
}

// vnode is one file's metadata: the disk block address backing each file
// block.
type vnode struct {
	name   string
	size   int64
	blocks []int64 // disk block number per file block
}

// Handle is a resolved reference to a file: the name lookup done once, at
// open time, so the per-read path touches no map. A handle stays valid
// until the file is removed; using one after Remove reads stale metadata,
// exactly like holding a vnode reference across an unlink.
type Handle struct {
	v *vnode
}

// Valid reports whether the handle references a file.
func (h Handle) Valid() bool { return h.v != nil }

// Size reports the referenced file's length.
func (h Handle) Size() int64 {
	if h.v == nil {
		return 0
	}
	return h.v.size
}

// FS is one I/O node's file system instance.
type FS struct {
	k     *sim.Kernel
	array *disk.Array
	cfg   Config
	rng   *rand.Rand // lazily seeded: fragmentation-free volumes never draw

	files    map[string]*vnode
	nextBlk  int64   // allocation cursor, in disk blocks
	totalBlk int64   // capacity in blocks
	freeBlks []int64 // blocks returned by Remove, reused first
	cache    *lru
	fills    map[blockKey]*sim.Signal // cache blocks with a disk fill in flight
	cpuFree  sim.Time                 // I/O-node CPU clock for copy/staging costs
	opFree   []*readOp                // readOp free list

	// Measurements.
	Reads       int64
	BytesRead   int64
	CacheHits   int64
	CacheMisses int64
	FillWaits   int64 // reads that waited on an in-flight cache fill
	DiskOps     int64 // array requests issued (after coalescing)
}

// New builds a file system over array. It panics on a non-positive block
// size or memory bandwidth.
func New(k *sim.Kernel, array *disk.Array, cfg Config) *FS {
	if cfg.BlockSize <= 0 {
		panic("ufs: block size must be positive")
	}
	if cfg.MemBandwidth <= 0 {
		panic("ufs: memory bandwidth must be positive")
	}
	fs := &FS{
		k:        k,
		array:    array,
		cfg:      cfg,
		files:    make(map[string]*vnode),
		fills:    make(map[blockKey]*sim.Signal),
		totalBlk: array.Capacity() / cfg.BlockSize,
	}
	if cfg.CacheBlocks > 0 {
		fs.cache = newLRU(cfg.CacheBlocks)
	}
	return fs
}

// BlockSize reports the file system block size.
func (fs *FS) BlockSize() int64 { return fs.cfg.BlockSize }

// Array exposes the disk array beneath the file system (for stats
// reporting and fault injection in tests).
func (fs *FS) Array() *disk.Array { return fs.array }

// rand returns the allocator RNG, seeding it on first use. Deferring the
// seeding keeps FS construction cheap for the common Fragmentation == 0
// configuration, which never draws.
func (fs *FS) rand() *rand.Rand {
	if fs.rng == nil {
		fs.rng = rand.New(rand.NewSource(fs.cfg.Seed))
	}
	return fs.rng
}

// Create allocates a file of size bytes. Allocation walks a cursor across
// the volume, breaking contiguity with probability Fragmentation per
// block, which reproduces the aging of a real UFS. Creating over an
// existing name or beyond the volume is an error.
func (fs *FS) Create(name string, size int64) error {
	if _, ok := fs.files[name]; ok {
		return fmt.Errorf("ufs: %s exists", name)
	}
	if size < 0 {
		return fmt.Errorf("ufs: negative size %d", size)
	}
	nblocks := (size + fs.cfg.BlockSize - 1) / fs.cfg.BlockSize
	if fs.nextBlk+nblocks-int64(len(fs.freeBlks))+64 > fs.totalBlk {
		return fmt.Errorf("ufs: volume full allocating %s (%d blocks)", name, nblocks)
	}
	v := &vnode{name: name, size: size, blocks: make([]int64, nblocks)}
	for i := int64(0); i < nblocks; i++ {
		// Freed blocks are reused first, like a real allocator — which is
		// exactly how volumes fragment as they age.
		if len(fs.freeBlks) > 0 {
			v.blocks[i] = fs.freeBlks[len(fs.freeBlks)-1]
			fs.freeBlks = fs.freeBlks[:len(fs.freeBlks)-1]
			continue
		}
		if i > 0 && fs.cfg.Fragmentation > 0 && fs.rand().Float64() < fs.cfg.Fragmentation {
			// Skip ahead a few blocks: a hole left by another file.
			fs.nextBlk += 1 + int64(fs.rand().Intn(8))
		}
		v.blocks[i] = fs.nextBlk
		fs.nextBlk++
	}
	fs.files[name] = v
	return nil
}

// Lookup resolves name to a Handle, the once-per-open half of the read
// path. The handle is valid until the file is removed.
func (fs *FS) Lookup(name string) (Handle, error) {
	v, ok := fs.files[name]
	if !ok {
		return Handle{}, fmt.Errorf("ufs: %s does not exist", name)
	}
	return Handle{v: v}, nil
}

// Remove deletes a file, returning its blocks to the allocator and
// evicting any cached copies.
func (fs *FS) Remove(name string) error {
	v, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("ufs: %s does not exist", name)
	}
	for b := range v.blocks {
		key := blockKey{name, int64(b)}
		if fs.cache != nil {
			fs.cache.remove(key)
		}
		if fill, ok := fs.fills[key]; ok {
			// Readers waiting on an in-flight fill must not hang; they
			// get the unlink as an error.
			delete(fs.fills, key)
			fill.Fire(fmt.Errorf("ufs: %s removed during read", name))
		}
	}
	fs.freeBlks = append(fs.freeBlks, v.blocks...)
	delete(fs.files, name)
	return nil
}

// CrashReset models the node's operating system going down: the buffer
// cache vanishes and every read waiting on an in-flight cache fill fails
// with ErrCrashed. Disk contents survive — only volatile state is lost;
// the file table and allocator are on-disk metadata and persist. Fills
// are failed in sorted key order so the crash is deterministic; the sort
// is over the formatted "name#block" strings, which keeps the firing
// order identical to what the pre-blockKey implementation produced.
func (fs *FS) CrashReset() {
	if fs.cache != nil {
		fs.cache = newLRU(fs.cfg.CacheBlocks)
	}
	type sortedFill struct {
		s   string
		key blockKey
	}
	keys := make([]sortedFill, 0, len(fs.fills))
	for key := range fs.fills {
		keys = append(keys, sortedFill{fmt.Sprintf("%s#%d", key.name, key.block), key})
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].s < keys[j].s })
	for _, sf := range keys {
		fill := fs.fills[sf.key]
		delete(fs.fills, sf.key)
		fill.Fire(ErrCrashed)
	}
	fs.cpuFree = fs.k.Now()
}

// Size reports a file's length, or an error if it does not exist.
func (fs *FS) Size(name string) (int64, error) {
	v, ok := fs.files[name]
	if !ok {
		return 0, fmt.Errorf("ufs: %s does not exist", name)
	}
	return v.size, nil
}

// ReadOptions selects the I/O path.
type ReadOptions struct {
	// FastPath bypasses the buffer cache: data moves from the array to
	// the requester without a staging copy. This is the PFS
	// buffering-disabled mode the prefetching paper runs under.
	FastPath bool
}

// readOp is the pooled bookkeeping of one read: the staging cost, copy
// bytes, and the countdown over disk runs and pending fills live here
// instead of in closures, so the read path schedules only pooled-args
// events. Completion schedules fn(arg, err) as its own event at the
// delivery instant. A write borrows an op for its countdown over runs.
type readOp struct {
	fs        *FS
	v         *vnode
	staging   sim.Time
	copyBytes int64
	remaining int
	firstErr  error

	fn  func(any, error) // scheduled at delivery
	arg any

	// Scratch storage reused across ops.
	missBlocks []int64       // disk block numbers to fetch
	missFiles  []int64       // the file blocks those correspond to
	missSigs   []*sim.Signal // fill signals created for each, identity-checked at completion
	pending    []*sim.Signal // fills in flight we must wait for
	runs       []run
	runStates  []runState
}

// runState ties one coalesced disk run back to its readOp and the slice
// of missFiles/missSigs the run covers. The states live in the op's
// runStates array, which is sized before any request is issued so the
// structs never move while a request holds a pointer to one.
type runState struct {
	op        *readOp
	fileStart int
	fileCount int
}

func (fs *FS) getReadOp() *readOp {
	if n := len(fs.opFree); n > 0 {
		op := fs.opFree[n-1]
		fs.opFree[n-1] = nil
		fs.opFree = fs.opFree[:n-1]
		return op
	}
	return &readOp{fs: fs}
}

func (fs *FS) putReadOp(op *readOp) {
	op.v = nil
	op.staging = 0
	op.copyBytes = 0
	op.remaining = 0
	op.firstErr = nil
	op.fn = nil
	op.arg = nil
	op.missBlocks = op.missBlocks[:0]
	op.missFiles = op.missFiles[:0]
	for i := range op.missSigs {
		op.missSigs[i] = nil
	}
	op.missSigs = op.missSigs[:0]
	for i := range op.pending {
		op.pending[i] = nil
	}
	op.pending = op.pending[:0]
	op.runs = op.runs[:0]
	op.runStates = op.runStates[:0]
	fs.opFree = append(fs.opFree, op)
}

// ReadCall starts a read of n bytes at offset off of the file h refers
// to: fn(arg, err) runs (as its own event, at the delivery instant) when
// the data is available at the I/O node — transfer to the requesting
// compute node is the caller's business. No signal, closure, or name
// lookup is constructed on the path. Reads past EOF are an error, as in
// the real PFS where file sizes were established at write time. A
// non-nil return reports a synchronous validation failure; fn does not
// run.
func (fs *FS) ReadCall(h Handle, off, n int64, opt ReadOptions, fn func(any, error), arg any) error {
	if h.v == nil {
		return errors.New("ufs: read through invalid handle")
	}
	op := fs.getReadOp()
	op.v = h.v
	op.fn = fn
	op.arg = arg
	if err := fs.read(op, off, n, opt); err != nil {
		fs.putReadOp(op)
		return err
	}
	return nil
}

// read is the body of ReadCall: validate, charge staging, classify
// blocks against the cache, and issue the coalesced disk runs.
// On error the caller recycles op; otherwise the op is consumed by its
// completion events.
func (fs *FS) read(op *readOp, off, n int64, opt ReadOptions) error {
	v := op.v
	if off < 0 || n <= 0 || off+n > v.size {
		return fmt.Errorf("ufs: read [%d,+%d) outside %s (%d bytes)", off, n, v.name, v.size)
	}
	fs.Reads++
	fs.BytesRead += n

	bs := fs.cfg.BlockSize
	first := off / bs
	last := (off + n - 1) / bs

	// Partial-block staging cost: head and tail blocks that are not fully
	// covered pay PartialStage CPU each.
	var staging sim.Time
	if off%bs != 0 {
		staging += fs.cfg.PartialStage
	}
	if (off+n)%bs != 0 && last != first || (off+n)%bs != 0 && off%bs == 0 {
		staging += fs.cfg.PartialStage
	}
	op.staging = staging

	// Classify blocks. A cached block needs no disk I/O; a block whose
	// fill is already in flight (another reader, or a prefetch hint) is
	// waited on rather than read twice; the rest miss and are read from
	// the array, coalesced into contiguous runs. Blocks become resident
	// only when their fill completes — never at issue time.
	copyBytes := int64(0) // bytes staged through the cache
	for b := first; b <= last; b++ {
		dblk := v.blocks[b]
		if !opt.FastPath && fs.cache != nil {
			key := blockKey{v.name, b}
			if fs.cache.get(key) {
				fs.CacheHits++
				copyBytes += bs
				continue
			}
			if sig, ok := fs.fills[key]; ok {
				fs.FillWaits++
				copyBytes += bs
				op.pending = append(op.pending, sig)
				continue
			}
			fs.CacheMisses++
			sig := sim.NewSignal(fs.k)
			fs.fills[key] = sig
			copyBytes += bs
			op.missFiles = append(op.missFiles, b)
			op.missSigs = append(op.missSigs, sig)
		}
		op.missBlocks = append(op.missBlocks, dblk)
	}
	op.copyBytes = copyBytes

	if len(op.missBlocks) == 0 && len(op.pending) == 0 {
		// Fully cached.
		fs.k.AfterCallErr(0, readOpFinish, op, nil)
		return nil
	}

	op.runs = coalesceInto(op.runs[:0], op.missBlocks)
	fs.DiskOps += int64(len(op.runs))
	op.remaining = len(op.runs) + len(op.pending)
	for _, sig := range op.pending {
		sig.OnFireCall(readOpOneDone, op)
	}
	// missFiles parallels missBlocks, and coalesce preserves order, so
	// each run covers the next run.count entries of missFiles. Size the
	// runState array up front: append growth after the first request is
	// issued would move states out from under the request's pointer.
	if cap(op.runStates) < len(op.runs) {
		op.runStates = make([]runState, len(op.runs))
	}
	op.runStates = op.runStates[:len(op.runs)]
	fileIdx := 0
	for i, r := range op.runs {
		rs := &op.runStates[i]
		rs.op = op
		rs.fileStart, rs.fileCount = fileIdx, 0
		if len(op.missFiles) > 0 {
			rs.fileCount = int(r.count)
			fileIdx += int(r.count)
		}
		fs.array.ReadCall(r.start*bs, r.count*bs, readOpRunDone, rs)
	}
	return nil
}

// readOpRunDone completes one coalesced disk run: the blocks it covered
// become resident (or their fills abandoned, on error) only now.
func readOpRunDone(v any, err error) {
	rs := v.(*runState)
	op := rs.op
	fs := op.fs
	for i := 0; i < rs.fileCount; i++ {
		b := op.missFiles[rs.fileStart+i]
		key := blockKey{op.v.name, b}
		// The fill must still be the one this read created: a crash
		// (CrashReset) fails and removes fills, and a read issued after
		// the restart may have registered a fresh fill under the same
		// key — a stale disk completion must not touch it.
		if fill, ok := fs.fills[key]; ok && fill == op.missSigs[rs.fileStart+i] {
			if err == nil {
				fs.cache.put(key)
			}
			delete(fs.fills, key)
			fill.Fire(err)
		}
	}
	op.oneDone(err)
}

// readOpOneDone is the OnFireCall form of oneDone, for pending fills.
func readOpOneDone(v any, err error) { v.(*readOp).oneDone(err) }

func (op *readOp) oneDone(err error) {
	if err != nil && op.firstErr == nil {
		op.firstErr = err
	}
	op.remaining--
	if op.remaining == 0 {
		op.finish(op.firstErr)
	}
}

// readOpFinish is the event form of finish, for the fully-cached path.
func readOpFinish(v any, err error) { v.(*readOp).finish(err) }

// finish charges the staging/copy CPU, which serializes on the I/O node
// CPU clock, and schedules the delivery at the instant the CPU is done.
func (op *readOp) finish(err error) {
	fs := op.fs
	cpu := op.staging
	if op.copyBytes > 0 {
		cpu += sim.Time(float64(op.copyBytes) / fs.cfg.MemBandwidth * float64(sim.Second))
	}
	start := fs.k.Now()
	if fs.cpuFree > start {
		start = fs.cpuFree
	}
	fs.cpuFree = start + cpu
	fs.k.AfterCallErr(fs.cpuFree-fs.k.Now(), readOpDeliver, op, err)
}

// readOpDeliver runs at the delivery instant and schedules the
// ReadCall callback as its own event.
func readOpDeliver(v any, err error) {
	op := v.(*readOp)
	fs := op.fs
	fn, arg := op.fn, op.arg
	fs.putReadOp(op)
	fs.k.AfterCallErr(0, fn, arg, err)
}

// WriteCall starts a write of n bytes at offset off of the file h refers
// to; fn(arg, err) runs as its own event when the last coalesced run is
// on disk. The model is write-through (the paper evaluates reads only;
// writes exist so that workloads can build their input files in
// simulated time when desired). A non-nil return reports a synchronous
// validation failure; fn does not run.
func (fs *FS) WriteCall(h Handle, off, n int64, fn func(any, error), arg any) error {
	v := h.v
	if v == nil {
		return errors.New("ufs: write through invalid handle")
	}
	if off < 0 || n <= 0 || off+n > v.size {
		return fmt.Errorf("ufs: write [%d,+%d) outside %s (%d bytes)", off, n, v.name, v.size)
	}
	op := fs.getReadOp()
	op.fn, op.arg = fn, arg
	bs := fs.cfg.BlockSize
	for b := off / bs; b <= (off+n-1)/bs; b++ {
		op.missBlocks = append(op.missBlocks, v.blocks[b])
		// Write-through invalidation: a stale cached copy must not serve
		// later reads.
		if fs.cache != nil {
			fs.cache.remove(blockKey{v.name, b})
		}
	}
	op.runs = coalesceInto(op.runs[:0], op.missBlocks)
	fs.DiskOps += int64(len(op.runs))
	op.remaining = len(op.runs)
	for _, r := range op.runs {
		fs.array.WriteCall(r.start*bs, r.count*bs, writeOpRunDone, op)
	}
	return nil
}

// writeOpRunDone counts down one written run; the last books the
// WriteCall callback as one zero-delay event.
func writeOpRunDone(v any, err error) {
	op := v.(*readOp)
	if err != nil && op.firstErr == nil {
		op.firstErr = err
	}
	op.remaining--
	if op.remaining > 0 {
		return
	}
	fs := op.fs
	fn, arg, err := op.fn, op.arg, op.firstErr
	fs.putReadOp(op)
	fs.k.AfterCallErr(0, fn, arg, err)
}

// run is a contiguous extent of disk blocks.
type run struct {
	start int64 // first disk block
	count int64
}

// coalesceInto merges an ordered list of disk block numbers into
// contiguous runs, appended to runs so an operation reuses its storage.
// Input order is preserved (file order), so only adjacent contiguity
// merges — matching what a real block-coalescing read path can do while
// streaming.
func coalesceInto(runs []run, blocks []int64) []run {
	for _, b := range blocks {
		if len(runs) > 0 && runs[len(runs)-1].start+runs[len(runs)-1].count == b {
			runs[len(runs)-1].count++
			continue
		}
		runs = append(runs, run{start: b, count: 1})
	}
	return runs
}

// blockKey identifies one file-system block for the cache and fill maps.
// A comparable struct instead of a formatted string: the buffered path
// used to pay a fmt.Sprintf per block per read.
type blockKey struct {
	name  string
	block int64
}
