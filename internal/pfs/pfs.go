// Package pfs implements the Paragon Parallel File System model: files
// striped in fixed-size stripe units across a group of I/O nodes, the six
// nx I/O sharing modes, Fast Path I/O, and the asynchronous request
// machinery (ART) that the prefetching prototype builds on.
//
// The package is the client half of the file system — the code that ran
// on compute nodes inside the Paragon OS server. The server half is
// package ionode; package prefetch plugs in through the PrefetchService
// hook exactly where the paper modified the PFS client.
package pfs

import (
	"errors"
	"fmt"
	"path"

	"repro/internal/ionode"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/ufs"
)

// Config holds the software costs and striping defaults of a PFS mount.
type Config struct {
	StripeUnit   int64    // default stripe unit size in bytes
	ClientCall   sim.Time // compute-node CPU per read/write system call
	TokenClaim   sim.Time // shared-pointer token round-trip (M_UNIX, M_LOG)
	SyncStagger  sim.Time // per-rank claim stagger in M_SYNC
	CollectSync  sim.Time // collective coordination cost per M_RECORD/M_GLOBAL op
	RequestBytes int64    // control message size on the mesh
	ARTSetup     sim.Time // async request setup + posting cost in the ART
	FastPath     bool     // bypass I/O-node buffer caches (PFS "buffering off")

	// GroupWidth bounds the stripe group of files created with default
	// attributes (Create): instead of striping over the whole I/O
	// partition, each file stripes over a tile of GroupWidth consecutive
	// I/O nodes, and successive files take successive tiles (wrapping
	// around the partition), so declustering and per-file metadata stay
	// O(GroupWidth) no matter how many I/O nodes the machine has. 0 (or
	// a width covering the partition) keeps the legacy whole-partition
	// stripe. CreateStriped callers pass explicit groups either way.
	GroupWidth int

	// Retry is the fault-tolerant I/O path: per-stripe-request timeouts
	// and bounded, deterministically backed-off re-issues. The zero
	// value disables it (the paper's client: any stripe failure surfaces
	// directly).
	Retry RetryPolicy
}

// DefaultConfig returns the mount parameters used throughout the paper's
// evaluation: 64 KB stripe units and Fast Path enabled.
func DefaultConfig() Config {
	return Config{
		StripeUnit:   64 << 10,
		ClientCall:   1000 * sim.Microsecond,
		TokenClaim:   5 * sim.Millisecond,
		SyncStagger:  400 * sim.Microsecond,
		CollectSync:  250 * sim.Microsecond,
		RequestBytes: 128,
		ARTSetup:     300 * sim.Microsecond,
		FastPath:     true,
	}
}

// Errors returned by file operations.
var (
	ErrClosed    = errors.New("pfs: file is closed")
	ErrExists    = errors.New("pfs: file exists")
	ErrNotExist  = errors.New("pfs: file does not exist")
	ErrBadSize   = errors.New("pfs: M_RECORD requires equal sizes on all nodes")
	ErrNeedGroup = errors.New("pfs: collective mode requires an open group")
)

// fileMeta is the OS-server-side state of one PFS file, shared by every
// open instance.
type fileMeta struct {
	name    string
	size    int64
	su      int64        // stripe unit
	group   []int        // indices into FileSystem.servers
	handles []ufs.Handle // per group member: stripe file handle, resolved at create

	sharedOff  int64      // the shared file pointer
	token      *sim.Mutex // pointer token for M_UNIX / M_LOG
	recordSize int64      // fixed by the first M_RECORD operation
	opens      int
}

func (m *fileMeta) localName() string { return "pfs:" + m.name }

// FileSystem is a mounted PFS: a stripe group of I/O nodes plus striping
// attributes.
type FileSystem struct {
	k       *sim.Kernel
	m       *mesh.Mesh
	servers []*ionode.Server
	cfg     Config
	files   map[string]*fileMeta
	dirs    map[string]bool // namespace directories; "/" always exists
	created int             // files created; drives stripe-base rotation
	tr      *trace.Log      // optional event timeline

	// onEmit, when set, runs after each event emit records. Tests use it
	// to read a file's counters at the instant of an event.
	onEmit func(trace.Event)

	// Free lists and scratch for the allocation-free stripe path.
	pieceBuf    []piece         // decluster scratch, one op at a time
	sigFree     []*sim.Signal   // pooled signals for blocking stripe ops
	stripeFree  []*stripeOp     // pooled per-op bookkeeping
	attemptFree []*pieceAttempt // pooled per-attempt bookkeeping
	readFree    []*readOp       // pooled stripe read and ReadAtCall state

	// Generation-stamped per-server merge index for declusterInto: slot
	// s holds the index in pieceBuf of server s's latest piece when its
	// stamp matches declusterGen, so the merge probe is O(1) per stripe
	// unit instead of a backward scan over the pieces so far (quadratic
	// in the stripe width for wide spanning requests).
	lastPiece    []int32
	lastPieceGen []uint32
	declusterGen uint32

	// Measurements.
	StripeRequests int64 // per-I/O-node requests issued (after declustering)

	// Shared-pointer token contention (M_UNIX holds the token across the
	// whole I/O, M_LOG only across the claim). TokenOps counts every
	// acquisition, TokenWaits the ones that queued behind another
	// holder, TokenWaitTime the total simulated time spent queued — the
	// serialization cost that collapses as client counts grow (the
	// ext-scale experiment records it per machine size).
	TokenOps      int64
	TokenWaits    int64
	TokenWaitTime sim.Time

	// Fault-tolerance measurements (all zero while Config.Retry is the
	// zero policy).
	Retries       int64 // pieces re-issued after a failure or timeout
	Timeouts      int64 // attempts whose reply deadline fired first
	GiveUps       int64 // pieces that exhausted the retry budget
	DegradedReads int64 // read ops that succeeded only via >=1 retried piece
	LateReplies   int64 // replies that arrived after their attempt timed out
	LateBytes     int64 // read data delivered by late replies and discarded

	// Crash-failover measurements (all zero unless RetryPolicy.DownPoll
	// is armed and a node actually goes down).
	DownWaits      int64 // pieces parked awaiting a crashed node's restart
	Unavailable    int64 // pieces failed with ErrUnavailable (node dead past deadline)
	AbandonedBytes int64 // read bytes whose pieces succeeded inside ops that overall failed

	// Per-tenant splits of LateBytes and AbandonedBytes, armed by
	// SetTenants (nil otherwise). Together with the servers' per-tenant
	// served bytes they cross-foot the QoS conservation oracle: every
	// byte a server served for tenant t is delivered to t, late for t,
	// or abandoned by t.
	tenants         int
	tenantLate      []int64
	tenantAbandoned []int64
}

// Mount creates a PFS over the given I/O node servers.
func Mount(k *sim.Kernel, m *mesh.Mesh, servers []*ionode.Server, cfg Config) *FileSystem {
	if len(servers) == 0 {
		panic("pfs: mount needs at least one I/O node")
	}
	if cfg.StripeUnit <= 0 {
		panic("pfs: stripe unit must be positive")
	}
	return &FileSystem{
		k:       k,
		m:       m,
		servers: servers,
		cfg:     cfg,
		files:   make(map[string]*fileMeta),
		dirs:    map[string]bool{"/": true},
	}
}

// SetTrace attaches (or with nil detaches) an event timeline covering
// read calls and stripe traffic on this mount.
func (fsys *FileSystem) SetTrace(l *trace.Log) { fsys.tr = l }

// emit records a trace event when tracing is enabled.
func (fsys *FileSystem) emit(kind trace.Kind, node int, file string, off, n int64) {
	if fsys.tr != nil {
		e := trace.Event{T: fsys.k.Now(), Kind: kind, Node: node, File: file, Off: off, N: n}
		fsys.tr.Add(e)
		if fsys.onEmit != nil {
			fsys.onEmit(e)
		}
	}
}

// SetTenants arms per-tenant late/abandoned byte accounting for n
// tenants (n <= 0 disarms it). Files are attributed by File.SetTenant;
// out-of-range ids fold onto tenant 0.
func (fsys *FileSystem) SetTenants(n int) {
	if n <= 0 {
		fsys.tenants, fsys.tenantLate, fsys.tenantAbandoned = 0, nil, nil
		return
	}
	fsys.tenants = n
	fsys.tenantLate = make([]int64, n)
	fsys.tenantAbandoned = make([]int64, n)
}

// clampTenant folds out-of-range tenant ids onto 0 (matching the
// ionode scheduler's clamp), and is only called with tenants armed.
func (fsys *FileSystem) clampTenant(t int) int {
	if t < 0 || t >= fsys.tenants {
		return 0
	}
	return t
}

// TenantLateBytes returns tenant t's share of LateBytes (0 when
// per-tenant accounting is off).
func (fsys *FileSystem) TenantLateBytes(t int) int64 {
	if t < 0 || t >= len(fsys.tenantLate) {
		return 0
	}
	return fsys.tenantLate[t]
}

// TenantAbandonedBytes returns tenant t's share of AbandonedBytes.
func (fsys *FileSystem) TenantAbandonedBytes(t int) int64 {
	if t < 0 || t >= len(fsys.tenantAbandoned) {
		return 0
	}
	return fsys.tenantAbandoned[t]
}

// Create allocates a PFS file of size bytes with the mount's default
// stripe attributes: unit size from Config, and a stripe group that is
// either the whole I/O partition (GroupWidth 0, the legacy layout) or
// the next GroupWidth-wide tile of it. Tiles advance with each created
// file and wrap around the partition, so a population of files spreads
// over every I/O node while each individual file's declustering stays
// O(GroupWidth).
func (fsys *FileSystem) Create(name string, size int64) error {
	n := len(fsys.servers)
	w := fsys.cfg.GroupWidth
	if w <= 0 || w > n {
		w = n
	}
	base := 0
	if w < n {
		base = (fsys.created * w) % n
	}
	group := make([]int, w)
	for i := range group {
		group[i] = (base + i) % n
	}
	return fsys.CreateStriped(name, size, fsys.cfg.StripeUnit, group)
}

// CreateStriped allocates a PFS file with explicit stripe attributes:
// unit size su and a stripe group given as indices into the mount's
// server list. This is how the paper's stripe-unit and stripe-group
// experiments vary layout per file.
func (fsys *FileSystem) CreateStriped(name string, size, su int64, group []int) error {
	name = clean(name)
	if _, ok := fsys.files[name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	if fsys.dirs[name] {
		return fmt.Errorf("%w: %s is a directory", ErrExists, name)
	}
	if parent := path.Dir(name); !fsys.dirs[parent] {
		return fmt.Errorf("%w: %s", ErrNotExist, parent)
	}
	if size <= 0 {
		return fmt.Errorf("pfs: file size must be positive, got %d", size)
	}
	if su <= 0 {
		return fmt.Errorf("pfs: stripe unit must be positive, got %d", su)
	}
	if len(group) == 0 {
		return fmt.Errorf("pfs: empty stripe group")
	}
	for _, s := range group {
		if s < 0 || s >= len(fsys.servers) {
			return fmt.Errorf("pfs: stripe group member %d outside %d servers", s, len(fsys.servers))
		}
	}
	// Rotate the stripe base: like the real PFS, successive files start
	// their first stripe unit on successive group members, spreading
	// concurrently-read files across the I/O nodes.
	rot := fsys.created % len(group)
	fsys.created++
	rotated := append(append([]int(nil), group[rot:]...), group[:rot]...)
	meta := &fileMeta{
		name:  name,
		size:  size,
		su:    su,
		group: rotated,
		token: sim.NewMutex(fsys.k),
	}
	// Create the per-I/O-node stripe files, resolving each one's UFS
	// handle so the read path never repeats the name lookup. Members
	// assigned no stripe units keep a zero handle; declustering never
	// targets them.
	g := int64(len(rotated))
	units := (size + su - 1) / su
	lastLen := size - (units-1)*su
	meta.handles = make([]ufs.Handle, g)
	for j := int64(0); j < g; j++ {
		cnt := (units - j + g - 1) / g // units assigned to group member j
		if cnt <= 0 {
			continue
		}
		local := cnt * su
		if (units-1)%g == j {
			local = (cnt-1)*su + lastLen
		}
		srv := fsys.servers[rotated[j]]
		if err := srv.FS().Create(meta.localName(), local); err != nil {
			return fmt.Errorf("pfs: creating stripe on I/O node %d: %w", rotated[j], err)
		}
		if h, err := srv.FS().Lookup(meta.localName()); err == nil {
			meta.handles[j] = h
		}
	}
	fsys.files[name] = meta
	return nil
}

// Size reports a file's length.
func (fsys *FileSystem) Size(name string) (int64, error) {
	meta, ok := fsys.files[clean(name)]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return meta.size, nil
}

// Open opens a PFS file from compute node node in the given mode.
// Collective modes (M_SYNC, M_RECORD, M_GLOBAL) require an OpenGroup
// shared by all participating nodes; the group assigns ranks in open
// order. Non-collective modes accept a nil group.
func (fsys *FileSystem) Open(name string, node int, mode Mode, group *OpenGroup) (*File, error) {
	meta, ok := fsys.files[clean(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if !mode.Valid() {
		return nil, fmt.Errorf("pfs: invalid mode %d", int(mode))
	}
	if mode.Collective() && group == nil {
		return nil, fmt.Errorf("%w (%v)", ErrNeedGroup, mode)
	}
	f := &File{fsys: fsys, meta: meta, node: node, mode: mode, group: group, deliveryHash: DeliveryHashSeed}
	if group != nil {
		f.rank = group.join(f)
	}
	meta.opens++
	return f, nil
}

// piece is one I/O node's share of a declustered request.
type piece struct {
	server   int // index into the file's stripe group
	localOff int64
	n        int64
}

// decluster splits the global byte range [off, off+n) of a file striped
// with unit su over g group members into per-member pieces, merging the
// pieces each member receives into contiguous local runs (for a
// contiguous global range each member's share is one contiguous local
// range).
func decluster(off, n, su int64, g int) []piece {
	return declusterAppend(nil, off, n, su, g)
}

// declusterInto is decluster into the mount's scratch buffer. The buffer
// is valid until the next stripe operation on this mount; stripeIOInto
// consumes it before anything can re-enter. Unlike the pure decluster it
// merges through the generation-stamped per-server index, so the probe
// for "this member's most recent piece" is O(1) per stripe unit rather
// than a backward scan — the scan is quadratic in the stripe width for
// requests spanning a wide group, which is exactly the large-machine
// regime. The merge semantics are identical to declusterAppend
// (TestDeclusterIntoMatchesReference pins that).
func (fsys *FileSystem) declusterInto(off, n, su int64, g int) []piece {
	if len(fsys.lastPiece) < g {
		fsys.lastPiece = make([]int32, g)
		fsys.lastPieceGen = make([]uint32, g)
		fsys.declusterGen = 0
	}
	fsys.declusterGen++
	if fsys.declusterGen == 0 { // uint32 wrap: clear stale stamps
		for i := range fsys.lastPieceGen {
			fsys.lastPieceGen[i] = 0
		}
		fsys.declusterGen = 1
	}
	gen := fsys.declusterGen
	last, lastGen := fsys.lastPiece, fsys.lastPieceGen
	out := fsys.pieceBuf[:0]
	end := off + n
	for cur := off; cur < end; {
		u := cur / su
		within := cur % su
		take := su - within
		if rem := end - cur; rem < take {
			take = rem
		}
		srv := int(u % int64(g))
		local := (u/int64(g))*su + within
		if lastGen[srv] == gen {
			if i := last[srv]; out[i].localOff+out[i].n == local {
				out[i].n += take
				cur += take
				continue
			}
		}
		last[srv] = int32(len(out))
		lastGen[srv] = gen
		out = append(out, piece{server: srv, localOff: local, n: take})
		cur += take
	}
	fsys.pieceBuf = out
	return out
}

func declusterAppend(out []piece, off, n, su int64, g int) []piece {
	end := off + n
	for cur := off; cur < end; {
		u := cur / su
		within := cur % su
		take := su - within
		if rem := end - cur; rem < take {
			take = rem
		}
		srv := int(u % int64(g))
		local := (u/int64(g))*su + within
		// Merge with this member's most recent piece when locally
		// contiguous (consecutive units land g units apart globally but
		// adjacent locally).
		merged := false
		for i := len(out) - 1; i >= 0; i-- {
			if out[i].server == srv {
				if out[i].localOff+out[i].n == local {
					out[i].n += take
					merged = true
				}
				break
			}
		}
		if !merged {
			out = append(out, piece{server: srv, localOff: local, n: take})
		}
		cur += take
	}
	return out
}

// getSig borrows a signal for a stripe operation. The borrower must hold
// it until after it fires (its waiter reads the error in the event the
// firing books), then return it with putSig.
func (fsys *FileSystem) getSig() *sim.Signal {
	if n := len(fsys.sigFree); n > 0 {
		s := fsys.sigFree[n-1]
		fsys.sigFree[n-1] = nil
		fsys.sigFree = fsys.sigFree[:n-1]
		s.Reset(fsys.k)
		return s
	}
	return sim.NewSignal(fsys.k)
}

func (fsys *FileSystem) putSig(s *sim.Signal) {
	fsys.sigFree = append(fsys.sigFree, s)
}

// stripeOp is the pooled bookkeeping of one stripe operation: the
// countdown over declustered pieces, the first error, and the
// degraded/abandoned accounting the legacy stripeIO kept in closures.
// The op returns to the free list the instant the countdown reaches
// zero; settled late attempts never touch their op again.
type stripeOp struct {
	fsys      *FileSystem
	remaining int
	tenant    int // owning tenant (0 outside QoS runs)
	firstErr  error
	recovered bool
	okBytes   int64 // read bytes of pieces that individually succeeded
	write     bool
	done      *sim.Signal // caller-owned; fired, never recycled here
}

func (fsys *FileSystem) getStripeOp() *stripeOp {
	if n := len(fsys.stripeFree); n > 0 {
		op := fsys.stripeFree[n-1]
		fsys.stripeFree[n-1] = nil
		fsys.stripeFree = fsys.stripeFree[:n-1]
		return op
	}
	return &stripeOp{fsys: fsys}
}

func (fsys *FileSystem) putStripeOp(op *stripeOp) {
	op.remaining = 0
	op.tenant = 0
	op.firstErr = nil
	op.recovered = false
	op.okBytes = 0
	op.write = false
	op.done = nil
	fsys.stripeFree = append(fsys.stripeFree, op)
}

// finishOne retires one piece of the operation. The last piece settles
// the whole op: degraded/abandoned accounting, then the caller's signal.
func (op *stripeOp) finishOne(err error, retried bool) {
	if err != nil && op.firstErr == nil {
		op.firstErr = err
	}
	op.recovered = op.recovered || retried
	op.remaining--
	if op.remaining > 0 {
		return
	}
	fsys := op.fsys
	if op.firstErr == nil && op.recovered && !op.write {
		fsys.DegradedReads++
	}
	if op.firstErr != nil && !op.write {
		// The op fails as a whole, but some pieces were served: the
		// server paid for those bytes, the application never sees them.
		// Account them so no byte goes missing.
		fsys.AbandonedBytes += op.okBytes
		if fsys.tenants > 0 {
			fsys.tenantAbandoned[op.tenant] += op.okBytes
		}
	}
	done, firstErr := op.done, op.firstErr
	fsys.putStripeOp(op)
	done.Fire(firstErr)
}

// stripeIOInto declusters [off, off+n) and issues the per-I/O-node
// requests over the mesh, firing done when every piece has been served
// and delivered back to (or acknowledged for) compute node node. Each
// piece rides the retry machinery (sendAttempt); with the zero
// RetryPolicy that machinery degenerates to the plain one-shot issue.
// tenant attributes the pieces for QoS accounting and the server-side
// fair scheduler (0 outside QoS runs). The caller owns done (typically
// a pooled signal) and must keep it until it fires.
func (fsys *FileSystem) stripeIOInto(done *sim.Signal, node, tenant int, meta *fileMeta, off, n int64, write bool) {
	if fsys.tenants > 0 {
		tenant = fsys.clampTenant(tenant)
	}
	pieces := fsys.declusterInto(off, n, meta.su, len(meta.group))
	fsys.StripeRequests += int64(len(pieces))
	op := fsys.getStripeOp()
	op.remaining = len(pieces)
	op.tenant = tenant
	op.write = write
	op.done = done
	first := fsys.k.Now()
	for i := range pieces {
		at := fsys.getAttempt()
		at.op, at.meta, at.node, at.pc, at.write = op, meta, node, pieces[i], write
		at.tenant = tenant
		at.attempt, at.first, at.settled = 0, first, false
		fsys.sendAttempt(at)
	}
}
