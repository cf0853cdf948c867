package pfs

import "fmt"

// Mode is a PFS I/O sharing mode: the application's hint about how
// multiple processes will access a shared file. Numbering follows the
// Paragon OSF/1 nx library.
type Mode int

const (
	// MUnix (mode 0) gives standard Unix semantics on a shared file
	// pointer: every read is atomic and the pointer token is held for the
	// whole I/O, so concurrent accesses fully serialize. Slowest shared
	// mode.
	MUnix Mode = 0
	// MLog (mode 1) shares the file pointer with atomicity but without
	// ordering: a node claims its region (token round-trip), then the
	// I/O itself proceeds in parallel with other nodes'.
	MLog Mode = 1
	// MSync (mode 2) processes requests in node order with varying
	// request sizes: each operation is collective, offsets are assigned
	// by rank prefix-sum, and claims stagger in rank order.
	MSync Mode = 2
	// MRecord (mode 3) treats the file as fixed-size records in node
	// order: each collective operation must present the same size on
	// every node, offsets are disjoint by construction, and no token is
	// needed. The mode the paper's prefetching prototype targets.
	MRecord Mode = 3
	// MGlobal (mode 4) has every node read the same data: one node
	// performs the I/O and the data is broadcast.
	MGlobal Mode = 4
	// MAsync (mode 5) gives each node its own file pointer with no
	// atomicity or coordination: the fastest shared-file mode.
	MAsync Mode = 5
)

// String returns the nx-style name of the mode.
func (m Mode) String() string {
	switch m {
	case MUnix:
		return "M_UNIX"
	case MLog:
		return "M_LOG"
	case MSync:
		return "M_SYNC"
	case MRecord:
		return "M_RECORD"
	case MGlobal:
		return "M_GLOBAL"
	case MAsync:
		return "M_ASYNC"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Collective reports whether every operation in this mode must be issued
// by all parties of the open group.
func (m Mode) Collective() bool {
	return m == MSync || m == MRecord || m == MGlobal
}

// Valid reports whether m is one of the defined modes.
func (m Mode) Valid() bool { return m >= MUnix && m <= MAsync }
