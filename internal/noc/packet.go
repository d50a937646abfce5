// Package noc implements the on-chip network substrate: a 2-D mesh of
// wormhole routers with credit-based flit-level flow control, XY routing,
// winner-take-all output allocation, and network interfaces.
//
// Following the paper, memory request packets consist of body flits only
// (routing and SDRAM address information travel on sideband wires, OCP/AXI
// style), so splitting a packet does not add header overhead. One flit
// carries BeatsPerFlit data beats — the network link is bandwidth-matched
// to the DDR data bus (two beats per memory clock), so the single link
// into the memory subsystem is a first-order shared bottleneck, exactly
// the regime the paper's schedulers compete in. Requests and responses
// travel
// on physically separate request/response meshes, the usual deadlock-free
// arrangement for memory traffic.
//
// The flow-control policy of each router output is pluggable through the
// Allocator interface. The conventional round-robin / priority-first
// policy, RoundRobin, is the default; the paper's GSS policy lives in
// internal/core.
package noc

import (
	"fmt"

	"aanoc/internal/dram"
)

// Kind distinguishes read and write memory requests (the paper's R/W bit;
// the data-contention condition compares it).
type Kind int

const (
	Read Kind = iota
	Write
)

// String returns "R" or "W".
func (k Kind) String() string {
	if k == Write {
		return "W"
	}
	return "R"
}

// Class labels the application-level origin of a request; the paper's
// priority experiments (Table II) assign Demand packets to the priority
// service while everything else is best-effort.
type Class int

const (
	// ClassDemand is a microprocessor demand miss: the CPU stalls until
	// it is served.
	ClassDemand Class = iota
	// ClassPrefetch is a microprocessor prefetch: best-effort.
	ClassPrefetch
	// ClassMedia is multimedia streaming traffic (codecs, enhancers,
	// format converters): best-effort.
	ClassMedia
	// ClassPeripheral is low-rate peripheral/DMA traffic: best-effort.
	ClassPeripheral
)

// String returns a short class name.
func (c Class) String() string {
	switch c {
	case ClassDemand:
		return "demand"
	case ClassPrefetch:
		return "prefetch"
	case ClassMedia:
		return "media"
	case ClassPeripheral:
		return "peripheral"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Packet is a memory request or response travelling on one mesh. The
// request path carries the SDRAM coordinates used by SDRAM-aware flow
// control; the response path reuses the struct with Kind=Read and Flits
// sized to the returned data.
type Packet struct {
	ID       int64
	ParentID int64 // logical request this packet is a split of; ID if unsplit
	SrcCore  int   // index of the generating core (for stats)
	Src, Dst Coord

	Kind     Kind
	Class    Class
	Priority bool

	Addr  dram.Address
	Beats int // useful data beats requested by this packet

	// Flits is the packet length on the network (one flit carries
	// BeatsPerFlit beats). Write requests carry their data; read requests
	// are a single command flit; read responses carry the data.
	Flits int

	// APTag marks the last split of a logical request (or an unsplit
	// packet); the memory subsystem's partially-open-page policy issues
	// the column command with auto-precharge when it sees the tag.
	APTag bool

	// Splits is the number of packets the logical request was split into
	// (1 for unsplit packets).
	Splits int

	// Gen is the cycle the logical request was generated at the core;
	// latency is measured from it.
	Gen int64

	// Response marks packets on the response network.
	Response bool
}

// String gives a compact debug rendering.
func (p *Packet) String() string {
	pr := ""
	if p.Priority {
		pr = "!"
	}
	return fmt.Sprintf("#%d%s %s %s %s %dB/%df", p.ID, pr, p.Class, p.Kind, p.Addr, p.Beats, p.Flits)
}

// BankConflict reports the paper's bank-conflict condition between two
// consecutive requests: same bank, different row.
func BankConflict(prev, next *Packet) bool {
	return prev.Addr.Bank == next.Addr.Bank && prev.Addr.Row != next.Addr.Row
}

// DataContention reports the paper's data-contention condition: a read
// following a write or a write following a read (bidirectional data bus
// turnaround).
func DataContention(prev, next *Packet) bool {
	return prev.Kind != next.Kind
}

// RowHit reports the row-buffer-hit condition: same bank, same row.
func RowHit(prev, next *Packet) bool {
	return prev.Addr.Bank == next.Addr.Bank && prev.Addr.Row == next.Addr.Row
}

// BankInterleave reports the bank-interleaving condition: different banks.
func BankInterleave(prev, next *Packet) bool {
	return prev.Addr.Bank != next.Addr.Bank
}

// BeatsPerFlit is the network link width in DDR data beats: one flit
// moves two beats per cycle, matching the per-cycle data rate of the
// SDRAM bus — as in the paper, where a 64-BL packet "takes at least 64
// clock cycles to transfer" over one link.
const BeatsPerFlit = 2

// FlitsForBeats returns the network length in flits of a payload of n
// beats (minimum one flit).
func FlitsForBeats(n int) int {
	if n <= BeatsPerFlit {
		return 1
	}
	return (n + BeatsPerFlit - 1) / BeatsPerFlit
}
