// Package nvm models a byte-addressable non-volatile memory device fronted
// by a volatile NIC-side cache — the hardware combination HyperLoop targets
// (battery-backed DRAM in the paper's testbed, §6).
//
// The durability hazard the paper's gFLUSH primitive exists to close is
// modeled explicitly: an RDMA WRITE is acknowledged once data reaches the
// NIC's volatile cache, so a power failure between the ACK and the cache
// drain loses the write. Flush (the 0-byte RDMA READ trick) drains the
// cache deterministically; PowerFail discards whatever has not drained.
package nvm

import "fmt"

// Device is a simulated NVM DIMM. The zero value is unusable; use New.
//
// Two byte arrays model the two levels of the hierarchy:
//
//	volatile — what reads observe (NIC cache + media, coherent view)
//	durable  — what survives a power failure
//
// NIC-path writes (Write) land in volatile and are tracked dirty until a
// Flush persists them. CPU-path writes (Store) model a store followed by a
// cache-line write-back (CLWB+fence): they persist immediately, since host
// stores do not traverse the NIC cache.
type Device struct {
	volatile []byte
	durable  []byte
	dirty    intervalSet
	clip     []interval // scratch for the dirty ranges a flush visits

	writes      uint64
	stores      uint64
	flushes     uint64
	bytesDirty  uint64
	bytesSynced uint64
	powerFails  uint64
}

// New creates a device with the given capacity in bytes.
func New(size int) *Device {
	if size <= 0 {
		panic("nvm: non-positive device size")
	}
	return &Device{
		volatile: make([]byte, size),
		durable:  make([]byte, size),
	}
}

// Size returns the device capacity.
func (d *Device) Size() int { return len(d.volatile) }

func (d *Device) check(off, n int) {
	if off < 0 || n < 0 || off+n > len(d.volatile) {
		panic(fmt.Sprintf("nvm: access [%d, %d) outside device of %d bytes", off, off+n, len(d.volatile)))
	}
}

// Write performs a NIC-path write: data becomes visible immediately but is
// volatile until the covering range is flushed.
func (d *Device) Write(off int, data []byte) {
	d.check(off, len(data))
	copy(d.volatile[off:], data)
	if len(data) > 0 {
		d.dirty.add(off, off+len(data))
		d.writes++
		d.bytesDirty += uint64(len(data))
	}
}

// Store performs a CPU-path persistent write (store + CLWB + fence): data is
// visible and durable at once.
func (d *Device) Store(off int, data []byte) {
	d.check(off, len(data))
	copy(d.volatile[off:], data)
	copy(d.durable[off:], data)
	// A host store also supersedes any pending NIC-cache line for the range.
	d.dirty.remove(off, off+len(data))
	d.stores++
}

// Read returns a copy of the live (volatile-coherent) contents.
func (d *Device) Read(off, n int) []byte {
	d.check(off, n)
	out := make([]byte, n)
	copy(out, d.volatile[off:off+n])
	return out
}

// ReadInto copies live contents into dst and returns the bytes copied.
func (d *Device) ReadInto(off int, dst []byte) int {
	d.check(off, len(dst))
	return copy(dst, d.volatile[off:off+len(dst)])
}

// View returns the live backing slice for [off, off+n). Mutating it without
// going through Write/Store bypasses durability tracking; it exists so the
// RDMA layer can register memory regions over device ranges.
func (d *Device) View(off, n int) []byte {
	d.check(off, n)
	return d.volatile[off : off+n]
}

// MarkDirty records that [off, off+n) was mutated through a View on the NIC
// path and is volatile until flushed.
func (d *Device) MarkDirty(off, n int) {
	d.check(off, n)
	if n == 0 {
		return
	}
	d.dirty.add(off, off+n)
	d.writes++
	d.bytesDirty += uint64(n)
}

// Flush drains any dirty (NIC-cached) bytes overlapping [off, off+n) to
// durable media. It returns the number of bytes persisted.
func (d *Device) Flush(off, n int) int {
	d.check(off, n)
	synced := 0
	d.clip = d.dirty.appendOverlap(d.clip[:0], off, off+n)
	for _, iv := range d.clip {
		copy(d.durable[iv.lo:iv.hi], d.volatile[iv.lo:iv.hi])
		synced += iv.hi - iv.lo
	}
	d.dirty.remove(off, off+n)
	d.flushes++
	d.bytesSynced += uint64(synced)
	return synced
}

// FlushAll drains the entire cache.
func (d *Device) FlushAll() int { return d.Flush(0, len(d.volatile)) }

// DirtyBytes returns the number of bytes currently volatile.
func (d *Device) DirtyBytes() int { return d.dirty.total() }

// IsDirty reports whether any byte in [off, off+n) is volatile.
func (d *Device) IsDirty(off, n int) bool {
	d.check(off, n)
	d.clip = d.dirty.appendOverlap(d.clip[:0], off, off+n)
	return len(d.clip) > 0
}

// PowerFail simulates losing power: all un-flushed NIC-cache contents are
// discarded and the live view reverts to durable state.
func (d *Device) PowerFail() {
	d.clip = d.dirty.appendOverlap(d.clip[:0], 0, len(d.volatile))
	for _, iv := range d.clip {
		copy(d.volatile[iv.lo:iv.hi], d.durable[iv.lo:iv.hi])
	}
	d.dirty.removeAll()
	d.powerFails++
}

// DurableRead returns a copy of the durable contents (what recovery sees).
func (d *Device) DurableRead(off, n int) []byte {
	d.check(off, n)
	out := make([]byte, n)
	copy(out, d.durable[off:off+n])
	return out
}

// Stats is a snapshot of device activity counters.
type Stats struct {
	Writes      uint64 // NIC-path writes
	Stores      uint64 // CPU-path persistent stores
	Flushes     uint64 // flush operations
	BytesDirty  uint64 // cumulative bytes written via the NIC path
	BytesSynced uint64 // cumulative bytes persisted by flushes
	PowerFails  uint64
}

// Stats returns a snapshot of activity counters.
func (d *Device) Stats() Stats {
	return Stats{
		Writes:      d.writes,
		Stores:      d.stores,
		Flushes:     d.flushes,
		BytesDirty:  d.bytesDirty,
		BytesSynced: d.bytesSynced,
		PowerFails:  d.powerFails,
	}
}

// interval is a half-open dirty range.
type interval struct{ lo, hi int }

// intervalSet maintains sorted, disjoint, merged intervals. add and remove
// build the new list in spare, the array the list before last lived in, and
// swap: the set allocates only when it outgrows both arrays.
type intervalSet struct {
	ivs   []interval
	spare []interval
}

// commit installs out, built in s.spare, as the interval list.
func (s *intervalSet) commit(out []interval) {
	s.ivs, s.spare = out, s.ivs[:0]
}

func (s *intervalSet) add(lo, hi int) {
	if lo >= hi {
		return
	}
	out := s.spare[:0]
	inserted := false
	for _, iv := range s.ivs {
		switch {
		case iv.hi < lo:
			out = append(out, iv)
		case hi < iv.lo:
			if !inserted {
				out = append(out, interval{lo, hi})
				inserted = true
			}
			out = append(out, iv)
		default: // overlap or adjacency: merge
			if iv.lo < lo {
				lo = iv.lo
			}
			if iv.hi > hi {
				hi = iv.hi
			}
		}
	}
	if !inserted {
		out = append(out, interval{lo, hi})
	}
	s.commit(out)
}

func (s *intervalSet) remove(lo, hi int) {
	if lo >= hi {
		return
	}
	out := s.spare[:0]
	for _, iv := range s.ivs {
		if iv.hi <= lo || iv.lo >= hi {
			out = append(out, iv)
			continue
		}
		if iv.lo < lo {
			out = append(out, interval{iv.lo, lo})
		}
		if iv.hi > hi {
			out = append(out, interval{hi, iv.hi})
		}
	}
	s.commit(out)
}

func (s *intervalSet) removeAll() { s.ivs = s.ivs[:0] }

func (s *intervalSet) overlap(lo, hi int) []interval { return s.appendOverlap(nil, lo, hi) }

// appendOverlap appends the parts of the set inside [lo, hi) to out.
func (s *intervalSet) appendOverlap(out []interval, lo, hi int) []interval {
	for _, iv := range s.ivs {
		if iv.hi <= lo || iv.lo >= hi {
			continue
		}
		clipped := iv
		if clipped.lo < lo {
			clipped.lo = lo
		}
		if clipped.hi > hi {
			clipped.hi = hi
		}
		out = append(out, clipped)
	}
	return out
}

func (s *intervalSet) total() int {
	n := 0
	for _, iv := range s.ivs {
		n += iv.hi - iv.lo
	}
	return n
}
