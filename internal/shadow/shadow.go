// Package shadow implements the paper's stricter variant of requirement R5
// (Sec. IV.A): page shadowing. Instead of releasing a basic block's memory
// updates when the block validates, *all* updates during an execution epoch
// land in shadow pages; only when the entire epoch has been authenticated
// are the shadow pages mapped in as the program's real pages. While an
// epoch is open, no output (DMA) is permitted from a shadowed page, so a
// compromised execution can neither taint durable state nor exfiltrate
// through I/O before validation completes.
//
// The mechanism follows the architectural-shadow-memory design the paper
// cites (Nagarajan & Gupta, VEE 2009): a page table of shadow mappings in
// front of the backing memory, copy-on-first-write per epoch, and an
// atomic commit (promote) or abort (discard) per epoch.
package shadow

import (
	"fmt"
	"sort"

	"rev/internal/prog"
)

// Memory wraps a backing prog.Memory with shadow paging. It satisfies the
// same access patterns as prog.Memory (Read8/Write8/Read64/Write64/
// ReadBytes/WriteBytes) so a Machine can run over it unmodified.
type Memory struct {
	backing *prog.Memory
	// shadows maps page number -> shadow page contents for the open epoch.
	shadows map[uint64]*[prog.PageSize]byte
	open    bool
	// watch tracks the code-version epoch over the shadowed view: stores
	// into watched text ranges advance it whether they land in a shadow
	// page (epoch open) or pass through to the backing memory.
	watch prog.CodeWatch

	Stats Stats
}

// Stats counts shadowing activity.
type Stats struct {
	Epochs        uint64
	PagesShadowed uint64
	PagesPromoted uint64
	PagesDropped  uint64
	DMABlocked    uint64
}

var (
	_ prog.AddressSpace  = (*Memory)(nil)
	_ prog.CodeVersioner = (*Memory)(nil)
)

// New wraps a backing memory.
func New(backing *prog.Memory) *Memory {
	return &Memory{backing: backing, shadows: make(map[uint64]*[prog.PageSize]byte)}
}

// WatchCode registers a text range for code-version tracking on the
// shadowed view. Stores into the range advance the epoch regardless of
// whether they land in a shadow page or the backing memory, so signature
// memoization over a shadowed space invalidates exactly like the flat one.
func (m *Memory) WatchCode(start, end uint64) { m.watch.Watch(start, end) }

// CodeVersion returns the current code-version epoch of the shadowed view.
func (m *Memory) CodeVersion() uint64 { return m.watch.Version() }

// Backing exposes the wrapped memory (reads of unshadowed pages go there).
func (m *Memory) Backing() *prog.Memory { return m.backing }

// Reset returns the memory to its post-New state over a backing the
// caller has restored (the run-arena reuse path): an open epoch is
// dropped with its shadow pages, the statistics zero, and the code watch
// clears for the engine to re-arm.
func (m *Memory) Reset() {
	clear(m.shadows)
	m.open = false
	m.watch.Reset()
	m.Stats = Stats{}
}

// Begin opens a new epoch. Writes from now on go to shadow pages.
func (m *Memory) Begin() {
	if m.open {
		return
	}
	m.open = true
	m.Stats.Epochs++
}

// Open reports whether an epoch is in progress.
func (m *Memory) Open() bool { return m.open }

// ShadowedPages returns the sorted page numbers currently shadowed.
func (m *Memory) ShadowedPages() []uint64 {
	out := make([]uint64, 0, len(m.shadows))
	for pn := range m.shadows {
		out = append(out, pn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// shadowPage returns the epoch's shadow for the page holding addr,
// materializing it (copy-on-first-write) if needed.
func (m *Memory) shadowPage(addr uint64) *[prog.PageSize]byte {
	pn := addr / prog.PageSize
	pg := m.shadows[pn]
	if pg == nil {
		pg = new([prog.PageSize]byte)
		m.backing.ReadBytes(pn*prog.PageSize, pg[:])
		m.shadows[pn] = pg
		m.Stats.PagesShadowed++
	}
	return pg
}

// Commit authenticates the epoch: every shadow page is promoted into the
// backing memory atomically and the epoch closes.
func (m *Memory) Commit() {
	for pn, pg := range m.shadows {
		m.backing.WriteBytes(pn*prog.PageSize, pg[:])
		m.Stats.PagesPromoted++
		delete(m.shadows, pn)
	}
	m.open = false
}

// Abort discards every shadow page — the epoch failed validation; the
// backing memory is exactly as it was at Begin.
func (m *Memory) Abort() {
	for pn := range m.shadows {
		m.Stats.PagesDropped++
		delete(m.shadows, pn)
	}
	m.open = false
}

// Read8 reads one byte, preferring the epoch's shadow.
func (m *Memory) Read8(addr uint64) byte {
	if m.open {
		if pg := m.shadows[addr/prog.PageSize]; pg != nil {
			return pg[addr%prog.PageSize]
		}
	}
	return m.backing.Read8(addr)
}

// Write8 writes one byte into the epoch's shadow (or through, when no
// epoch is open).
func (m *Memory) Write8(addr uint64, v byte) {
	m.watch.Note(addr, 1)
	m.write8(addr, v)
}

// write8 is Write8 without code-version noting (callers note in bulk).
func (m *Memory) write8(addr uint64, v byte) {
	if !m.open {
		m.backing.Write8(addr, v)
		return
	}
	m.shadowPage(addr)[addr%prog.PageSize] = v
}

// Read64 reads a little-endian word.
func (m *Memory) Read64(addr uint64) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(m.Read8(addr+uint64(i)))
	}
	return v
}

// Write64 writes a little-endian word.
func (m *Memory) Write64(addr uint64, v uint64) {
	m.watch.Note(addr, 8)
	for i := 0; i < 8; i++ {
		m.write8(addr+uint64(i), byte(v>>(8*i)))
	}
}

// ReadBytes fills dst from the shadowed view.
func (m *Memory) ReadBytes(addr uint64, dst []byte) {
	if !m.open || len(m.shadows) == 0 {
		m.backing.ReadBytes(addr, dst)
		return
	}
	for i := range dst {
		dst[i] = m.Read8(addr + uint64(i))
	}
}

// WriteBytes writes src through the shadowed view.
func (m *Memory) WriteBytes(addr uint64, src []byte) {
	m.watch.Note(addr, uint64(len(src)))
	if !m.open {
		m.backing.WriteBytes(addr, src)
		return
	}
	for i, b := range src {
		m.write8(addr+uint64(i), b)
	}
}

// DMA models an output operation (device read) from a region. While an
// epoch is open, DMA from a shadowed page is refused (Sec. IV.A: "no
// output operation is allowed out of a shadow page"): unvalidated data
// must not leave the machine.
func (m *Memory) DMA(addr uint64, n int) ([]byte, error) {
	if m.open {
		first := addr / prog.PageSize
		last := (addr + uint64(n) - 1) / prog.PageSize
		for pn := first; pn <= last; pn++ {
			if _, shadowed := m.shadows[pn]; shadowed {
				m.Stats.DMABlocked++
				return nil, fmt.Errorf("shadow: DMA from unvalidated page %#x refused", pn*prog.PageSize)
			}
		}
	}
	out := make([]byte, n)
	m.backing.ReadBytes(addr, out)
	return out, nil
}
