package mem

import "rev/internal/telemetry"

// Telemetry views: the hierarchy's counters surface in the metrics
// registry without touching the access hot path. The Stats structs stay
// the figure-generation source of truth (Fig. 11 reads them directly);
// these methods are invoked only at snapshot time through a registered
// telemetry.View.

// EmitTelemetry publishes the cache's per-class access and miss counters
// under prefix (e.g. "mem.l1d").
func (s *CacheStats) EmitTelemetry(o telemetry.Observer, prefix string) {
	for c := ClassData; c < numClasses; c++ {
		o.ObserveCounter(prefix+".accesses."+c.String(), s.Accesses[c])
		o.ObserveCounter(prefix+".misses."+c.String(), s.Misses[c])
	}
}

// EmitTelemetry publishes the DRAM counters under prefix (e.g. "mem.dram").
func (s *DRAMStats) EmitTelemetry(o telemetry.Observer, prefix string) {
	for c := ClassData; c < numClasses; c++ {
		o.ObserveCounter(prefix+".accesses."+c.String(), s.Accesses[c])
	}
	o.ObserveCounter(prefix+".row_hits", s.RowHits)
	o.ObserveCounter(prefix+".row_misses", s.RowMisses)
	o.ObserveCounter(prefix+".queue_cycles", s.QueueCycles)
}

// EmitTelemetry publishes the TLB counters under prefix (e.g. "mem.dtlb").
func (s *TLBStats) EmitTelemetry(o telemetry.Observer, prefix string) {
	o.ObserveCounter(prefix+".accesses", s.Accesses)
	o.ObserveCounter(prefix+".misses", s.Misses)
}

// HierarchyStats is a by-value copy of every level's counters, for
// readers that must not alias a hierarchy that keeps running or is
// reset for reuse.
type HierarchyStats struct {
	L1I, L1D, L2      CacheStats
	DRAM              DRAMStats
	ITLB, DTLB, L2TLB TLBStats
}

// Stats copies every level's counters.
func (h *Hierarchy) Stats() HierarchyStats {
	return HierarchyStats{
		L1I: h.L1I.Stats, L1D: h.L1D.Stats, L2: h.L2.Stats,
		DRAM: h.DRAM.Stats,
		ITLB: h.ITLB.Stats, DTLB: h.DTLB.Stats, L2TLB: h.L2TLB.Stats,
	}
}

// EmitTelemetry publishes every level of the hierarchy under prefix
// (e.g. "mem"): the split L1s, the unified L2, DRAM, and all TLBs.
func (s *HierarchyStats) EmitTelemetry(o telemetry.Observer, prefix string) {
	s.L1I.EmitTelemetry(o, prefix+".l1i")
	s.L1D.EmitTelemetry(o, prefix+".l1d")
	s.L2.EmitTelemetry(o, prefix+".l2")
	s.DRAM.EmitTelemetry(o, prefix+".dram")
	s.ITLB.EmitTelemetry(o, prefix+".itlb")
	s.DTLB.EmitTelemetry(o, prefix+".dtlb")
	s.L2TLB.EmitTelemetry(o, prefix+".l2tlb")
}
