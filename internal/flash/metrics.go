package flash

import "sentinel3d/internal/obs"

// Metrics bundles the read kernel's fallback counters (see ReadOp). A
// nil *Metrics (the default) makes recording a no-op, so an
// uninstrumented chip pays one nil check per read operation.
type Metrics struct {
	// RefinedCells counts cells whose exact threshold voltage a query
	// computed because the first stage could not decide a comparison.
	RefinedCells *obs.Counter
	// ExactFallbacks counts faulted read operations that rebuilt their
	// whole threshold-voltage vector exactly.
	ExactFallbacks *obs.Counter
}

// NewMetrics binds the read kernel's counters to set; a nil set yields a
// nil (no-op) Metrics.
func NewMetrics(set *obs.Set) *Metrics {
	if set == nil {
		return nil
	}
	return &Metrics{
		RefinedCells:   set.Counter("flash.refined_cells", "cells a read refined to their exact threshold voltage"),
		ExactFallbacks: set.Counter("flash.exact_fallbacks", "faulted reads that rebuilt every threshold voltage exactly"),
	}
}

// record accounts one closed read operation.
func (m *Metrics) record(refined int, fallback bool) {
	if m == nil {
		return
	}
	if refined > 0 {
		m.RefinedCells.Add(int64(refined))
	}
	if fallback {
		m.ExactFallbacks.Inc()
	}
}
