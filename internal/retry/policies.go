package retry

import (
	"fmt"
	"sync"

	"sentinel3d/internal/charlab"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/sentinel"
)

// ---------------------------------------------------------------------------
// DefaultTable — the "current flash" baseline.

// DefaultTablePolicy walks a static vendor-style retry table: entry k
// shifts every read voltage downward by k*Step scaled by a per-voltage
// shape profile (vendors pre-characterize the typical retention-shift
// profile of the technology). The first attempt (k=0) uses factory
// defaults.
//
// NewDefaultTable precomputes the first tableRows entries, which
// sessions hand out shared and read-only; set Step and Shape only
// through NewDefaultTable (a literal policy computes every entry afresh).
type DefaultTablePolicy struct {
	// Step is the sentinel-voltage-equivalent step per table entry.
	Step float64
	// Shape scales the step per voltage (index v-1); nil means uniform.
	Shape []float64

	rows []flash.Offsets // rows[k] = Entry(k, len(Shape)), shared read-only
}

// tableRows is how many entries NewDefaultTable precomputes: well past
// any retry budget in use (vendor tables hold a few dozen entries).
const tableRows = 64

// NewDefaultTable builds the baseline for a chip, deriving the shape
// profile from the technology's typical shift pattern (larger steps for
// lower voltages), normalized to 1 at the sentinel voltage.
func NewDefaultTable(chip *flash.Chip, step float64) *DefaultTablePolicy {
	p := chip.Model().P
	coding := chip.Coding()
	k := float64(coding.States() - 1)
	weight := func(v int) float64 {
		// Mean shift weight of the two states flanking boundary v, with
		// the erased state contributing nothing.
		w := func(s int) float64 {
			if s == 0 {
				return 0
			}
			return p.ChargeFloor + (k-float64(s))/k
		}
		return (w(v-1) + w(v)) / 2
	}
	sv := coding.SentinelVoltage()
	shape := make([]float64, coding.NumVoltages())
	for v := 1; v <= coding.NumVoltages(); v++ {
		shape[v-1] = weight(v) / weight(sv)
	}
	table := &DefaultTablePolicy{Step: step, Shape: shape}
	table.rows = make([]flash.Offsets, tableRows)
	for k := range table.rows {
		table.rows[k] = table.Entry(k, len(shape))
	}
	return table
}

// Name implements Policy.
func (p *DefaultTablePolicy) Name() string { return "current-flash" }

// Session implements Policy.
func (p *DefaultTablePolicy) Session(env *Env) Session {
	return tableSession{p: p, nv: env.Coding().NumVoltages()}
}

type tableSession struct {
	p  *DefaultTablePolicy
	nv int
}

// Entry returns a fresh copy of table entry k (k=0 is factory defaults),
// which the caller may modify.
func (p *DefaultTablePolicy) Entry(k, nv int) flash.Offsets {
	ofs := flash.ZeroOffsets(nv)
	if k == 0 {
		return ofs
	}
	for v := 0; v < nv; v++ {
		scale := 1.0
		if p.Shape != nil {
			scale = p.Shape[v]
		}
		ofs[v] = -float64(k) * p.Step * scale
	}
	return ofs
}

// row returns table entry k read-only: the precomputed row when there is
// one, otherwise a fresh Entry.
func (p *DefaultTablePolicy) row(k, nv int) flash.Offsets {
	if k < len(p.rows) && len(p.rows[k]) == nv {
		return p.rows[k]
	}
	return p.Entry(k, nv)
}

// zeroRows[nv] is a shared read-only all-zero vector for nv voltages,
// the factory defaults every k=0 attempt without better offsets uses.
var zeroRows = func() (rows [16]flash.Offsets) {
	for nv := range rows {
		rows[nv] = make(flash.Offsets, nv)
	}
	return rows
}()

// zeroRow returns factory-default offsets for nv voltages, read-only.
func zeroRow(nv int) flash.Offsets {
	if nv < len(zeroRows) {
		return zeroRows[nv]
	}
	return flash.ZeroOffsets(nv)
}

func (s tableSession) NextOffsets(k int, _ flash.Bitmap, _ flash.Offsets) (flash.Offsets, bool) {
	return s.p.row(k, s.nv), true
}

// ---------------------------------------------------------------------------
// Tracking — the HPCA'15-style baseline.

// TrackingPolicy periodically sweeps one representative wordline per block
// and applies its optimal offsets to every read in that block. On a read
// failure it falls back to the static table, resuming near the tracked
// point.
type TrackingPolicy struct {
	Fallback *DefaultTablePolicy

	mu      sync.Mutex
	tracked map[int]flash.Offsets
}

// NewTracking builds the tracking baseline over the given fallback table.
func NewTracking(fallback *DefaultTablePolicy) *TrackingPolicy {
	return &TrackingPolicy{
		Fallback: fallback,
		tracked:  make(map[int]flash.Offsets),
	}
}

// Name implements Policy.
func (p *TrackingPolicy) Name() string { return "tracking" }

// UpdateBlock re-characterizes block b using its wordline probeWL: the
// periodic maintenance the baseline requires (the paper notes it must run
// every 24 hours, and more often under high temperature).
func (p *TrackingPolicy) UpdateBlock(chip *flash.Chip, b, probeWL int) error {
	if !chip.IsProgrammed(b, probeWL) {
		return fmt.Errorf("retry: tracking probe wordline %d not programmed", probeWL)
	}
	lab := charlab.New(chip)
	opt := lab.OptimalOffsets(b, probeWL)
	p.mu.Lock()
	p.tracked[b] = opt
	p.mu.Unlock()
	return nil
}

// Tracked returns the recorded offsets for block b (nil if never updated).
func (p *TrackingPolicy) Tracked(b int) flash.Offsets {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tracked[b].Clone()
}

// Session implements Policy.
func (p *TrackingPolicy) Session(env *Env) Session {
	return &trackingSession{p: p, env: env}
}

type trackingSession struct {
	p   *TrackingPolicy
	env *Env
}

func (s *trackingSession) NextOffsets(k int, _ flash.Bitmap, _ flash.Offsets) (flash.Offsets, bool) {
	nv := s.env.Coding().NumVoltages()
	if k == 0 {
		if t := s.p.Tracked(s.env.B); t != nil {
			return t, true
		}
		return zeroRow(nv), true
	}
	// Fall back to the static table beyond the tracked point.
	return s.p.Fallback.row(k, nv), true
}

// ---------------------------------------------------------------------------
// Oracle — ground-truth optimum (upper bound).

// OraclePolicy reads with the per-wordline ground-truth optimal offsets
// located by full characterization sweeps. It is the paper's "OPT" and is
// only realizable inside the simulator.
type OraclePolicy struct {
	mu    sync.Mutex
	cache map[[2]int]flash.Offsets
}

// NewOracle returns an oracle with an empty sweep cache.
func NewOracle() *OraclePolicy {
	return &OraclePolicy{cache: make(map[[2]int]flash.Offsets)}
}

// Name implements Policy.
func (p *OraclePolicy) Name() string { return "oracle" }

// Session implements Policy.
func (p *OraclePolicy) Session(env *Env) Session {
	return &oracleSession{p: p, env: env}
}

type oracleSession struct {
	p   *OraclePolicy
	env *Env
}

func (s *oracleSession) NextOffsets(k int, _ flash.Bitmap, _ flash.Offsets) (flash.Offsets, bool) {
	if k > 2 {
		return nil, false // the optimum plus sensing-noise rerolls
	}
	key := [2]int{s.env.B, s.env.WL}
	s.p.mu.Lock()
	ofs, hit := s.p.cache[key]
	s.p.mu.Unlock()
	if !hit {
		lab := charlab.New(s.env.Chip)
		ofs = lab.OptimalOffsets(s.env.B, s.env.WL)
		s.p.mu.Lock()
		s.p.cache[key] = ofs
		s.p.mu.Unlock()
	}
	return ofs, true
}

// Invalidate clears the sweep cache (call after aging the chip).
func (p *OraclePolicy) Invalidate() {
	p.mu.Lock()
	p.cache = make(map[[2]int]flash.Offsets)
	p.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Sentinel — the paper's technique.

// SentinelPolicy wires the sentinel engine into the read path:
//
//	attempt 0: factory defaults;
//	attempt 1: infer all offsets from the sentinel errors of the failed
//	           default read (free for LSB pages, one auxiliary
//	           single-voltage read otherwise);
//	attempts 2..: state-change calibration, ±Δ per step.
type SentinelPolicy struct {
	Engine *sentinel.Engine
}

// NewSentinelPolicy wraps an engine.
func NewSentinelPolicy(engine *sentinel.Engine) *SentinelPolicy {
	return &SentinelPolicy{Engine: engine}
}

// Name implements Policy.
func (p *SentinelPolicy) Name() string { return "sentinel" }

// Session implements Policy.
func (p *SentinelPolicy) Session(env *Env) Session {
	return &sentinelSession{p: p, env: env}
}

type sentinelSession struct {
	p   *SentinelPolicy
	env *Env

	defaultSense flash.Bitmap
	sentOfs      float64
	// lastD is the error-difference rate measured at attempt 1; the
	// fallback guard reads it to judge whether the measurement was inside
	// the model's training domain.
	lastD float64
}

// senseFromLSBReadout converts an LSB page readout into a sentinel-voltage
// sense bitmap: the LSB bit is 1 below the boundary, so the sense (at or
// above) is its inverse. The copy lives in a pooled buffer that remains
// valid until the read finishes (same lifetime as Sense results) — which
// also makes it safe to take of the ephemeral prior bitmap.
func (e *Env) senseFromLSBReadout(read flash.Bitmap) flash.Bitmap {
	e.met.lsbReuse()
	out := e.hold(flash.GetBitmap(e.Chip.Config().CellsPerWordline))
	for i, w := range read {
		out[i] = ^w
	}
	return out
}

func (s *sentinelSession) NextOffsets(k int, prior flash.Bitmap, priorOfs flash.Offsets) (flash.Offsets, bool) {
	eng := s.p.Engine
	sv := eng.Model.SentinelVoltage
	nv := s.env.Coding().NumVoltages()
	switch {
	case k == 0:
		return zeroRow(nv), true
	case k == 1:
		// Measure the error difference at the default sentinel voltage.
		if s.env.Page == flash.PageLSB {
			s.defaultSense = s.env.senseFromLSBReadout(prior)
		} else {
			s.defaultSense = s.env.Sense(sv, 0)
		}
		d, ofs := eng.Infer(s.defaultSense)
		s.lastD = d
		s.sentOfs = ofs.Get(sv)
		return ofs, true
	default:
		if k-1 > eng.Cal.MaxSteps {
			return nil, false
		}
		// Sense at the current sentinel offset. For LSB pages the failed
		// attempt already applied the sentinel voltage at that offset, so
		// its readout is reused for free.
		var curSense flash.Bitmap
		if s.env.Page == flash.PageLSB {
			curSense = s.env.senseFromLSBReadout(prior)
		} else {
			curSense = s.env.Sense(sv, s.sentOfs)
		}
		newOfs, vec := eng.CalibrationStep(s.sentOfs, s.defaultSense, curSense)
		s.sentOfs = newOfs
		return vec, true
	}
}
