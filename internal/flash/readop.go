package flash

import (
	"math"

	"sentinel3d/internal/physics"
)

// ReadOp is the fused read kernel: one handle per read operation of a
// wordline. BeginRead materializes the wordline's per-cell threshold
// voltages exactly once — the expensive part of every read — and any
// number of Sense / ReadPage / VoltageErrors / sweep queries are then
// served from that vector without re-deriving it. The chip-level
// convenience methods (Chip.Sense, Chip.ReadPage, ...) are one-query
// wrappers around a ReadOp.
//
// Two stages: BeginRead stores each cell's threshold voltage to within a
// per-read margin, computed from the unrefined first stage of every
// Gaussian draw (mathx.GaussFromHashFirst) and, on CacheZ chips, from
// int16-quantized program offsets. Every query compares a cell against a
// threshold; where the stored value lies farther than the margin from
// the threshold the comparison is already decided, and for the rare
// cell within the margin the query computes the exact value by the
// exact formula (refine) and compares that. Query results are therefore
// bit-identical to comparing exact threshold voltages, at a fraction of
// the cost (DESIGN.md §7).
//
// Lifetime and pooling: a ReadOp borrows its threshold-voltage buffer
// (and the struct itself) from package-level pools; call Close when done
// — queries after Close are invalid. Close is idempotent. The ...Into
// query variants write into a caller-supplied bitmap when its capacity
// suffices, so a steady-state caller that recycles its buffers performs
// no allocations at all.
//
// Concurrency: a ReadOp is read-only with respect to the chip and may be
// used concurrently with other ReadOps (including on the same wordline),
// but a single ReadOp must not be shared between goroutines (queries
// write refined values back into it). The chip must not be mutated
// (program/erase/aging) while any ReadOp on it is open, exactly as for
// the chip's read methods.
type ReadOp struct {
	c        *Chip
	b, wl    int
	readSeed uint64
	// vth holds every cell's threshold voltage to within margin: the
	// first stage, overwritten with the exact value wherever a query
	// refined a cell. margin 0 means every value is exact.
	vth    []float64
	margin float64
	// faults is the chip's fault model at BeginRead. While a faulted op
	// still holds first-stage values (margin > 0), no single cell can be
	// refined on its own (the model perturbs the vector as a whole), so
	// the first refinement rebuilds every value exactly.
	faults FaultModel
	states []uint8
	zq     []int16 // the wordline's quantized program offsets; nil on the hash path
	// env is scratch for the resolved wordline environment; its slices
	// are retained across pool cycles so BeginRead never allocates in
	// steady state. zs and ns are the read's exact hash streams.
	env physics.WLEnv
	zs  physics.ZStream
	ns  physics.NoiseStream
	// refined and fallback feed the chip's Metrics at Close.
	refined  int
	fallback bool
}

// BeginRead opens one read operation on wordline (b, wl): it computes the
// threshold voltage of every cell under the wordline's current stress for
// one shared sensing-noise draw (readSeed), applying any attached fault
// model, and returns the handle serving queries against that snapshot.
// It panics if the wordline holds no data, like every read.
func (c *Chip) BeginRead(b, wl int, readSeed uint64) *ReadOp {
	c.checkAddr(b, wl)
	op, _ := readOpPool.Get().(*ReadOp)
	if op == nil {
		op = new(ReadOp)
	}
	op.c, op.b, op.wl, op.readSeed = c, b, wl, readSeed
	op.refined, op.fallback = 0, false
	c.vthAll(op)
	return op
}

// vthAll fills op.vth with the first stage of every cell's threshold
// voltage and sets op.margin to a bound on its distance from the exact
// value: the same per-cell sum as exactAt, with the first-stage noise
// draw and the first-stage (on CacheZ chips, quantized) program offset.
func (c *Chip) vthAll(op *ReadOp) {
	w := &c.blocks[op.b].wls[op.wl]
	if !w.programmed {
		panic("flash: read of unprogrammed wordline")
	}
	n := c.cfg.CellsPerWordline
	g := c.globalWL(op.b, op.wl)
	env := &op.env
	c.model.EnvInto(env, c.LayerOf(op.wl), g, c.blocks[op.b].stress)
	op.states, op.zq = w.states, w.zq
	op.zs = c.model.CellZStream(g, w.epoch)
	op.ns = c.model.Noise(op.readSeed)
	op.vth = vthPool.get(n)
	zq, q := w.zq, c.model.ZQuantum()
	nf := float64(n)
	for i := range op.vth {
		s := int(op.states[i])
		pos := (float64(i)+0.5)/nf - 0.5
		var grad float64
		if s > 0 {
			grad = env.Gradient * pos
		}
		var z float64
		if zq != nil {
			z = float64(zq[i]) * q
			if zq[i] == physics.ZQuantNaN {
				z = math.NaN()
			}
		} else {
			z = op.zs.AtFirst(i)
		}
		op.vth[i] = env.Mean[s] + grad + env.Sigma[s]*z + op.ns.AtFirst(i)
	}
	op.margin = c.firstStageMargin(env, zq != nil, op.ns)
	op.faults = c.faults
	if op.faults != nil {
		op.perturbFirstStage()
	}
}

// firstStageMargin bounds |first stage - exact| for every cell of one
// read: the largest state sigma times the program-offset error, plus the
// noise draw's error, plus the rounding of both stages' sums and
// products. B bounds the magnitude of every term and partial sum of the
// per-cell formula; each stage rounds five times at 2^-53 relative, so
// B*2^-48 covers both with room to spare (including the rounding of the
// window bounds computed from the margin).
func (c *Chip) firstStageMargin(env *physics.WLEnv, cached bool, ns physics.NoiseStream) float64 {
	zErr := c.model.ZFirstMaxErr()
	if cached {
		zErr = c.model.ZQuantMaxErr()
	}
	var maxSigma, maxMean float64
	for s, sigma := range env.Sigma {
		maxSigma = max(maxSigma, math.Abs(sigma))
		maxMean = max(maxMean, math.Abs(env.Mean[s]))
	}
	b := maxMean + math.Abs(env.Gradient) + maxSigma*c.model.ZMaxAbs() + ns.MaxAbs()
	return maxSigma*zErr + ns.FirstMaxErr() + b*0x1p-48
}

// perturbFirstStage applies the fault model to the first-stage vector
// and widens the margin to still bound the distance from the exact
// perturbed values. Each exact value x lies in [v-margin, v+margin]
// around its first stage v; the model is monotone per cell (see
// FaultModel), so the perturbed x lies between the perturbed bounds, and
// the widest distance from a perturbed v to its perturbed bounds is the
// new margin. NaN cells are left out: no margin decides them anyway.
func (op *ReadOp) perturbFirstStage() {
	n := len(op.vth)
	lo, hi := vthPool.get(n), vthPool.get(n)
	for i, v := range op.vth {
		lo[i], hi[i] = v-op.margin, v+op.margin
	}
	for _, v := range [...][]float64{op.vth, lo, hi} {
		op.faults.PerturbVth(op.b, op.wl, op.readSeed, v)
	}
	var spread float64
	for i, v := range op.vth {
		if d := v - lo[i]; d > spread {
			spread = d
		}
		if d := hi[i] - v; d > spread {
			spread = d
		}
	}
	vthPool.put(hi)
	vthPool.put(lo)
	op.margin = math.Nextafter(spread, math.Inf(1))
}

// exactAt computes cell i's exact threshold voltage, unperturbed: the
// exact program offset (at the float32 precision a CacheZ chip's reads
// have always used) and the exact noise draw, summed in the fixed order
// physics.Model.CellVth uses.
func (op *ReadOp) exactAt(i int) float64 {
	env := &op.env
	s := int(op.states[i])
	pos := (float64(i)+0.5)/float64(len(op.vth)) - 0.5
	var grad float64
	if s > 0 {
		grad = env.Gradient * pos
	}
	z := op.zs.At(i)
	if op.zq != nil {
		z = float64(float32(z))
	}
	return env.Mean[s] + grad + env.Sigma[s]*z + op.ns.At(i)
}

// refine returns cell i's exact threshold voltage and stores it back.
func (op *ReadOp) refine(i int) float64 {
	switch {
	case op.margin == 0:
	case op.faults != nil:
		op.exactAll()
	default:
		op.vth[i] = op.exactAt(i)
		op.refined++
	}
	return op.vth[i]
}

// exactAll makes every stored value exact: the faulted-op fallback, and
// the path for queries the margin cannot serve (NaN sweep offsets).
func (op *ReadOp) exactAll() {
	if op.margin == 0 {
		return
	}
	for i := range op.vth {
		op.vth[i] = op.exactAt(i)
	}
	if op.faults != nil {
		op.faults.PerturbVth(op.b, op.wl, op.readSeed, op.vth)
		op.fallback = true
	} else {
		op.refined += len(op.vth)
	}
	op.margin = 0
}

// window is a threshold t with the band [lo, hi) around it that holds
// every value within the read's margin of t. A stored value outside the
// band compares against t exactly as its exact value does (below lo
// both are below t, at or above hi both are at or above t), so only a
// value inside the band, or NaN, needs refining first. With margin 0
// the band is empty.
type window struct{ t, lo, hi float64 }

func (op *ReadOp) window(t float64) window {
	if op.margin == 0 {
		return window{t, t, t}
	}
	return window{
		t:  t,
		lo: math.Nextafter(t-op.margin, math.Inf(-1)),
		hi: math.Nextafter(t+op.margin, math.Inf(1)),
	}
}

// unsettled reports whether stored value x lies inside w's band or is
// NaN. Outside the band exactly one of the two comparisons holds; the
// form has no data-dependent branch.
func (w window) unsettled(x float64) bool { return (x >= w.hi) == (x < w.lo) }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// settled reports whether a stored value x, placed in bin b of the
// ascending thresholds of wins (wins[b-1].t <= x < wins[b].t), is
// outside both neighbouring bands, so that the exact value lands in the
// same bin.
func settled(wins []window, b int, x float64) bool {
	return (b == 0 || x >= wins[b-1].hi) && (b == len(wins) || x < wins[b].lo)
}

// Close returns the handle's buffers to the pools and its counts to the
// chip's Metrics. The ReadOp (and any slice previously returned by its
// queries into pooled buffers) must not be used afterwards. Close is
// safe to call twice.
func (op *ReadOp) Close() {
	if op.c == nil {
		return
	}
	op.c.obs.record(op.refined, op.fallback)
	vthPool.put(op.vth)
	op.c, op.vth, op.states, op.zq, op.faults = nil, nil, nil, nil, nil
	readOpPool.Put(op)
}

// Cells returns the number of cells covered by the read.
func (op *ReadOp) Cells() int { return len(op.vth) }

// ensureBitmap returns dst resliced for n bits when its capacity
// suffices, or a fresh bitmap otherwise. The caller is expected to
// overwrite every word.
func ensureBitmap(dst Bitmap, n int) Bitmap {
	words := (n + 63) / 64
	if cap(dst) >= words {
		return dst[:words]
	}
	return NewBitmap(n)
}

// Sense applies the single read voltage v (1-based) at the given offset
// and returns a bitmap with bit i set when cell i's Vth is at or above
// the voltage. The caller owns the result.
func (op *ReadOp) Sense(v int, offset float64) Bitmap {
	return op.SenseInto(nil, v, offset)
}

// SenseInto is Sense writing into dst (reused when large enough).
func (op *ReadOp) SenseInto(dst Bitmap, v int, offset float64) Bitmap {
	win := op.window(op.c.model.DefaultReadVoltage(v) + offset)
	n := len(op.vth)
	dst = ensureBitmap(dst, n)
	i := 0
	for wi := range dst {
		lim := i + 64
		if lim > n {
			lim = n
		}
		var w uint64
		for ; i < lim; i++ {
			x := op.vth[i]
			if win.unsettled(x) {
				x = op.refine(i)
			}
			w |= b2u(x >= win.t) << (uint(i) & 63)
		}
		dst[wi] = w
	}
	return dst
}

// ReadPage senses page p with the given offsets and returns the readout
// as a bitmap (bit i = cell i's page bit). The caller owns the result.
func (op *ReadOp) ReadPage(p int, o Offsets) Bitmap {
	return op.ReadPageInto(nil, p, o)
}

// ReadPageInto is ReadPage writing into dst (reused when large enough).
func (op *ReadOp) ReadPageInto(dst Bitmap, p int, o Offsets) Bitmap {
	coding := op.c.coding
	pv := coding.PageVoltages(p)
	var winsArr [8]window
	wins := winsArr[:0]
	if len(pv) > len(winsArr) {
		wins = make([]window, 0, len(pv))
	}
	for _, v := range pv {
		wins = append(wins, op.window(op.c.voltage(v, o)))
	}
	start := uint64(coding.ReadBit(p, 0))
	n := len(op.vth)
	dst = ensureBitmap(dst, n)
	i := 0
	for wi := range dst {
		lim := i + 64
		if lim > n {
			lim = n
		}
		var w uint64
		for ; i < lim; i++ {
			// below counts the leading voltages at or under Vth (voltages
			// ascend; once one is above Vth, all are): run drops to 0 at
			// the first voltage above and stays there.
			x := op.vth[i]
			below, run := uint64(0), uint64(1)
			for _, win := range wins {
				if win.unsettled(x) {
					x = op.refine(i)
				}
				run &= b2u(x >= win.t)
				below += run
			}
			w |= (start ^ below&1) << (uint(i) & 63)
		}
		dst[wi] = w
	}
	return dst
}

// VoltageErrors counts the up and down errors read voltage v (1-based)
// introduces at the given offset: up errors are cells programmed below
// the boundary (state <= v-1) but sensed above it; down errors the
// converse.
func (op *ReadOp) VoltageErrors(v int, offset float64) (up, down int) {
	win := op.window(op.c.model.DefaultReadVoltage(v) + offset)
	for i, vth := range op.vth {
		if win.unsettled(vth) {
			vth = op.refine(i)
		}
		trueBelow := int(op.states[i]) <= v-1
		readBelow := vth < win.t
		if trueBelow && !readBelow {
			up++
		} else if !trueBelow && readBelow {
			down++
		}
	}
	return up, down
}

// CountPageErrors reads page p with offsets o and counts bit errors
// against the programmed data, using only pooled scratch.
func (op *ReadOp) CountPageErrors(p int, o Offsets) int {
	n := len(op.vth)
	read := op.ReadPageInto(GetBitmap(n), p, o)
	truth := op.c.TrueBitsInto(GetBitmap(n), op.b, op.wl, p)
	errs := read.XorCount(truth)
	PutBitmap(truth)
	PutBitmap(read)
	return errs
}
