package flash

import (
	"math"
	"sort"

	"sentinel3d/internal/mathx"
)

// SweepVoltageErrors counts, for every offset in offs (which must be in
// ascending order), the up and down errors that read voltage v would
// produce, all derived from a single read operation (one shared sensing
// noise draw). This is the measurement primitive behind characterization
// sweeps: a real tester likewise re-reads a page across an offset grid.
//
// ups[i] + downs[i] is the error count of boundary v at offs[i].
func (c *Chip) SweepVoltageErrors(b, wl, v int, offs []float64, readSeed uint64) (ups, downs []int) {
	op := c.BeginRead(b, wl, readSeed)
	defer op.Close()
	return op.SweepVoltageErrors(v, offs)
}

// SweepVoltageErrors is the ReadOp form of Chip.SweepVoltageErrors,
// sharing the handle's threshold-voltage vector.
func (op *ReadOp) SweepVoltageErrors(v int, offs []float64) (ups, downs []int) {
	return sweepOne(op, op.c.model.DefaultReadVoltage(v), v, offs)
}

// sweepOne classifies one boundary across an ascending offset grid from
// a read's threshold voltages. It is the per-voltage reference kernel;
// sweepMulti must agree with it bit for bit. A grid holding NaN makes
// the read exact first: its thresholds have no windows.
func sweepOne(op *ReadOp, base float64, v int, offs []float64) (ups, downs []int) {
	if !sort.Float64sAreSorted(offs) {
		panic("flash: sweep offsets must ascend")
	}
	if offsHaveNaN(offs) {
		op.exactAll()
	}
	n := len(offs)
	// Offset k catches exactly the cells at or above its threshold
	// sweepThreshold(offs[k], base); a cell outside the windows of the
	// two thresholds around it keeps its bucket when refined.
	var wins []window
	if op.margin > 0 {
		wins = winPool.get(n)
		defer winPool.put(wins)
		for k, off := range offs {
			wins[k] = op.window(sweepThreshold(off, base))
		}
	}
	ups = make([]int, n)
	downs = make([]int, n)
	// For a cell truly below the boundary (state <= v-1), an up error
	// occurs at offset x iff vth >= base+x, i.e. for all offsets <= rel
	// where rel = vth-base. For a cell truly above, a down error occurs
	// iff x > rel. Bucket cells by ub = #offsets <= rel, then prefix-sum.
	upAt := make([]int, n+1)
	downAt := make([]int, n+1)
	for i, vth := range op.vth {
		ub := offsetsAtMost(offs, vth-base)
		if wins != nil && !settled(wins, ub, vth) {
			ub = offsetsAtMost(offs, op.refine(i)-base)
		}
		if int(op.states[i]) <= v-1 {
			upAt[ub]++
		} else {
			downAt[ub]++
		}
	}
	// ups[i] = # up-cells with ub > i; downs[i] = # down-cells with ub <= i.
	suffix := 0
	for i := n - 1; i >= 0; i-- {
		suffix += upAt[i+1]
		ups[i] = suffix
	}
	prefix := 0
	for i := 0; i < n; i++ {
		prefix += downAt[i]
		downs[i] = prefix
	}
	return ups, downs
}

// SweepAllVoltages classifies every read voltage across the offset grid
// from a single read operation and returns total error counts indexed as
// errs[v-1][i] for voltage v at offs[i].
func (c *Chip) SweepAllVoltages(b, wl int, offs []float64, readSeed uint64) [][]int {
	op := c.BeginRead(b, wl, readSeed)
	defer op.Close()
	return op.SweepAllVoltages(offs)
}

// SweepAllVoltages is the ReadOp form of Chip.SweepAllVoltages. It runs
// the one-pass multi-boundary kernel: one scan of the cells classifies
// every (voltage, offset) pair at once, instead of one scan per voltage.
func (op *ReadOp) SweepAllVoltages(offs []float64) [][]int {
	nv := op.c.coding.NumVoltages()
	out := make([][]int, nv)
	if offsHaveNaN(offs) {
		// The merged-threshold kernel does not model NaN offsets; keep the
		// reference semantics for such (pathological) grids.
		for v := 1; v <= nv; v++ {
			ups, downs := op.SweepVoltageErrors(v, offs)
			row := make([]int, len(offs))
			for i := range row {
				row[i] = ups[i] + downs[i]
			}
			out[v-1] = row
		}
		return out
	}
	var basesArr [16]float64
	var bases []float64
	if nv <= len(basesArr) {
		bases = basesArr[:nv]
	} else {
		bases = make([]float64, nv)
	}
	for v := 1; v <= nv; v++ {
		bases[v-1] = op.c.model.DefaultReadVoltage(v)
	}
	ups, downs := sweepMulti(op, bases, op.c.coding.States(), offs)
	for v := range out {
		row := make([]int, len(offs))
		for i := range row {
			row[i] = ups[v][i] + downs[v][i]
		}
		out[v] = row
	}
	return out
}

// offsetsAtMost returns #offsets <= rel in an ascending grid.
func offsetsAtMost(offs []float64, rel float64) int {
	ub := sort.SearchFloat64s(offs, rel)
	// SearchFloat64s returns the first index with offs[i] >= rel; advance
	// over values equal to rel.
	for ub < len(offs) && offs[ub] <= rel {
		ub++
	}
	return ub
}

func offsHaveNaN(offs []float64) bool {
	for _, o := range offs {
		if math.IsNaN(o) {
			return true
		}
	}
	return false
}

// sweepThreshold returns the smallest threshold voltage y at which offset
// off catches a cell: the minimal y with off <= fl(y-base), the exact
// floating-point predicate sweepOne evaluates. Because fl(y-base) is
// monotone in y the minimum is well defined; it sits within a couple of
// ulps of fl(base+off), found by Nextafter walking.
func sweepThreshold(off, base float64) float64 {
	y := base + off
	for {
		down := math.Nextafter(y, math.Inf(-1))
		if down == y || !(off <= down-base) {
			break
		}
		y = down
	}
	for !(off <= y-base) {
		up := math.Nextafter(y, math.Inf(1))
		if up == y {
			break
		}
		y = up
	}
	return y
}

// sweepMulti is the one-pass multi-boundary sweep: it buckets every cell
// of a read across the full (voltage, offset) grid in a single scan and
// returns, per voltage (0-based index v = voltage-1), the same ups/downs
// vectors sweepOne would produce for voltage v+1 — bit-identical, for
// NaN-free ascending offs and states < nstates.
//
// Method: each (voltage v, offset k) pair owns the exact threshold
// T[v][k] = sweepThreshold(offs[k], bases[v]); cell i satisfies pair
// (v, k) iff vth[i] >= T[v][k]. All nv*len(offs) thresholds are merged
// into one sorted grid, each cell is placed in the grid with a single
// upper-bound search, counts are histogrammed by (state, grid bin), and
// a two-pointer pass per voltage converts grid bins back into per-voltage
// offset counts. The final prefix/suffix sums match sweepOne exactly. A
// cell is placed by its stored value and refined only when that value
// lies in the window of merged[bin-1] or merged[bin], the thresholds
// around its bin.
func sweepMulti(op *ReadOp, bases []float64, nstates int, offs []float64) (ups, downs [][]int) {
	if !sort.Float64sAreSorted(offs) {
		panic("flash: sweep offsets must ascend")
	}
	nv, no := len(bases), len(offs)
	m := nv * no
	thr := vthPool.get(m)
	for v, base := range bases {
		tv := thr[v*no : (v+1)*no]
		for k, off := range offs {
			tv[k] = sweepThreshold(off, base)
		}
	}
	merged := vthPool.get(m)
	copy(merged, thr)
	sort.Float64s(merged)
	var wins []window
	if op.margin > 0 {
		wins = winPool.get(m)
		for b, t := range merged {
			wins[b] = op.window(t)
		}
	}
	// mapv[v*(m+1)+b] = #{k : T[v][k] <= merged[b-1]} — how many of
	// voltage v's offsets a cell in grid bin b satisfies. Since every
	// T[v][k] is itself a merged value, T[v][k] <= vth iff
	// T[v][k] <= merged[bin(vth)-1].
	mapv := intPool.get(nv * (m + 1))
	for v := range bases {
		tv := thr[v*no : (v+1)*no]
		row := mapv[v*(m+1) : (v+1)*(m+1)]
		row[0] = 0
		j := 0
		for b := 1; b <= m; b++ {
			x := merged[b-1]
			for j < no && tv[j] <= x {
				j++
			}
			row[b] = j
		}
	}
	// One scan over the cells: bin by upper bound in the merged grid,
	// histogram by programmed state. A NaN vth lands past every threshold
	// (bin m), matching the reference path's SearchFloat64s semantics.
	//
	// The placement uses a bucketed index over [merged[0], merged[m-1]]:
	// bucketing x -> min(int((x-lo)*scale), nb-1) is monotone in x, so a
	// cell's upper bound lies inside its own bucket's contiguous run of
	// merged entries (everything in lower buckets is < vth, everything in
	// higher buckets is > vth), and the short in-bucket scan computes the
	// exact same bound the binary search would. Degenerate grids (zero or
	// non-finite span) fall back to the binary search.
	hist := intPool.get(nstates * (m + 1))
	clear(hist)
	var lo, hi, span float64
	if m > 0 {
		lo, hi = merged[0], merged[m-1]
		span = hi - lo
	}
	if span > 0 && !math.IsInf(span, 0) {
		nb := 4 * m
		scale := float64(nb) / span
		start := intPool.get(nb + 1)
		clear(start)
		for _, x := range merged {
			bkt := int((x - lo) * scale)
			if bkt > nb-1 {
				bkt = nb - 1
			}
			start[bkt+1]++
		}
		// Prefix-sum the counts: start[k] = first merged index whose
		// bucket is >= k; bucket k's run is merged[start[k]:start[k+1]].
		for k := 1; k <= nb; k++ {
			start[k] += start[k-1]
		}
		for i, vth := range op.vth {
			bin := m
			switch {
			case vth != vth: // NaN: past every threshold
			case vth < lo:
				bin = 0
			case vth >= hi: // every entry <= vth
			default:
				k := int((vth - lo) * scale)
				if k > nb-1 {
					k = nb - 1
				}
				j := start[k]
				for e := start[k+1]; j < e && merged[j] <= vth; j++ {
				}
				bin = j
			}
			if wins != nil && !settled(wins, bin, vth) {
				bin = mergedBin(merged, op.refine(i))
			}
			hist[int(op.states[i])*(m+1)+bin]++
		}
		intPool.put(start)
	} else {
		for i, vth := range op.vth {
			bin := mergedBin(merged, vth)
			if wins != nil && !settled(wins, bin, vth) {
				bin = mergedBin(merged, op.refine(i))
			}
			hist[int(op.states[i])*(m+1)+bin]++
		}
	}
	if wins != nil {
		winPool.put(wins)
	}
	// Aggregate: for each voltage, fold the (state, bin) histogram into
	// the upAt/downAt buckets sweepOne builds, then prefix/suffix-sum
	// identically.
	upAt := intPool.get(no + 1)
	downAt := intPool.get(no + 1)
	ups = make([][]int, nv)
	downs = make([][]int, nv)
	for v := range bases {
		clear(upAt)
		clear(downAt)
		row := mapv[v*(m+1) : (v+1)*(m+1)]
		for s := 0; s < nstates; s++ {
			h := hist[s*(m+1) : (s+1)*(m+1)]
			dest := downAt
			if s <= v { // states at or below boundary v+1 err upward
				dest = upAt
			}
			for b, cnt := range h {
				if cnt != 0 {
					dest[row[b]] += cnt
				}
			}
		}
		u := make([]int, no)
		d := make([]int, no)
		suffix := 0
		for i := no - 1; i >= 0; i-- {
			suffix += upAt[i+1]
			u[i] = suffix
		}
		prefix := 0
		for i := 0; i < no; i++ {
			prefix += downAt[i]
			d[i] = prefix
		}
		ups[v] = u
		downs[v] = d
	}
	intPool.put(downAt)
	intPool.put(upAt)
	intPool.put(hist)
	intPool.put(mapv)
	vthPool.put(merged)
	vthPool.put(thr)
	return ups, downs
}

// mergedBin is a cell's bin in the merged threshold grid: #{merged <=
// vth}, with NaN past every threshold.
func mergedBin(merged []float64, vth float64) int {
	if vth != vth {
		return len(merged)
	}
	return mathx.UpperBound(merged, vth)
}
