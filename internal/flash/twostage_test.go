package flash

import (
	"math"
	"sort"
	"testing"
	"unsafe"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/physics"
)

// refVthAll is the exact full-vector read the two-stage kernel replaced,
// kept as the reference its queries must reproduce bit for bit: every
// cell's threshold voltage from the exact program offset (at float32 on
// CacheZ chips, as their offset cache always held it) and the exact
// noise draw, through the scalar physics paths, then the fault model.
func refVthAll(c *Chip, b, wl int, readSeed uint64) []float64 {
	w := &c.blocks[b].wls[wl]
	n := c.cfg.CellsPerWordline
	g := c.globalWL(b, wl)
	env := c.model.Env(c.LayerOf(wl), g, c.blocks[b].stress)
	out := make([]float64, n)
	for i := range out {
		s := int(w.states[i])
		if !c.cfg.CacheZ {
			out[i] = c.model.CellVth(env, g, i, n, s, w.epoch, readSeed)
			continue
		}
		pos := (float64(i)+0.5)/float64(n) - 0.5
		var grad float64
		if s > 0 {
			grad = env.Gradient * pos
		}
		z := float32(c.model.CellZ(g, i, w.epoch))
		out[i] = env.Mean[s] + grad + env.Sigma[s]*float64(z) + c.model.ReadNoise(readSeed, i)
	}
	if c.faults != nil {
		c.faults.PerturbVth(b, wl, readSeed, out)
	}
	return out
}

// exactOp wraps a reference vector as an exact (margin 0) ReadOp, so
// the sweep kernels can serve as their own reference.
func exactOp(vths []float64, states []uint8) *ReadOp {
	return &ReadOp{vth: vths, states: states}
}

// testFaults perturbs every read the way fault.Injector can: stuck cells
// far outside the read window, a whole-wordline shift and a noise burst.
// Each shift is independent of the values, so the model is monotone per
// cell as FaultModel requires.
type testFaults struct{ seed uint64 }

func (f testFaults) PerturbVth(b, wl int, readSeed uint64, vth []float64) {
	rng := mathx.NewRand(mathx.Mix4(f.seed, uint64(b), uint64(wl), readSeed))
	shift := (rng.Float64() - 0.5) * 50
	for i := range vth {
		if mathx.Mix(f.seed, uint64(i))%37 == 0 {
			vth[i] += 4096
		}
		vth[i] += shift
		vth[i] += rng.NormFloat64() * 3
	}
}

func (testFaults) ProgramFails(int, int, uint64) bool { return false }
func (testFaults) EraseFails(int, uint64) bool        { return false }

// twoStageChip builds a small programmed, worn chip for one mode: bit 0
// QLC, bit 1 CacheZ, bit 2 faults, bit 3 ReadNoiseSigma = 0. Its reads
// report to the returned metrics.
func twoStageChip(t testing.TB, seed uint64, mode uint8) (*Chip, *Metrics) {
	t.Helper()
	kind := TLC
	if mode&1 != 0 {
		kind = QLC
	}
	cfg := DefaultConfig(kind)
	cfg.Layers, cfg.WordlinesPerLayer, cfg.CellsPerWordline = 2, 1, 300
	cfg.CacheZ = mode&2 != 0
	cfg.Seed = seed
	if mode&8 != 0 {
		p := physics.TLC()
		if kind == QLC {
			p = physics.QLC()
		}
		p.ReadNoiseSigma = 0
		cfg.Params = &p
	}
	c := MustNew(cfg)
	r := mathx.NewRand(seed)
	for wl := 0; wl < cfg.WordlinesPerBlock(); wl++ {
		if err := c.ProgramRandom(0, wl, r); err != nil {
			t.Fatal(err)
		}
	}
	c.Cycle(0, r.Intn(6000))
	c.Age(0, r.Float64()*physics.YearHours, physics.RoomTempC)
	if mode&4 != 0 {
		c.SetFaults(testFaults{seed})
	}
	m := NewMetrics(obs.NewRegistry(1).Set(0))
	c.SetMetrics(m)
	return c, m
}

// twoStageTrial places thresholds exactly at (and one ulp around) cells'
// exact threshold voltages, where the first stage alone cannot decide,
// and checks every query kind against the exact reference vector. Each
// query opens its own ReadOp, so each starts from the first stage.
func twoStageTrial(t *testing.T, seed uint64, mode uint8) {
	c, m := twoStageChip(t, seed, mode)
	r := mathx.NewRand(seed ^ 0x2575)
	wl := r.Intn(c.Config().WordlinesPerBlock())
	readSeed := r.Uint64()
	ref := refVthAll(c, 0, wl, readSeed)
	states := c.States(0, wl)
	nv := c.Coding().NumVoltages()
	// near returns a value within one ulp of the exact threshold voltage
	// of the cell closest to target.
	near := func(target float64) float64 {
		best := ref[0]
		for _, x := range ref {
			if math.Abs(x-target) < math.Abs(best-target) {
				best = x
			}
		}
		return math.Nextafter(best, best+float64(r.Intn(3)-1))
	}
	// cellOffset is an offset putting voltage v at a cell's exact Vth.
	cellOffset := func(v int) float64 {
		base := c.model.DefaultReadVoltage(v)
		return near(base+(r.Float64()-0.5)*80) - base
	}
	read := func(query func(op *ReadOp)) {
		op := c.BeginRead(0, wl, readSeed)
		defer op.Close()
		query(op)
	}
	for q := 0; q < 3; q++ {
		v := 1 + r.Intn(nv)
		off := cellOffset(v)
		rv := c.model.DefaultReadVoltage(v) + off
		read(func(op *ReadOp) {
			if !bitmapsEqual(op.Sense(v, off), refSense(ref, rv)) {
				t.Fatalf("mode %d seed %d: Sense(v=%d, off=%v) differs from exact", mode, seed, v, off)
			}
		})
		read(func(op *ReadOp) {
			gu, gd := op.VoltageErrors(v, off)
			if wu, wd := refVoltageErrors(ref, states, rv, v); gu != wu || gd != wd {
				t.Fatalf("mode %d seed %d: VoltageErrors(v=%d) = (%d,%d), want (%d,%d)", mode, seed, v, gu, gd, wu, wd)
			}
		})
		o := make(Offsets, nv)
		for v := 1; v <= nv; v++ {
			o[v-1] = cellOffset(v)
		}
		p := r.Intn(c.Coding().Bits())
		read(func(op *ReadOp) {
			if !bitmapsEqual(op.ReadPage(p, o), refReadPage(c, ref, p, o)) {
				t.Fatalf("mode %d seed %d: ReadPage(p=%d) differs from exact", mode, seed, p)
			}
		})
		offs := []float64{-20, 0, 20}
		for k := 0; k < 6; k++ {
			offs = append(offs, cellOffset(v))
		}
		sort.Float64s(offs)
		base := c.model.DefaultReadVoltage(v)
		read(func(op *ReadOp) {
			gu, gd := op.SweepVoltageErrors(v, offs)
			wu, wd := sweepOne(exactOp(ref, states), base, v, offs)
			for k := range offs {
				if gu[k] != wu[k] || gd[k] != wd[k] {
					t.Fatalf("mode %d seed %d: SweepVoltageErrors(v=%d) offset %v: (%d,%d), want (%d,%d)",
						mode, seed, v, offs[k], gu[k], gd[k], wu[k], wd[k])
				}
			}
		})
		read(func(op *ReadOp) {
			rows := op.SweepAllVoltages(offs)
			for v := 1; v <= nv; v++ {
				wu, wd := sweepOne(exactOp(ref, states), c.model.DefaultReadVoltage(v), v, offs)
				for k := range offs {
					if rows[v-1][k] != wu[k]+wd[k] {
						t.Fatalf("mode %d seed %d: SweepAllVoltages V%d offset %v: %d, want %d",
							mode, seed, v, offs[k], rows[v-1][k], wu[k]+wd[k])
					}
				}
			}
		})
	}
	if mode&4 != 0 {
		if m.ExactFallbacks.Value() == 0 {
			t.Fatalf("mode %d seed %d: no faulted read fell back to exact", mode, seed)
		}
	} else if m.RefinedCells.Value() == 0 {
		t.Fatalf("mode %d seed %d: no cell was refined", mode, seed)
	}
}

// TestTwoStageReadOp runs the forced-refinement trial over every mode:
// TLC and QLC, CacheZ on and off, faults on and off, noise on and off.
func TestTwoStageReadOp(t *testing.T) {
	for mode := uint8(0); mode < 16; mode++ {
		for seed := uint64(1); seed <= 3; seed++ {
			twoStageTrial(t, seed, mode)
		}
	}
}

func FuzzTwoStageReadOp(f *testing.F) {
	for mode := uint8(0); mode < 16; mode++ {
		f.Add(uint64(mode)+1, mode)
	}
	f.Fuzz(func(t *testing.T, seed uint64, mode uint8) {
		twoStageTrial(t, seed, mode%16)
	})
}

// TestTwoStageNonFiniteOffsets: NaN and infinite thresholds, which no
// margin decides, still reproduce the exact comparisons.
func TestTwoStageNonFiniteOffsets(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, mode := range []uint8{0, 2, 4, 6} {
		c, _ := twoStageChip(t, 5, mode|1)
		ref := refVthAll(c, 0, 1, 9)
		states := c.States(0, 1)
		for _, off := range []float64{nan, inf, -inf} {
			op := c.BeginRead(0, 1, 9)
			rv := c.model.DefaultReadVoltage(3) + off
			if !bitmapsEqual(op.Sense(3, off), refSense(ref, rv)) {
				t.Fatalf("mode %d: Sense at offset %v differs from exact", mode, off)
			}
			gu, gd := op.VoltageErrors(3, off)
			if wu, wd := refVoltageErrors(ref, states, rv, 3); gu != wu || gd != wd {
				t.Fatalf("mode %d: VoltageErrors at offset %v = (%d,%d), want (%d,%d)", mode, off, gu, gd, wu, wd)
			}
			op.Close()
		}
		for _, offs := range [][]float64{{-inf, 0, inf}, {nan, -5, 5}} {
			op := c.BeginRead(0, 1, 9)
			rows := op.SweepAllVoltages(offs)
			op.Close()
			for v := range rows {
				wu, wd := sweepOne(exactOp(ref, states), c.model.DefaultReadVoltage(v+1), v+1, offs)
				for k := range offs {
					if rows[v][k] != wu[k]+wd[k] {
						t.Fatalf("mode %d: SweepAllVoltages%v V%d: %d, want %d", mode, offs, v+1, rows[v][k], wu[k]+wd[k])
					}
				}
			}
		}
	}
}

// TestCacheZBytesPerCell: a CacheZ wordline holds one state byte and one
// int16 program offset per cell.
func TestCacheZBytesPerCell(t *testing.T) {
	var w wlState
	if b := unsafe.Sizeof(w.states[0]) + unsafe.Sizeof(w.zq[0]); b > 3 {
		t.Fatalf("CacheZ chip stores %d B/cell, want <= 3", b)
	}
	c := readOpTestChip(t, QLC, true, 256)
	if w := c.blocks[0].wls[0]; len(w.zq) != 256 || len(w.states) != 256 {
		t.Fatalf("programmed wordline holds %d offsets, %d states; want 256 each", len(w.zq), len(w.states))
	}
}
