package physics

import (
	"math"
	"testing"
)

// The batched kernels must be bit-identical to their scalar counterparts:
// the read stack's byte-identity guarantee rests on it.

func fillTestModel(t *testing.T, kind func() Params, seed uint64) *Model {
	t.Helper()
	m, err := NewModel(kind(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNoiseStreamMatchesReadNoise(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xdeadbeef} {
		m := fillTestModel(t, TLC, seed)
		for _, readSeed := range []uint64{0, 42, 1 << 60} {
			ns := m.Noise(readSeed)
			for cell := 0; cell < 257; cell++ {
				want := m.ReadNoise(readSeed, cell)
				if got := ns.At(cell); got != want {
					t.Fatalf("seed %d readSeed %d cell %d: NoiseStream %v != ReadNoise %v",
						seed, readSeed, cell, got, want)
				}
				if d := math.Abs(ns.AtFirst(cell) - want); d > ns.FirstMaxErr() {
					t.Fatalf("seed %d readSeed %d cell %d: AtFirst off by %v > %v",
						seed, readSeed, cell, d, ns.FirstMaxErr())
				}
			}
		}
	}
	// Zero-sigma models short-circuit in both paths.
	p := QLC()
	p.ReadNoiseSigma = 0
	m, err := NewModel(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ns := m.Noise(9); ns.At(5) != 0 || ns.AtFirst(5) != 0 || ns.FirstMaxErr() != 0 {
		t.Fatalf("zero-sigma NoiseStream: At %v, AtFirst %v, FirstMaxErr %v; want 0",
			ns.At(5), ns.AtFirst(5), ns.FirstMaxErr())
	}
}

// TestZStreamMatchesCellZ: the hoisted stream reproduces CellZ exactly,
// and its first stage stays within ZFirstMaxErr of it.
func TestZStreamMatchesCellZ(t *testing.T) {
	for _, mk := range []func() Params{TLC, QLC} {
		m := fillTestModel(t, mk, 11)
		for _, g := range []uint64{0, 5, 999} {
			for _, epoch := range []uint64{1, 2} {
				zs := m.CellZStream(g, epoch)
				for i := 0; i < 301; i++ {
					want := m.CellZ(g, i, epoch)
					if got := zs.At(i); got != want {
						t.Fatalf("wl %d epoch %d cell %d: ZStream.At %v != CellZ %v",
							g, epoch, i, got, want)
					}
					if d := math.Abs(zs.AtFirst(i) - want); d > m.ZFirstMaxErr() {
						t.Fatalf("wl %d epoch %d cell %d: AtFirst off by %v > %v",
							g, epoch, i, d, m.ZFirstMaxErr())
					}
				}
			}
		}
	}
}

// TestFillCellZQWithinBound: every quantized first-stage offset decodes
// to within ZQuantMaxErr of the float32 offset the exact read uses, and the
// default models quantize at 2^-10.
func TestFillCellZQWithinBound(t *testing.T) {
	for _, mk := range []func() Params{TLC, QLC} {
		m := fillTestModel(t, mk, 13)
		if q := m.ZQuantum(); q != 0x1p-10 {
			t.Fatalf("ZQuantum %v, want 2^-10", q)
		}
		if m.ZMaxAbs()/m.ZQuantum() > math.MaxInt16 {
			t.Fatalf("ZMaxAbs %v overflows int16 at quantum %v", m.ZMaxAbs(), m.ZQuantum())
		}
		dst := make([]int16, 20000)
		var worst float64
		for _, g := range []uint64{3, 77} {
			m.FillCellZQ(g, 4, dst)
			for i, q := range dst {
				if q == ZQuantNaN {
					t.Fatalf("cell %d: finite offset stored as ZQuantNaN", i)
				}
				want := float64(float32(m.CellZ(g, i, 4)))
				if d := math.Abs(float64(q)*m.ZQuantum() - want); d > worst {
					worst = d
				}
			}
		}
		if worst > m.ZQuantMaxErr() {
			t.Fatalf("quantized offset off by %v > ZQuantMaxErr %v", worst, m.ZQuantMaxErr())
		}
	}
}
