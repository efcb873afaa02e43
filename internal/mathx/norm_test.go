package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormInvKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.8413447460685429, 1},    // Phi(1)
		{0.15865525393145707, -1},  // Phi(-1)
		{0.9772498680518208, 2},    // Phi(2)
		{0.022750131948179212, -2}, // Phi(-2)
		{0.9986501019683699, 3},
		{0.0013498980316301035, -3},
	}
	for _, c := range cases {
		got := NormInv(c.p)
		if math.Abs(got-c.want) > 1e-8 {
			t.Errorf("NormInv(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormInvEdgeCases(t *testing.T) {
	if !math.IsInf(NormInv(0), -1) {
		t.Error("NormInv(0) should be -Inf")
	}
	if !math.IsInf(NormInv(1), 1) {
		t.Error("NormInv(1) should be +Inf")
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if !math.IsNaN(NormInv(p)) {
			t.Errorf("NormInv(%v) should be NaN", p)
		}
	}
}

func TestNormInvRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		// p in (1e-9, 1-1e-9) to avoid extreme tails.
		p := 1e-9 + float64(raw)/float64(math.MaxUint32)*(1-2e-9)
		x := NormInv(p)
		back := NormCDF(x)
		return math.Abs(back-p) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNormCDFSymmetry(t *testing.T) {
	f := func(raw int16) bool {
		x := float64(raw) / 4096
		return math.Abs(NormCDF(x)+NormCDF(-x)-1) < 1e-14
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormPDFPeakAndSymmetry(t *testing.T) {
	if math.Abs(NormPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-15 {
		t.Error("NormPDF(0) wrong")
	}
	if NormPDF(1.3) != NormPDF(-1.3) {
		t.Error("NormPDF not symmetric")
	}
}

func TestGaussFromHashMoments(t *testing.T) {
	const n = 300000
	var sum, sumSq float64
	for i := uint64(0); i < n; i++ {
		v := GaussFromHash(Hash64(i))
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("GaussFromHash produced non-finite %v at %d", v, i)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("hash-gaussian mean %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("hash-gaussian variance %v", variance)
	}
}

func TestUniformFromHashRange(t *testing.T) {
	for i := uint64(0); i < 100000; i++ {
		u := UniformFromHash(Hash64(i * 977))
		if u < 0 || u >= 1 {
			t.Fatalf("UniformFromHash out of range: %v", u)
		}
	}
}

// gaussFirstErr is |GaussFromHashFirst(h) - GaussFromHash(h)|, checked
// for finiteness and against GaussMaxAbs along the way.
func gaussFirstErr(t testing.TB, h uint64) float64 {
	exact, first := GaussFromHash(h), GaussFromHashFirst(h)
	if h>>11 == 1<<53-1 { // the uniform rounds to 1
		if !math.IsInf(exact, 1) || !math.IsNaN(first) {
			t.Fatalf("top uniform: exact %v, first %v; want +Inf, NaN", exact, first)
		}
		return 0
	}
	if math.IsNaN(first) || math.Abs(exact) > GaussMaxAbs || math.Abs(first) > GaussMaxAbs {
		t.Fatalf("h=%#x: exact %v, first %v outside ±GaussMaxAbs", h, exact, first)
	}
	return math.Abs(first - exact)
}

// TestGaussFirstBound holds the first stage to GaussFirstMaxErr where
// the rational approximation is worst: exhaustively over the 2^20 most
// extreme hashed uniforms at each tail, then over a geometric sweep of
// the full range on both sides (which crosses the central/tail seam).
func TestGaussFirstBound(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive tail sweep")
	}
	const tail = 1 << 20
	var worst float64
	check := func(k uint64) { // k = h>>11, the 53-bit uniform index
		for _, h := range []uint64{k << 11, (1<<53 - 1 - k) << 11} {
			if e := gaussFirstErr(t, h); e > worst {
				worst = e
			}
		}
	}
	for k := uint64(0); k < tail; k++ {
		check(k)
	}
	for x := float64(tail); x < 1<<53; x *= 1.0001 {
		check(uint64(x))
	}
	if worst > GaussFirstMaxErr {
		t.Fatalf("first-stage error %v exceeds GaussFirstMaxErr %v", worst, GaussFirstMaxErr)
	}
	t.Logf("worst first-stage error %.3g", worst)
}

// FuzzGaussFirstBound holds the first stage to GaussFirstMaxErr on
// arbitrary hashes.
func FuzzGaussFirstBound(f *testing.F) {
	for _, h := range []uint64{0, 1 << 11, 1 << 63, ^uint64(0), 0x9e3779b97f4a7c15} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h uint64) {
		if e := gaussFirstErr(t, h); e > GaussFirstMaxErr {
			t.Fatalf("h=%#x: first-stage error %v exceeds %v", h, e, GaussFirstMaxErr)
		}
	})
}
