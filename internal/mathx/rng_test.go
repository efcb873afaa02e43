package mathx

import (
	"math"
	"testing"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the SplitMix64 reference
	// implementation.
	sm := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4,
		0x06c45d188009454f, 0xf88bb8a8724c81ec,
	}
	for i, w := range want {
		if g := sm.Next(); g != w {
			t.Fatalf("SplitMix64(0) output %d = %#x, want %#x", i, g, w)
		}
	}
}

func TestHash64Deterministic(t *testing.T) {
	if Hash64(42) != Hash64(42) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(42) == Hash64(43) {
		t.Fatal("Hash64(42) == Hash64(43): suspicious collision")
	}
}

func TestMixOrderMatters(t *testing.T) {
	if Mix(1, 2) == Mix(2, 1) {
		t.Fatal("Mix should not be commutative")
	}
	if Mix3(1, 2, 3) == Mix3(3, 2, 1) {
		t.Fatal("Mix3 should not be symmetric")
	}
	if Mix4(1, 2, 3, 4) == Mix4(4, 3, 2, 1) {
		t.Fatal("Mix4 should not be symmetric")
	}
}

func TestRandReproducible(t *testing.T) {
	a, b := NewRand(123), NewRand(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
	c := NewRand(124)
	same := 0
	a = NewRand(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 1000", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRand(99)
	const n = 200000
	var mean float64
	bins := make([]int, 10)
	for i := 0; i < n; i++ {
		v := r.Float64()
		mean += v
		bins[int(v*10)]++
	}
	mean /= n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
	for i, c := range bins {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("bin %d fraction %v, want ~0.1", i, frac)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(2024)
	const n = 400000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d of 7 values in 10k draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}
