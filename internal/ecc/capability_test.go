package ecc

import (
	"testing"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
)

func TestCapabilityValidate(t *testing.T) {
	if err := DefaultCapability().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := CapabilityModel{FrameBits: 0, T: 10}
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero frame bits")
	}
	bad = CapabilityModel{FrameBits: 100, T: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted negative T")
	}
}

func TestFrames(t *testing.T) {
	// DecodePage splits 250 user bits into frames [0,100), [100,200) and
	// the short [200,250): two errors decode only when they fall in
	// different frames, and bits past userBits are never counted.
	m := CapabilityModel{FrameBits: 100, T: 1}
	cases := []struct {
		errs []int
		want bool
	}{
		{[]int{99, 100}, true},
		{[]int{100, 199}, false},
		{[]int{199, 200}, true},
		{[]int{200, 249}, false},
		{[]int{249, 250, 251}, true},
	}
	for _, c := range cases {
		errs := flash.NewBitmap(256)
		for _, i := range c.errs {
			errs.Set(i, true)
		}
		if got := m.DecodePage(errs, 250); got != c.want {
			t.Errorf("errors at %v: DecodePage = %v, want %v", c.errs, got, c.want)
		}
	}
}

func TestDecodePageThreshold(t *testing.T) {
	m := CapabilityModel{FrameBits: 128, T: 3}
	errs := flash.NewBitmap(256)
	// 3 errors in frame 0: decodes.
	for _, i := range []int{0, 64, 127} {
		errs.Set(i, true)
	}
	if !m.DecodePage(errs, 256) {
		t.Fatal("page with T errors per frame should decode")
	}
	// A 4th error in frame 0 breaks it.
	errs.Set(100, true)
	if m.DecodePage(errs, 256) {
		t.Fatal("frame over capability decoded")
	}
	// Errors spread over both frames decode again.
	errs.Set(100, false)
	errs.Set(200, true)
	errs.Set(201, true)
	errs.Set(202, true)
	if !m.DecodePage(errs, 256) {
		t.Fatal("spread errors should decode")
	}
	errs.Set(203, true)
	if m.DecodePage(errs, 256) {
		t.Fatal("frame 1 over capability decoded")
	}
}

func TestDecodePagePartialLastFrame(t *testing.T) {
	m := CapabilityModel{FrameBits: 128, T: 1}
	errs := flash.NewBitmap(192) // frames: [0,128), [128,192)
	errs.Set(130, true)
	if !m.DecodePage(errs, 192) {
		t.Fatal("one error in short frame should decode")
	}
	errs.Set(131, true)
	if m.DecodePage(errs, 192) {
		t.Fatal("two errors in short frame decoded with T=1")
	}
}

func TestWorstFrameErrors(t *testing.T) {
	// Frames holding 1, 3 and 1 errors: the page decodes exactly when
	// the worst frame's 3 errors are within capability.
	errs := flash.NewBitmap(192)
	for _, i := range []int{0, 65, 66, 67, 128} {
		errs.Set(i, true)
	}
	if !(CapabilityModel{FrameBits: 64, T: 3}).DecodePage(errs, 192) {
		t.Fatal("worst frame at capability did not decode")
	}
	if (CapabilityModel{FrameBits: 64, T: 2}).DecodePage(errs, 192) {
		t.Fatal("worst frame over capability decoded")
	}
}

func TestCountRangeMatchesNaive(t *testing.T) {
	// Property: the word-accelerated range count equals bit-by-bit count
	// for arbitrary ranges.
	m := CapabilityModel{FrameBits: 7, T: 2} // odd frame size forces
	// unaligned ranges through DecodePage
	r := mathx.NewRand(5)
	for trial := 0; trial < 50; trial++ {
		n := 64 + r.Intn(400)
		errs := flash.NewBitmap(n)
		for i := 0; i < n; i++ {
			errs.Set(i, r.Float64() < 0.3)
		}
		start := r.Intn(n)
		end := start + r.Intn(n-start)
		want := 0
		for i := start; i < end; i++ {
			if errs.Get(i) {
				want++
			}
		}
		if got := m.countRange(errs, start, end); got != want {
			t.Fatalf("countRange(%d,%d) = %d, want %d", start, end, got, want)
		}
	}
}
