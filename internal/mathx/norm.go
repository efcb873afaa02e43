package mathx

import "math"

// NormInv returns the inverse of the standard normal cumulative
// distribution function evaluated at p in (0, 1), using Acklam's rational
// approximation refined with one Halley step. Absolute error is below
// 1e-9 over the full domain, far tighter than the chip model needs.
//
// NormInv(0) is -Inf and NormInv(1) is +Inf; p outside [0, 1] yields NaN.
func NormInv(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}
	x := normInvFirst(p)

	// One Halley refinement step against the true CDF.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// Coefficients of Acklam's central (a, b) and tail (c, d) rational
// approximations. Constants, not local arrays: an array literal would be
// rebuilt on every call.
const (
	acklamA0, acklamA1, acklamA2 = -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02
	acklamA3, acklamA4, acklamA5 = 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00
	acklamB0, acklamB1, acklamB2 = -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02
	acklamB3, acklamB4           = 6.680131188771972e+01, -1.328068155288572e+01
	acklamC0, acklamC1, acklamC2 = -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00
	acklamC3, acklamC4, acklamC5 = -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00
	acklamD0, acklamD1, acklamD2 = 7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00
	acklamD3                     = 3.754408661907416e+00
)

// normInvFirst is the unrefined first stage of NormInv for p in (0, 1):
// Acklam's rational approximation alone, relative error ~1.15e-9.
func normInvFirst(p float64) float64 {
	const pLow = 0.02425
	switch {
	case p < pLow:
		return acklamTail(math.Sqrt(-2 * math.Log(p)))
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((acklamA0*r+acklamA1)*r+acklamA2)*r+acklamA3)*r+acklamA4)*r + acklamA5) * q /
			(((((acklamB0*r+acklamB1)*r+acklamB2)*r+acklamB3)*r+acklamB4)*r + 1)
	default:
		return -acklamTail(math.Sqrt(-2 * math.Log(1-p)))
	}
}

// acklamTail is the lower-tail rational approximation at q = sqrt(-2 ln p).
func acklamTail(q float64) float64 {
	return (((((acklamC0*q+acklamC1)*q+acklamC2)*q+acklamC3)*q+acklamC4)*q + acklamC5) /
		((((acklamD0*q+acklamD1)*q+acklamD2)*q+acklamD3)*q + 1)
}

// NormCDF returns the standard normal cumulative distribution function at
// x, computed via the complementary error function for accuracy in the
// tails.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// GaussFromHash converts a 64-bit hash value into a standard normal
// variate by pushing a uniform derived from the hash through NormInv.
// The uniform is clamped away from {0, 1}, so the result is finite for
// every h but the top uniform index (see GaussFirstMaxErr).
func GaussFromHash(h uint64) float64 {
	return NormInv(hashUniformOpen(h))
}

// GaussFirstMaxErr bounds |GaussFromHashFirst(h) - GaussFromHash(h)|
// (the measured maximum is ~8.4e-9, at the far tails), and GaussMaxAbs
// bounds both variates' magnitude. Both hold for every h except the top
// uniform index h>>11 = 2^53-1, whose uniform rounds to 1: there
// GaussFromHash is +Inf and GaussFromHashFirst is NaN, which no bound
// can decide, so a two-stage caller falls through to the exact value.
const (
	GaussFirstMaxErr = 1e-7
	GaussMaxAbs      = 8.3
)

// GaussFromHashFirst is the first stage of GaussFromHash: the same
// uniform through the unrefined rational approximation, skipping the
// Halley step (and its Erfc and Exp). It is within GaussFirstMaxErr of
// GaussFromHash(h) and costs a fraction of it, so callers that only
// compare the variate against thresholds can decide most comparisons
// from it and pay for the exact value only near a threshold.
func GaussFromHashFirst(h uint64) float64 {
	return normInvFirst(hashUniformOpen(h))
}

// hashUniformOpen maps a hash to a uniform in (0, 1], at least 2^-54
// above 0; only h>>11 = 2^53-1 rounds up to 1.
func hashUniformOpen(h uint64) float64 {
	return (float64(h>>11) + 0.5) * (1.0 / (1 << 53))
}

// UniformFromHash converts a 64-bit hash value into a uniform in [0, 1).
func UniformFromHash(h uint64) float64 {
	return float64(h>>11) * (1.0 / (1 << 53))
}
