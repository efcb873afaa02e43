// Package ecc provides the error-correction substrate: a fast
// capability-threshold model used by the read-retry controller, and a real
// LDPC code (irregular repeat-accumulate construction) with a normalized
// min-sum decoder and hard / 2-bit / 3-bit soft sensing inputs, used to
// reproduce the paper's Figure 19.
package ecc

import (
	"fmt"
	"math/bits"

	"sentinel3d/internal/flash"
)

// CapabilityModel represents a hard-decision ECC by its correction
// capability: a frame of FrameBits data bits decodes if and only if it
// holds at most T raw bit errors. This is the standard abstraction for
// retry studies, where only pass/fail matters.
type CapabilityModel struct {
	// FrameBits is the number of data bits protected per ECC frame.
	FrameBits int
	// T is the maximum number of correctable bit errors per frame.
	T int
}

// DefaultCapability mirrors a contemporary LDPC in hard-decision mode on a
// 1KiB frame: ~40 correctable bits per 8192 data bits (RBER ~5e-3).
func DefaultCapability() CapabilityModel {
	return CapabilityModel{FrameBits: 8192, T: 40}
}

// Validate reports parameter errors.
func (m CapabilityModel) Validate() error {
	if m.FrameBits <= 0 || m.T < 0 {
		return fmt.Errorf("ecc: invalid capability model %+v", m)
	}
	return nil
}

// DecodePage reports whether every frame of a page decodes, given the
// per-cell error bitmap of a page read (bit i set = cell i's page bit was
// misread) over the first userBits cells.
func (m CapabilityModel) DecodePage(errs flash.Bitmap, userBits int) bool {
	for start := 0; start < userBits; start += m.FrameBits {
		end := start + m.FrameBits
		if end > userBits {
			end = userBits
		}
		if m.countRange(errs, start, end) > m.T {
			return false
		}
	}
	return true
}

func (m CapabilityModel) countRange(errs flash.Bitmap, start, end int) int {
	n := 0
	// Word-aligned fast path.
	for start < end && start%64 != 0 {
		if errs.Get(start) {
			n++
		}
		start++
	}
	for start+64 <= end {
		n += bits.OnesCount64(errs[start/64])
		start += 64
	}
	for start < end {
		if errs.Get(start) {
			n++
		}
		start++
	}
	return n
}
