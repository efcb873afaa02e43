// Package retry implements the read path of the flash controller: issue a
// page read, check ECC, and — on failure — choose the next voltage
// offsets. Three interchangeable policies cover the paper's comparisons:
//
//   - DefaultTable: the "current flash" baseline that walks a vendor-style
//     static retry table;
//   - Tracking: the HPCA'15-style baseline that periodically records one
//     wordline's optimal voltages per block and applies them block-wide;
//   - Sentinel: the paper's contribution — inference from sentinel-cell
//     errors, then state-change calibration.
//
// The controller accounts latency with an SSDSim-style model where sensing
// cost is proportional to the number of applied read voltages, so an extra
// sentinel (LSB) read is far cheaper than a full MSB retry, exactly as the
// paper argues in Section III-B2.
package retry

import "fmt"

// LatencyModel holds the timing parameters in microseconds.
type LatencyModel struct {
	// SenseBase is the fixed array-access cost of any read operation.
	SenseBase float64
	// SensePerLevel is the additional cost per applied read voltage.
	SensePerLevel float64
	// Transfer is the page transfer time to the controller.
	Transfer float64
	// ECCDecode is the decode time per page.
	ECCDecode float64
	// MapLookup is the controller-side cost of resolving a logical page
	// against the mapping table without touching flash. It is the full
	// service time of a read that hits a never-written LPN (the device
	// returns zeros straight from the FTL), so it involves no die or
	// channel occupancy.
	MapLookup float64
}

// DefaultLatency mirrors 3D TLC/QLC datasheet-class timings: an LSB read
// ~60us, an MSB read ~130us (TLC) / ~160us (QLC).
func DefaultLatency() LatencyModel {
	return LatencyModel{
		SenseBase:     25,
		SensePerLevel: 12,
		Transfer:      20,
		ECCDecode:     8,
		MapLookup:     5,
	}
}

// Validate reports parameter errors.
func (l LatencyModel) Validate() error {
	if l.SenseBase <= 0 || l.SensePerLevel < 0 || l.Transfer < 0 || l.ECCDecode < 0 ||
		l.MapLookup < 0 {
		return fmt.Errorf("retry: invalid latency model %+v", l)
	}
	return nil
}

// PageRead returns the latency of one full page read attempt that applies
// nLevels read voltages, including transfer and decode.
func (l LatencyModel) PageRead(nLevels int) float64 {
	return l.SenseBase + float64(nLevels)*l.SensePerLevel + l.Transfer + l.ECCDecode
}

// StepLatency returns the latency attributed to one read attempt under
// either step model. overlap=false is the classic serial model and
// equals PageRead exactly — every attempt pays sense, transfer and
// decode back to back. overlap=true is the AR²/PR²-style pipelined
// model: the attempt's sensing was launched while the previous
// attempt's ECC decode was still running, so min(decode, sense) of the
// step is hidden behind the predecessor.
func (l LatencyModel) StepLatency(nLevels int, overlap bool) float64 {
	serial := l.PageRead(nLevels)
	if !overlap {
		return serial
	}
	hidden := l.ECCDecode
	if sense := l.SenseBase + float64(nLevels)*l.SensePerLevel; sense < hidden {
		hidden = sense
	}
	return serial - hidden
}

// AuxSense returns the latency of a one-voltage auxiliary read (the
// sentinel-voltage LSB read used for inference and calibration); the data
// is transferred but not ECC-decoded.
func (l LatencyModel) AuxSense() float64 {
	return l.SenseBase + l.SensePerLevel + l.Transfer
}
