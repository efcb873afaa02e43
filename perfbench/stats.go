package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"sentinel3d/internal/mathx"
)

// latChunk is the number of consecutive operations one latency
// quantile is taken over.
const latChunk = 1000

// chunkedQuantile is the median, over consecutive latChunk-sample chunks
// of lat (in operation order), of each chunk's q-quantile, so that a
// stall of the host moves the chunks it lands in rather than the
// reported figure. With fewer than three chunks it is the q-quantile of
// the whole sample.
func chunkedQuantile(lat []float64, q float64) float64 {
	if len(lat) < 3*latChunk {
		return mathx.Percentile(lat, 100*q)
	}
	var qs []float64
	for lo := 0; lo+latChunk <= len(lat); lo += latChunk {
		qs = append(qs, mathx.Percentile(lat[lo:lo+latChunk], 100*q))
	}
	return mathx.Median(qs)
}

// peakMemMB is the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's total mapped memory where /proc is missing.
func peakMemMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// digester hashes simulated outputs in a fixed order.
type digester struct{ buf []byte }

func (d *digester) u64(v uint64)  { d.buf = binary.LittleEndian.AppendUint64(d.buf, v) }
func (d *digester) int(v int)     { d.u64(uint64(int64(v))) }
func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digester) str(s string)  { d.int(len(s)); d.buf = append(d.buf, s...) }
func (d *digester) ints(v ...int) {
	for _, x := range v {
		d.int(x)
	}
}

func (d *digester) bool(b bool) {
	if b {
		d.int(1)
	} else {
		d.int(0)
	}
}

// sum is the digest: the first 96 bits of the SHA-256 of the stream.
func (d *digester) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:12])
}
