package ecc

import (
	"fmt"
	"math"
	"sync"

	"sentinel3d/internal/mathx"
)

// LDPC is a binary LDPC code in the irregular repeat-accumulate (IRA)
// family: the parity-check matrix is H = [H1 | H2], where H1 is a sparse
// random matrix with column weight 3 over the K information bits and H2 is
// the dual-diagonal accumulator over the M parity bits. The structure is
// linear-time encodable and decodes with standard belief propagation;
// rate-8/9-class instances behave like the flash-controller LDPCs the
// paper assumes.
type LDPC struct {
	K int // information bits
	M int // parity bits (checks)
	N int // codeword bits = K + M

	// CSR adjacency: edges grouped by check.
	checkStart []int32 // len M+1
	edgeVar    []int32 // len E: variable index of each edge
	// Per-variable list of edge indices, for the variable update.
	varStart []int32
	varEdge  []int32
	// infoRows[j] lists the 3 check rows of information column j,
	// used by the encoder.
	infoRows [][3]int32
}

// NewLDPC constructs a code with k information bits and m parity bits from
// a deterministic seed. k and m must be positive and m >= 8.
func NewLDPC(k, m int, seed uint64) (*LDPC, error) {
	if k <= 0 || m < 8 {
		return nil, fmt.Errorf("ecc: invalid LDPC dimensions k=%d m=%d", k, m)
	}
	const wc = 3 // column weight of the information part
	c := &LDPC{K: k, M: m, N: k + m}
	rng := mathx.NewRand(seed)

	// Draw wc distinct rows per information column.
	c.infoRows = make([][3]int32, k)
	rowDeg := make([]int32, m)
	for j := 0; j < k; j++ {
		var rows [3]int32
		for i := 0; i < wc; i++ {
		redraw:
			r := int32(rng.Intn(m))
			for t := 0; t < i; t++ {
				if rows[t] == r {
					goto redraw
				}
			}
			rows[i] = r
			rowDeg[r]++
		}
		c.infoRows[j] = rows
	}

	// Build per-check adjacency: info edges + accumulator edges.
	// Check r involves parity bit r and (for r>0) parity bit r-1.
	c.checkStart = make([]int32, m+1)
	for r := 0; r < m; r++ {
		deg := rowDeg[r] + 1
		if r > 0 {
			deg++
		}
		c.checkStart[r+1] = c.checkStart[r] + deg
	}
	e := int(c.checkStart[m])
	c.edgeVar = make([]int32, e)
	fill := make([]int32, m)
	copy(fill, c.checkStart[:m])
	for j := 0; j < k; j++ {
		for _, r := range c.infoRows[j] {
			c.edgeVar[fill[r]] = int32(j)
			fill[r]++
		}
	}
	for r := 0; r < m; r++ {
		c.edgeVar[fill[r]] = int32(k + r)
		fill[r]++
		if r > 0 {
			c.edgeVar[fill[r]] = int32(k + r - 1)
			fill[r]++
		}
	}

	// Invert to per-variable edge lists.
	varDeg := make([]int32, c.N)
	for _, v := range c.edgeVar {
		varDeg[v]++
	}
	c.varStart = make([]int32, c.N+1)
	for v := 0; v < c.N; v++ {
		c.varStart[v+1] = c.varStart[v] + varDeg[v]
	}
	c.varEdge = make([]int32, e)
	vfill := make([]int32, c.N)
	copy(vfill, c.varStart[:c.N])
	for idx, v := range c.edgeVar {
		c.varEdge[vfill[v]] = int32(idx)
		vfill[v]++
	}
	return c, nil
}

// Rate returns the code rate K/N.
func (c *LDPC) Rate() float64 { return float64(c.K) / float64(c.N) }

// Encode computes the codeword for the given information bits
// (len(data) == K): the first K bits of the result are data, followed by M
// accumulator parity bits.
func (c *LDPC) Encode(data []bool) []bool {
	if len(data) != c.K {
		panic(fmt.Sprintf("ecc: Encode got %d bits, want %d", len(data), c.K))
	}
	cw := make([]bool, c.N)
	copy(cw, data)
	// s_r = parity of information bits on check r.
	s := make([]bool, c.M)
	for j, rows := range c.infoRows {
		if data[j] {
			for _, r := range rows {
				s[r] = !s[r]
			}
		}
	}
	// Accumulate: p_r = p_{r-1} XOR s_r.
	prev := false
	for r := 0; r < c.M; r++ {
		prev = prev != s[r]
		cw[c.K+r] = prev
	}
	return cw
}

// CheckSyndrome reports whether bits (len N) satisfies every parity check.
func (c *LDPC) CheckSyndrome(bits []bool) bool {
	for r := 0; r < c.M; r++ {
		parity := false
		for e := c.checkStart[r]; e < c.checkStart[r+1]; e++ {
			if bits[c.edgeVar[e]] {
				parity = !parity
			}
		}
		if parity {
			return false
		}
	}
	return true
}

// DecodeResult reports the outcome of a decode attempt.
type DecodeResult struct {
	// OK is true when the decoder converged to a valid codeword.
	OK bool
	// Iterations is the number of min-sum iterations performed.
	Iterations int
	// Bits is the decoded codeword estimate (valid only when OK).
	Bits []bool
}

// Decode runs normalized min-sum belief propagation on the channel LLRs
// (llr[i] = log P(bit i = 0)/P(bit i = 1), len N) for at most maxIter
// iterations, stopping early when the syndrome clears.
func (c *LDPC) Decode(llr []float64, maxIter int) DecodeResult {
	if len(llr) != c.N {
		panic(fmt.Sprintf("ecc: Decode got %d LLRs, want %d", len(llr), c.N))
	}
	const alpha = 0.8 // min-sum normalization
	sc := getDecodeScratch(len(c.edgeVar), c.N)
	defer decodeScratchPool.Put(sc)
	// Every iteration writes all of c2v (check update) and hard before
	// reading them, so the recycled buffers need no clearing.
	c2v, v2c, hard := sc.c2v, sc.v2c, sc.hard

	// Initialize variable-to-check messages with channel LLRs.
	for idx, v := range c.edgeVar {
		v2c[idx] = llr[v]
	}

	for iter := 1; iter <= maxIter; iter++ {
		// Check update: normalized min-sum.
		for r := 0; r < c.M; r++ {
			lo, hi := c.checkStart[r], c.checkStart[r+1]
			signProd := 1.0
			min1, min2 := math.Inf(1), math.Inf(1)
			var min1At int32 = -1
			for ei := lo; ei < hi; ei++ {
				m := v2c[ei]
				if m < 0 {
					signProd = -signProd
					m = -m
				}
				if m < min1 {
					min2 = min1
					min1 = m
					min1At = ei
				} else if m < min2 {
					min2 = m
				}
			}
			for ei := lo; ei < hi; ei++ {
				mag := min1
				if ei == min1At {
					mag = min2
				}
				sign := signProd
				if v2c[ei] < 0 {
					sign = -sign
				}
				c2v[ei] = alpha * sign * mag
			}
		}
		// Variable update and hard decision.
		for v := 0; v < c.N; v++ {
			t := llr[v]
			for k := c.varStart[v]; k < c.varStart[v+1]; k++ {
				t += c2v[c.varEdge[k]]
			}
			hard[v] = t < 0
			for k := c.varStart[v]; k < c.varStart[v+1]; k++ {
				ei := c.varEdge[k]
				v2c[ei] = t - c2v[ei]
			}
		}
		if c.CheckSyndrome(hard) {
			out := make([]bool, c.N)
			copy(out, hard)
			return DecodeResult{OK: true, Iterations: iter, Bits: out}
		}
	}
	return DecodeResult{OK: false, Iterations: maxIter}
}

// decodeScratch holds Decode's message and hard-decision buffers; they
// are recycled through decodeScratchPool, since a decode allocating them
// afresh dominated the soft-decoding path's allocation.
type decodeScratch struct {
	c2v, v2c []float64
	hard     []bool
}

var decodeScratchPool sync.Pool // *decodeScratch

func getDecodeScratch(edges, n int) *decodeScratch {
	sc, _ := decodeScratchPool.Get().(*decodeScratch)
	if sc == nil {
		sc = new(decodeScratch)
	}
	if cap(sc.c2v) < edges {
		sc.c2v, sc.v2c = make([]float64, edges), make([]float64, edges)
	}
	if cap(sc.hard) < n {
		sc.hard = make([]bool, n)
	}
	sc.c2v, sc.v2c, sc.hard = sc.c2v[:edges], sc.v2c[:edges], sc.hard[:n]
	return sc
}

// DecodeData is Decode restricted to the information bits: on success it
// returns the first K decoded bits.
func (c *LDPC) DecodeData(llr []float64, maxIter int) ([]bool, bool) {
	res := c.Decode(llr, maxIter)
	if !res.OK {
		return nil, false
	}
	return res.Bits[:c.K], true
}
