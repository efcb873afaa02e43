package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// rateWindow is the window the per-window operation rates are taken over.
const rateWindow = time.Second

// runOps runs ops 0, 1, 2, ... on workers goroutines until the prefix of
// minOps is done and dur has passed. It returns the results of the
// contiguous prefix of ops run, in op order, the wall seconds, and the
// completion rate of every full rateWindow.
func runOps[T any](workers, minOps int, dur time.Duration, op func(i int) T) ([]T, float64, []float64) {
	var next atomic.Int64
	// stop is the lowest op index a worker claimed and then dropped
	// because the deadline had passed; every op below it has run.
	var stop atomic.Int64
	stop.Store(math.MaxInt64)
	start := time.Now()
	deadline := start.Add(dur)
	type done struct {
		i   int
		at  time.Duration
		val T
	}
	parts := make([][]done, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(minOps) && !time.Now().Before(deadline) {
					for s := stop.Load(); i < s && !stop.CompareAndSwap(s, i); s = stop.Load() {
					}
					return
				}
				v := op(int(i))
				parts[w] = append(parts[w], done{int(i), time.Since(start), v})
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	n := int(stop.Load())
	out := make([]T, n)
	counts := make([]float64, int(wall/rateWindow))
	for _, p := range parts {
		for _, d := range p {
			if d.i >= n {
				continue
			}
			out[d.i] = d.val
			if k := int(d.at / rateWindow); k < len(counts) {
				counts[k]++
			}
		}
	}
	for k := range counts {
		counts[k] /= rateWindow.Seconds()
	}
	return out, wall.Seconds(), counts
}
