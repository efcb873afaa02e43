package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sentinel3d/internal/mathx"
)

// span is one timed call across a layer boundary. Spans of one
// operation share Op; Parent is the span that made the call (0 for the
// operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay one branch per boundary.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t     *tracer
	s     span
	start time.Time
}

// start opens a span named "<layer>.<call>" for operation op.
func (t *tracer) start(name string, op, parent int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Now()
	return spanRef{t: t, start: now, s: span{
		ID: t.nextID.Add(1), Parent: parent, Op: op, Name: name,
		Start: now.Sub(t.t0).Nanoseconds(),
	}}
}

// id is the span's ID, the parent of the calls made inside it.
func (r spanRef) id() int64 { return r.s.ID }

// end closes the span and records it.
func (r spanRef) end() {
	if r.t == nil {
		return
	}
	r.s.End = r.s.Start + time.Since(r.start).Nanoseconds()
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.s)
	r.t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile dumps the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	n        int
	totalSec float64
	selfSec  float64
}

// meanUS is the mean span duration in µs.
func (s spanStats) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return s.totalSec / float64(s.n) * 1e6
}

// stats folds the spans by name. A span's self time is its duration
// minus the part covered by its direct children (children are sequential
// calls made by the span's goroutine).
func (t *tracer) stats() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*spanStats)
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := float64(s.End-s.Start) / 1e9
		self := float64(s.End-s.Start-child[s.ID]) / 1e9
		if self < 0 {
			self = 0
		}
		st.n++
		st.totalSec += d
		st.selfSec += self
	}
	return out
}

// layerNames are the layers the share table reports, in table order.
// "kernel" is the read kernel (mathx, physics, flash); "bench" is the
// benchmark's own code (input generation, LLR building, the load
// generator's client side).
var layerNames = []string{"kernel", "ecc", "sentinel", "retry", "trace", "ftl", "ssdsim", "serve", "bench"}

// layerOf maps a span name's package prefix to its layer.
func layerOf(name string) string {
	pkg, _, _ := strings.Cut(name, ".")
	switch pkg {
	case "mathx", "physics", "flash":
		return "kernel"
	case "ecc", "sentinel", "retry", "trace", "ftl", "ssdsim", "serve":
		return pkg
	}
	return "bench"
}

// layerTimes is self time per layer over a traced pass, plus the total
// operation time the shares are taken of.
type layerTimes struct {
	self  map[string]float64
	opSec float64
}

// fromSpans builds layer self times from span stats; root is the span
// name whose total duration is the operation time.
func fromSpans(st map[string]*spanStats, root string) layerTimes {
	lt := layerTimes{self: map[string]float64{}}
	for name, s := range st {
		lt.self[layerOf(name)] += s.selfSec
	}
	if r := st[root]; r != nil {
		lt.opSec = r.totalSec
	}
	return lt
}

// move attributes sec of from's self time to layer to: the time a layer
// spent inside calls the benchmark cannot wrap, estimated as call count
// times the standalone cost of the call. It never moves more than from
// holds.
func (lt layerTimes) move(from, to string, sec float64) {
	if sec > lt.self[from] {
		sec = lt.self[from]
	}
	if sec < 0 {
		sec = 0
	}
	lt.self[from] -= sec
	lt.self[to] += sec
}

// shares returns each layer's self time as a percentage of op time.
func (lt layerTimes) shares() map[string]float64 {
	out := make(map[string]float64, len(layerNames))
	if lt.opSec <= 0 {
		return out
	}
	for _, l := range layerNames {
		out[l] = 100 * lt.self[l] / lt.opSec
	}
	return out
}

// probeUS is the standalone cost of one call of fn in µs: fn(i) runs
// for i = 0 .. batches*perBatch-1, timed in batches of perBatch calls,
// and the result is the median batch's mean, so a host stall during the
// probe moves one batch rather than the figure.
func probeUS(batches, perBatch int, fn func(i int)) float64 {
	means := make([]float64, batches)
	for b := range means {
		t0 := time.Now()
		for j := 0; j < perBatch; j++ {
			fn(b*perBatch + j)
		}
		means[b] = time.Since(t0).Seconds() / float64(perBatch) * 1e6
	}
	return mathx.Median(means)
}

func mustPositive(name string, v float64) error {
	if !(v > 0) {
		return fmt.Errorf("%s probe measured %g", name, v)
	}
	return nil
}
