// Command perfbench is the sentinel3d benchmark: one command that runs a
// seeded workload against the public functions of the repository's
// internal packages, checks that the simulated outputs are right, and
// prints every metric by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with -trace 1 a separate traced run records spans around every call
// into a layer and reports the per-layer metrics, the layer-share table
// and the tracing overhead instead.
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	read_retry    retry.Controller reads on a worn TLC chip, three policies
//	trace_replay  ssdsim.Engine replay of an hm_0-shaped trace with lifetime on
//	soft_decode   LDPC frames on a worn QLC chip, hard/2-bit/3-bit sensing
//	serve_read    in-process flashd: a RunBench round, then a closed loop of /read requests
//
// Run it from the repository root through perfbench/run.sh, which builds
// the binary under .bench_build first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sentinel3d/internal/mathx"
)

// options are the command-line arguments of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// spans is the directory traced runs write their span dump to; empty
	// writes none.
	spans string
	// tiny shrinks every workload to a smoke-test size (the package test).
	tiny bool
}

// passConfig parameterizes one pass over a workload instance.
type passConfig struct {
	// workers bounds the workload's concurrency (benchmark workers,
	// parallel.SetWorkers, replay workers, GOMAXPROCS for the server).
	workers int
	// dur is the wall time the timed phase runs for; the fixed prefix
	// always completes first, so dur 0 runs the prefix alone.
	dur time.Duration
	// checkOps and simOps are the fixed prefixes the pass must
	// complete: the digest covers the first checkOps operations, the
	// sim metrics the first simOps (0: none).
	checkOps, simOps int
	// tr, when non-nil, records spans around every layer call.
	tr *tracer
}

// passResult is what one pass measured.
type passResult struct {
	// digest hashes the simulated outputs of the fixed check prefix; it
	// must be identical across passes, worker counts and tracing.
	digest string
	// ops counts the operations ops_per_s is taken over and wall the
	// seconds they took; attempted (ops when 0) and failed count every
	// operation of the pass.
	ops, attempted, failed int64
	wall                   float64
	// rates are the operation rates of the pass's windows (seconds,
	// replays); ops_per_s is their median, which a
	// transient stall of the host cannot move.
	rates []float64
	// latMS holds one host latency per timed operation, in ms.
	latMS []float64
	// sim holds the simulated-device metrics of the fixed prefix.
	sim simMetrics
	// model holds the model-outcome lines printed beside the metrics.
	model []string
	// layer holds per-layer figures known from the pass itself (counts,
	// ratios, outcome shares); the traced run adds probe timings.
	layer map[string]float64
}

func (p *passResult) attemptedOps() int64 {
	if p.attempted > 0 {
		return p.attempted
	}
	return p.ops
}

// opsPerSec is the median window rate, or ops over wall time when the
// pass had fewer than three windows.
func (p *passResult) opsPerSec() float64 {
	if len(p.rates) >= 3 {
		return mathx.Median(p.rates)
	}
	return float64(p.ops) / p.wall
}

// simMetrics are simulated-device figures: pure functions of the seed.
type simMetrics struct {
	readUSMean, readUSP99, sensesPerRead float64
}

// instance is one set-up workload.
type instance interface {
	// pass runs the workload under cfg.
	pass(cfg passConfig) (*passResult, error)
	// layers turns a traced pass into per-layer metrics and layer self
	// times, calling each layer's public functions on their own where a
	// layer is only reached inside another layer's call.
	layers(traced *passResult, tr *tracer) (map[string]float64, layerTimes, error)
	// close releases the instance (stops servers, frees chips).
	close() error
}

// workload builds instances from a seed.
type workload struct {
	name  string
	setup func(seed uint64, o options) (instance, error)
	// checkOps and simOps size the fixed prefixes (see passConfig).
	checkOps, simOps func(o options) int
}

var workloads = []workload{readRetry, traceReplay, softDecode, serveRead}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall seconds the timed phase runs")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "directory for the traced run's span dump (empty: none)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := findWorkload(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	}
	o.trace = trace == 1
	return o, nil
}

// An untraced run sets the workload up at least minSetups times and
// keeps going (up to maxSetups) until setupBudget is spent; setup_s is
// the median.
const (
	minSetups   = 3
	maxSetups   = 200
	setupBudget = 4 * time.Second
)

// run executes one benchmark run and returns its result line. Human
// readable lines go to out. A correctness failure is reported through
// result.Correct; an error means the run could not complete.
func run(o options, out io.Writer) (*result, error) {
	w, _ := findWorkload(o.workload)
	reps, budget := minSetups, setupBudget
	if o.trace || o.tiny {
		reps, budget = 1, 0
	}
	var inst instance
	var setups []float64
	var spent time.Duration
	for i := 0; i < maxSetups && (i < reps || spent < budget); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		// Collect the previous set-up's garbage outside the timing, so
		// every set-up starts from the same heap.
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.setup(o.seed, o)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer inst.close()

	fmt.Fprintf(out, "workload %s seed %d: set-up %s s (median of %d)\n",
		o.workload, o.seed, fmtF(mathx.Median(setups)), len(setups))
	fmt.Fprintln(out, "note: the device model is validated against no hardware; its only anchors are the paper figures quoted below")
	dur := time.Duration(o.seconds * float64(time.Second))
	check, err := runPass(inst, passConfig{workers: 1, checkOps: w.checkOps(o)})
	if err != nil {
		return nil, fmt.Errorf("%s check pass: %w", o.workload, err)
	}
	fmt.Fprintf(out, "digest (1 worker, untraced): %s\n", check.digest)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	gate := func(name string, p *passResult) {
		fmt.Fprintf(out, "digest (%s): %s\n", name, p.digest)
		if p.digest != check.digest {
			fmt.Fprintf(out, "CORRECTNESS: %s digest differs from the 1-worker untraced digest\n", name)
			res.Correct = false
		}
	}
	if !o.trace {
		meas, err := runPass(inst, passConfig{workers: 2, dur: dur, checkOps: w.checkOps(o), simOps: w.simOps(o)})
		if err != nil {
			return nil, fmt.Errorf("%s timed pass: %w", o.workload, err)
		}
		gate("2 workers, untraced", meas)
		if len(meas.latMS) == 0 {
			return nil, fmt.Errorf("%s timed pass: no operation timed", o.workload)
		}
		for _, l := range meas.model {
			fmt.Fprintln(out, l)
		}
		res.Attempted, res.Failed = meas.attemptedOps(), meas.failed
		if meas.failed > 0 {
			fmt.Fprintf(out, "CORRECTNESS: %d of %d operations failed\n", meas.failed, res.Attempted)
			res.Correct = false
		}
		fmt.Fprintf(out, "simulated read latency: mean %s us, p99 %s us (sim_read_us_p99 is a per-layer metric: retry counts put it on discrete plateaus)\n",
			fmtF(meas.sim.readUSMean), fmtF(meas.sim.readUSP99))
		lat := meas.latMS
		p50, p90 := chunkedQuantile(lat, 0.5), chunkedQuantile(lat, 0.9)
		fmt.Fprintf(out, "host latency over %d operations: p50 %s ms, p90 %s ms (medians over %d-operation chunks; p90 and p99 are per-layer metrics); whole sample p50 %s, p90 %s, p99 %s ms; error_frac %s\n",
			len(lat), fmtF(p50), fmtF(p90), latChunk, fmtF(mathx.Percentile(lat, 50)), fmtF(mathx.Percentile(lat, 90)),
			fmtF(mathx.Percentile(lat, 99)), fmtF(float64(meas.failed)/float64(res.Attempted)))
		m := res.Metrics
		m["setup_s"] = metric{mathx.Median(setups), "s"}
		m["ops_per_s"] = metric{meas.opsPerSec(), "1/s"}
		m["op_p50_ms"] = metric{p50, "ms"}
		m["mem_peak_mb"] = metric{peakMemMB(), "MB"}
		m["sim_read_us_mean"] = metric{meas.sim.readUSMean, "sim_us"}
		m["sim_senses_per_read"] = metric{meas.sim.sensesPerRead, "count"}
		printMetrics(out, m)
		return res, nil
	}

	half := dur / 2
	plain, err := runPass(inst, passConfig{workers: 2, dur: half, checkOps: w.checkOps(o), simOps: w.simOps(o)})
	if err != nil {
		return nil, fmt.Errorf("%s untraced pass: %w", o.workload, err)
	}
	gate("2 workers, untraced", plain)
	tr := newTracer()
	traced, err := runPass(inst, passConfig{workers: 2, dur: half, checkOps: w.checkOps(o), tr: tr})
	if err != nil {
		return nil, fmt.Errorf("%s traced pass: %w", o.workload, err)
	}
	gate("2 workers, traced", traced)
	res.Attempted, res.Failed = traced.attemptedOps(), traced.failed
	if traced.failed > 0 {
		fmt.Fprintf(out, "CORRECTNESS: %d of %d traced operations failed\n", traced.failed, res.Attempted)
		res.Correct = false
	}
	lm, times, err := inst.layers(traced, tr)
	if err != nil {
		return nil, fmt.Errorf("%s layer probes: %w", o.workload, err)
	}
	for _, l := range append(plain.model, traced.model...) {
		fmt.Fprintln(out, l)
	}
	lm["sim_read_us_p99"] = plain.sim.readUSP99
	lm["op_p90_ms"] = chunkedQuantile(plain.latMS, 0.9)
	lm["op_p99_ms"] = chunkedQuantile(plain.latMS, 0.99)
	lm["bench.trace_overhead_pct"] = 100 * (plain.opsPerSec()/traced.opsPerSec() - 1)
	shares := times.shares()
	for _, l := range layerNames {
		lm["share."+l+"_pct"] = shares[l]
	}
	for _, pl := range perLayer {
		v := lm[pl.name]
		res.Metrics[pl.name] = metric{v, pl.unit}
	}
	fmt.Fprintf(out, "layer shares of operation time (%s, %d spans):\n", o.workload, tr.count())
	for _, l := range layerNames {
		fmt.Fprintf(out, "  %-9s %6.2f%%\n", l, shares[l])
	}
	printMetrics(out, res.Metrics)
	if o.spans != "" {
		path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.writeFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	return res, nil
}

// runPass starts every pass from a collected heap.
func runPass(inst instance, cfg passConfig) (*passResult, error) {
	runtime.GC()
	return inst.pass(cfg)
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-36s %s %s\n", n, fmtF(m[n].Value), m[n].Unit)
	}
}

func fmtF(v float64) string { return fmt.Sprintf("%.6g", v) }
