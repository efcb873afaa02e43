package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"sentinel3d/internal/parallel"
	"sentinel3d/internal/ssdsim"
	"sentinel3d/internal/trace"
)

// replayDevice is ReplayGeometry widened to 8 channels, the device the
// throughput measurement shards (up to 8 ways); it matches the ssdsim
// replay benchmarks.
func replayDevice() ssdsim.Config {
	cfg := ssdsim.DefaultConfig()
	cfg.Geo = ReplayGeometry()
	cfg.Geo.Channels = 8
	return cfg
}

// SyntheticSampler is a synthetic TLC retry-outcome distribution that
// exercises the sampler RNG path without building a chip. The replay
// throughput measurement uses it, and so do the scenario registry's
// "synthetic"-policy replay cells (fast enough for CI smoke tiers).
func SyntheticSampler() *ssdsim.EmpiricalSampler {
	return &ssdsim.EmpiricalSampler{PerPage: [][]ssdsim.RetryOutcome{
		{{Retries: 0}, {Retries: 0}, {Retries: 1}},
		{{Retries: 0}, {Retries: 1}, {Retries: 2}},
		{{Retries: 1}, {Retries: 2}, {Retries: 4, AuxSenses: 1}},
	}}
}

// ReplayThroughputRow is one engine configuration's measurement.
type ReplayThroughputRow struct {
	Devices int
	Shards  int
	Workers int
	// Source is the trace decode path: "generator" regenerates the
	// synthetic stream each pass, "binary" decodes the pre-encoded
	// zero-copy format.
	Source string
	// Collect marks the exact-percentile mode (every read latency is
	// retained); the default histogram mode holds O(shards) state.
	Collect   bool
	Seconds   float64
	ReqPerSec float64
	// AllocMB is the total heap allocated during the replay (alloc
	// volume, not footprint).
	AllocMB float64
	// LiveHeapMB is the heap retained by the run's report after a GC:
	// in collect mode this includes the full latency vector, in
	// histogram mode only the fixed-size buckets.
	LiveHeapMB float64
}

// ReplayThroughputResult holds the replay-engine scaling measurement.
type ReplayThroughputResult struct {
	Requests int
	Rows     []ReplayThroughputRow
}

// ReplayThroughput measures the streaming replay engine on a synthetic
// hm_0-shaped trace of the given length: single-shard baseline, sharded
// at one worker, sharded at GOMAXPROCS workers, the exact-percentile
// (CollectLatencies) mode, and a 4-device fleet decoding the zero-copy
// binary encoding of the same trace. Rows replaying the same
// configuration at different worker counts must produce identical
// reports — the worker count must never change the output.
func ReplayThroughput(requests int) (*ReplayThroughputResult, error) {
	cfg := replayDevice()
	spec, err := trace.WorkloadByName("hm_0")
	if err != nil {
		return nil, err
	}
	spec.WorkingSetPages = int64(cfg.Geo.PagesTotal()) * 6 / 10
	open := trace.GeneratorOpener(spec, requests, 7)

	gen, err := trace.NewGenerator(spec, requests, 7)
	if err != nil {
		return nil, err
	}
	data, err := trace.EncodeBinarySource(gen)
	if err != nil {
		return nil, err
	}
	binOpen, err := trace.BinaryOpener(data)
	if err != nil {
		return nil, err
	}

	maxW := runtime.GOMAXPROCS(0)
	matrix := []struct {
		devices, shards, workers int
		collect, binary          bool
	}{
		{1, 1, 1, false, false},
		{1, 8, 1, false, false},
		{1, 8, maxW, false, false},
		{1, 8, maxW, true, false},
		{4, 8, 1, false, true},
		{4, 8, maxW, false, true},
	}
	res := &ReplayThroughputResult{Requests: requests}
	var histRep, fleetRep *ssdsim.Report
	for _, m := range matrix {
		eng, err := ssdsim.NewEngine(ssdsim.ReplayConfig{
			Sim: cfg, Shards: m.shards, Devices: m.devices,
			CollectLatencies: m.collect, Precondition: true,
		}, SyntheticSampler())
		if err != nil {
			return nil, err
		}
		src, source := open, "generator"
		if m.binary {
			src, source = binOpen, "binary"
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		prev := parallel.SetWorkers(m.workers)
		start := time.Now()
		rep, err := eng.Replay(src)
		dur := time.Since(start)
		parallel.SetWorkers(prev)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		res.Rows = append(res.Rows, ReplayThroughputRow{
			Devices: m.devices, Shards: m.shards, Workers: m.workers,
			Source: source, Collect: m.collect,
			Seconds:    dur.Seconds(),
			ReqPerSec:  float64(rep.Requests) / dur.Seconds(),
			AllocMB:    float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
			LiveHeapMB: float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20),
		})
		runtime.KeepAlive(rep)
		switch {
		case !m.collect && m.devices == 1 && m.shards == 8:
			if histRep == nil {
				histRep = rep
			} else if !reflect.DeepEqual(rep, histRep) {
				return nil, fmt.Errorf("experiments: replay report diverged at %d workers", m.workers)
			}
		case m.devices == 4:
			if fleetRep == nil {
				fleetRep = rep
			} else if !reflect.DeepEqual(rep, fleetRep) {
				return nil, fmt.Errorf("experiments: fleet replay report diverged at %d workers", m.workers)
			}
		}
	}
	return res, nil
}

// Render prints the scaling table.
func (r *ReplayThroughputResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		mode := "histogram"
		if row.Collect {
			mode = "collect"
		}
		rows = append(rows, []string{
			fmt.Sprint(row.Devices), fmt.Sprint(row.Shards), fmt.Sprint(row.Workers),
			row.Source, mode,
			fmt.Sprintf("%.2f", row.Seconds),
			fmt.Sprintf("%.0f", row.ReqPerSec),
			fmt.Sprintf("%.1f", row.AllocMB),
			fmt.Sprintf("%.2f", row.LiveHeapMB),
		})
	}
	return fmt.Sprintf("replay of %d hm_0-shaped requests (8-channel device)\n%s",
		r.Requests, Table([]string{"devices", "shards", "workers", "source", "mode", "sec", "req/s", "alloc MB", "live MB"}, rows))
}
