package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"sentinel3d/internal/ftl"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/ssdsim"
	"sentinel3d/internal/trace"
)

// trace_replay: an hm_0-shaped trace (36% reads, 64% writes) replayed
// through ssdsim.Engine on 2 shards with lifetime on (worn device,
// diurnal temperature, monthly calibration). Writes drive FTL garbage
// collection, erases and the wear path; outcome pools come from
// ssdsim.SyntheticLifetimeSampler, so no physics runs. One operation is
// one trace request; one pass replays the whole trace.

var traceReplay = workload{
	name:     "trace_replay",
	setup:    setupTraceReplay,
	checkOps: func(options) int { return 1 },
	simOps:   func(options) int { return 1 },
}

// trGeometry is the replay cells' device: 4 channels x 2 dies x 2
// planes x 32 blocks x 192 pages (98,304 pages, 384 MiB).
var trGeometry = ftl.Geometry{
	Channels: 4, ChipsPerChan: 1, DiesPerChip: 2, PlanesPerDie: 2,
	BlocksPerPlane: 32, PagesPerBlock: 192,
}

const (
	trRequests = 3_000_000
	trShards   = 2
)

type trInstance struct {
	geo    ftl.Geometry
	eng    *ssdsim.Engine
	ls     *ssdsim.LifetimeSampler
	open   trace.Opener
	maxLPN int64
	// Trace statistics: request count, read and write pages, and the
	// distinct pages the precondition pass writes.
	requests                        int
	readPages, writePages, distinct int64
	buildSamplerS                   float64
}

func setupTraceReplay(seed uint64, o options) (instance, error) {
	n, geo := trRequests, trGeometry
	if o.tiny {
		// A device small enough that 20k requests still reach GC.
		n, geo.BlocksPerPlane = 20_000, 8
	}
	spec, err := trace.WorkloadByName("hm_0")
	if err != nil {
		return nil, err
	}
	spec.WorkingSetPages = int64(geo.PagesTotal()) * 6 / 10
	// The trace is held in the zero-copy S3DT binary format, so replay
	// time is the engine's and not the generator's. Generate and
	// EncodeBinary size their buffers exactly, which keeps set-up's
	// memory peak the same on every run.
	reqs, err := trace.Generate(spec, n, mathx.Mix(seed, 0x7ace))
	if err != nil {
		return nil, err
	}
	open, err := trace.BinaryOpener(trace.EncodeBinary(reqs))
	if err != nil {
		return nil, err
	}
	t := &trInstance{geo: geo, open: open, maxLPN: spec.WorkingSetPages - 1}
	if err := t.scan(); err != nil {
		return nil, err
	}

	t0 := time.Now()
	hours := []float64{physics.YearHours, physics.YearHours * 4 / 3, 2 * physics.YearHours}
	t.ls = ssdsim.SyntheticLifetimeSampler(3, []int{5000}, hours, mathx.Mix(seed, 0x11fe))
	if err := t.ls.Validate(); err != nil {
		return nil, err
	}
	t.buildSamplerS = time.Since(t0).Seconds()

	cfg := ssdsim.DefaultConfig()
	cfg.Geo = geo
	cfg.Seed = mathx.Mix(seed, 0x55d)
	cfg.Life = &ssdsim.LifetimeConfig{
		BasePE:             5000,
		BaseRetentionHours: physics.YearHours,
		Schedule:           physics.SquareWave(physics.RoomTempC, 50, 24, 0.5),
		// The trace spans about an hour of host time; at 3 device-hours
		// per trace second the device ages about a year during it.
		HoursPerSecond:   3,
		CalibPeriodHours: 730,
		CalibUS:          300,
	}
	t.eng, err = ssdsim.NewEngine(ssdsim.ReplayConfig{Sim: cfg, Shards: trShards, Precondition: true}, t.ls)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// scan counts the trace's pages once, at set-up.
func (t *trInstance) scan() error {
	seen := mathx.NewBitset(t.maxLPN + 1)
	return t.each(func(r trace.Request) error {
		t.requests++
		if r.Op == trace.Read {
			t.readPages += int64(r.Pages)
		} else {
			t.writePages += int64(r.Pages)
		}
		for p := int64(0); p < int64(r.Pages); p++ {
			if !seen.Has(r.LPN + p) {
				seen.Set(r.LPN + p)
				t.distinct++
			}
		}
		return nil
	})
}

func (t *trInstance) close() error { return nil }

func (t *trInstance) pass(cfg passConfig) (*passResult, error) {
	defer parallel.SetWorkers(parallel.SetWorkers(cfg.workers))
	res := &passResult{layer: map[string]float64{}}
	var first *ssdsim.Report
	start := time.Now()
	for pass := int64(0); pass < int64(cfg.checkOps) || time.Since(start) < cfg.dur; pass++ {
		root := cfg.tr.start("bench.replay", pass, 0)
		sp := cfg.tr.start("ssdsim.Replay", pass, root.id())
		t0 := time.Now()
		rep, err := t.eng.Replay(t.open)
		sp.end()
		root.end()
		if err != nil {
			return nil, err
		}
		// Each replay builds ~100 MB of fleet state; collecting it here,
		// inside the timing, charges every pass the same GC work instead
		// of whichever pass the collector happens to land in.
		runtime.GC()
		wall := time.Since(t0)
		res.ops += int64(rep.Requests)
		res.latMS = append(res.latMS, wall.Seconds()*1e3/float64(rep.Requests))
		res.rates = append(res.rates, float64(rep.Requests)/wall.Seconds())
		d := t.digest(rep)
		switch {
		case first == nil:
			first, res.digest = rep, d
		case d != res.digest:
			res.failed += int64(rep.Requests)
			res.model = append(res.model, fmt.Sprintf("CORRECTNESS: replay %d report differs from replay 0", pass))
		}
	}
	res.wall = time.Since(start).Seconds()
	rep := first
	// The wear-path gate: the replay must erase blocks and wear them.
	if rep.Life.RunErases == 0 || rep.Life.WornBlocks == 0 {
		res.failed += int64(rep.Requests)
		res.model = append(res.model, fmt.Sprintf("CORRECTNESS: wear path idle: %d erases, %d worn blocks",
			rep.Life.RunErases, rep.Life.WornBlocks))
	}
	host := float64(t.distinct + t.writePages)
	res.layer["ftl.erases"] = float64(rep.Life.RunErases)
	res.layer["ftl.gc_relocations_per_write"] = float64(rep.GCWrites) / host
	res.layer["ftl.write_amp"] = (host + float64(rep.GCWrites)) / host
	res.layer["ssdsim.calibrations"] = float64(rep.Life.Calibrations)
	res.layer["ssdsim.worn_blocks"] = float64(rep.Life.WornBlocks)
	res.layer["ssdsim.uncorrectable_frac"] = float64(rep.UncorrectableReads) / math.Max(float64(t.readPages), 1)
	res.layer["ssdsim.build_sampler_s"] = t.buildSamplerS
	if cfg.simOps > 0 {
		res.sim = simMetrics{
			readUSMean:    rep.MeanReadUS,
			readUSP99:     rep.P99ReadUS,
			sensesPerRead: t.poolSenses(),
		}
		res.model = append(res.model,
			fmt.Sprintf("model: %d requests (%d reads) over %.0f device-hours: mean read %.2f us, p99 %.2f us (queueing included)",
				rep.Requests, rep.Reads, rep.Life.DeviceHours, rep.MeanReadUS, rep.P99ReadUS),
			fmt.Sprintf("model: sim_write_amp %.4f, %d GC relocations, %d erases over %d worn blocks (max wear %d), %d calibrations, sim_uncorrectable_frac %.6f",
				res.layer["ftl.write_amp"], rep.GCWrites, rep.Life.RunErases, rep.Life.WornBlocks,
				rep.Life.MaxBlockWear, rep.Life.Calibrations, res.layer["ssdsim.uncorrectable_frac"]))
	}
	return res, nil
}

// digest hashes the deterministic report: the summary plus the lifetime
// statistics that travel beside it.
func (t *trInstance) digest(rep *ssdsim.Report) string {
	var d digester
	d.str(fmt.Sprintf("%+v|%+v", rep.Summary(), rep.Life))
	return d.sum()
}

// poolSenses is the mean senses per page read over the outcome pools:
// attempts plus auxiliary senses, averaged over every grid point and
// page type.
func (t *trInstance) poolSenses() float64 {
	var sum, n float64
	for _, pool := range t.ls.Pools {
		for _, outs := range pool.PerPage {
			for _, o := range outs {
				sum += float64(1 + o.Retries + o.AuxSenses)
				n++
			}
		}
	}
	return sum / n
}

func (t *trInstance) layers(traced *passResult, tr *tracer) (map[string]float64, layerTimes, error) {
	st := tr.stats()
	out := map[string]float64{}
	for k, v := range traced.layer {
		out[k] = v
	}
	replay := st["ssdsim.Replay"]
	out["ssdsim.replay_ns_per_req"] = replay.totalSec / float64(replay.n) / float64(t.requests) * 1e9

	// trace: one Source.Next walk of the whole trace.
	t0 := time.Now()
	if err := t.each(func(trace.Request) error { return nil }); err != nil {
		return nil, layerTimes{}, err
	}
	out["trace.next_ns"] = time.Since(t0).Seconds() / float64(t.requests) * 1e9

	// ftl: the trace's write stream on a standalone FTL, warmed like the
	// engine's precondition pass.
	writeUS, err := t.ftlWrites()
	if err != nil {
		return nil, layerTimes{}, err
	}
	out["ftl.write_us"] = writeUS
	for _, name := range []string{"trace.next_ns", "ftl.write_us", "ssdsim.replay_ns_per_req"} {
		if err := mustPositive(name, out[name]); err != nil {
			return nil, layerTimes{}, err
		}
	}

	lt := fromSpans(st, "bench.replay")
	passes := float64(replay.n)
	// Each replay pulls the trace twice (precondition and replay pass)
	// and writes every distinct page once before the host writes.
	lt.move("ssdsim", "trace", passes*2*float64(t.requests)*out["trace.next_ns"]/1e9)
	lt.move("ssdsim", "ftl", passes*float64(t.distinct+t.writePages)*writeUS/1e6)
	return out, lt, nil
}

// ftlWrites replays the write stream on a standalone FTL and returns the
// mean cost of one FTL.Write in µs. The FTL is first warmed like the
// engine's precondition pass; writes are timed in chunks so the trace
// generator's cost stays out of the figure.
func (t *trInstance) ftlWrites() (float64, error) {
	f, err := ftl.New(t.geo)
	if err != nil {
		return 0, err
	}
	f.SetLPNBound(t.maxLPN)
	seen := mathx.NewBitset(t.maxLPN + 1)
	err = t.each(func(r trace.Request) error {
		for p := int64(0); p < int64(r.Pages); p++ {
			if !seen.Has(r.LPN + p) {
				seen.Set(r.LPN + p)
				if _, err := f.Write(r.LPN + p); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var res ftl.WriteResult
	var took time.Duration
	var n int
	chunk := make([]int64, 0, 1<<16)
	flush := func() error {
		t0 := time.Now()
		for _, lpn := range chunk {
			if err := f.WriteInto(lpn, &res); err != nil {
				return err
			}
		}
		took += time.Since(t0)
		n += len(chunk)
		chunk = chunk[:0]
		return nil
	}
	err = t.each(func(r trace.Request) error {
		if r.Op != trace.Write {
			return nil
		}
		for p := int64(0); p < int64(r.Pages); p++ {
			chunk = append(chunk, r.LPN+p)
		}
		if len(chunk) >= cap(chunk)-64 {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		return 0, err
	}
	return took.Seconds() / float64(max(n, 1)) * 1e6, nil
}

// each calls fn for every request of the trace.
func (t *trInstance) each(fn func(trace.Request) error) error {
	src, err := t.open()
	if err != nil {
		return err
	}
	for {
		r, ok, err := src.Next()
		if err != nil || !ok {
			return err
		}
		if err := fn(r); err != nil {
			return err
		}
	}
}
