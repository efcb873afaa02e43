package main

import (
	"fmt"
	"math"
	"time"

	"sentinel3d/internal/ecc"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/retry"
	"sentinel3d/internal/sentinel"
)

// read_retry: random (block, wordline, page) reads of a worn TLC chip
// (P/E 5000, one year at room temperature) through retry.Controller,
// each address read under the static table, the sentinel policy and
// sentinel+history — the paper's Fig 13 operating point.

var readRetry = workload{
	name:  "read_retry",
	setup: setupReadRetry,
	checkOps: func(o options) int {
		if o.tiny {
			return 6
		}
		return 30
	},
	simOps: func(o options) int {
		if o.tiny {
			return 12
		}
		return 9000
	},
}

const (
	rrBlocks   = 4
	rrPE       = 5000
	rrTableStp = 1.2
	rrRetries  = 15
)

// rrPolicies name the compared policies in op order: op i reads address
// i/3 under policy i%3.
var rrPolicies = [3]string{"table", "sentinel", "sentinel_history"}

type rrInstance struct {
	seed  uint64
	chip  *flash.Chip
	eng   *sentinel.Engine
	ctl   *retry.Controller
	cache *retry.HistCache
	pols  [3]retry.Policy
}

func setupReadRetry(seed uint64, o options) (instance, error) {
	wls := 8
	if o.tiny {
		wls = 2
	}
	model, err := trainModel(flash.TLC, wls)
	if err != nil {
		return nil, err
	}
	cfg := chipConfig(flash.TLC, rrBlocks, evalChipSeed)
	chip, err := flash.New(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := sentinel.NewEngine(model, sentinelLayout(), sentinel.DefaultCalibrator(), cfg)
	if err != nil {
		return nil, err
	}
	blocks := make([]int, rrBlocks)
	for b := range blocks {
		blocks[b] = b
		if err := programBlock(chip, eng, b, seed); err != nil {
			return nil, err
		}
		chip.Cycle(b, rrPE)
		chip.Age(b, physics.YearHours, physics.RoomTempC)
	}
	ctl, err := retry.NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 26},
		retry.DefaultLatency(), rrRetries)
	if err != nil {
		return nil, err
	}
	cache, err := retry.NewHistCache(4, 64<<10, chip.Coding().NumVoltages(), eng.OffsetBound())
	if err != nil {
		return nil, err
	}
	// Warmed, then frozen (no write-back): the results stay a pure
	// function of the address at any worker count.
	retry.WarmHistCache(cache, chip, eng, blocks, 0, mathx.Mix(seed, 0x9157))
	sent := retry.NewSentinelPolicy(eng)
	return &rrInstance{
		seed: seed, chip: chip, eng: eng, ctl: ctl, cache: cache,
		pols: [3]retry.Policy{
			retry.NewDefaultTable(chip, rrTableStp),
			sent,
			retry.NewSentinelHistory(cache, sent, false),
		},
	}, nil
}

func (r *rrInstance) close() error { return nil }

// address returns op i's read address and sensing seed.
func (r *rrInstance) address(i int) (b, wl, page int, readSeed uint64) {
	a := uint64(i / 3)
	h := mathx.Mix3(r.seed, 0xadd, a)
	cfg := r.chip.Config()
	b = int(h % rrBlocks)
	wl = int((h >> 8) % uint64(cfg.WordlinesPerBlock()))
	page = int((h >> 24) % uint64(cfg.Kind.Bits()))
	return b, wl, page, mathx.Mix3(r.seed, a, uint64(i%3))
}

type rrRec struct {
	i      int
	res    retry.Result
	latMS  float64
	failed bool
}

// read performs op i, turning a panic into a failed operation.
func (r *rrInstance) read(i int, tr *tracer) (rec rrRec) {
	rec.i = i
	defer func() {
		if p := recover(); p != nil {
			rec.failed = true
		}
	}()
	b, wl, page, seed := r.address(i)
	root := tr.start("bench.read", int64(i), 0)
	sp := tr.start("retry.Read."+rrPolicies[i%3], int64(i), root.id())
	t0 := time.Now()
	rec.res = r.ctl.Read(b, wl, page, r.pols[i%3], seed)
	rec.latMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	sp.end()
	root.end()
	rec.failed = rec.res.Err != nil
	return rec
}

func (r *rrInstance) pass(cfg passConfig) (*passResult, error) {
	defer parallel.SetWorkers(parallel.SetWorkers(cfg.workers))
	var sm *sentinel.Metrics
	if cfg.tr != nil {
		sm = sentinel.NewMetrics(obs.NewRegistry(1).Set(0))
		r.eng.Obs = sm
		defer func() { r.eng.Obs = nil }()
	}
	hist0 := r.cache.Stats()
	recs, wall, rates := runOps(cfg.workers, max(cfg.checkOps, cfg.simOps), cfg.dur, func(i int) rrRec { return r.read(i, cfg.tr) })
	hist1 := r.cache.Stats()

	res := &passResult{wall: wall, rates: rates, ops: int64(len(recs)), layer: map[string]float64{}}
	var d digester
	for _, rec := range recs[:cfg.checkOps] {
		d.int(rec.i % 3)
		d.ints(rec.res.Retries, rec.res.AuxSenses)
		d.bool(rec.res.OK)
		d.f64(rec.res.Latency)
		d.bool(rec.failed)
	}
	res.digest = d.sum()

	var beginReads, decodes float64
	var polReads, polSenses, polFirst, polRetries, polUncorr [3]float64
	for _, rec := range recs {
		res.latMS = append(res.latMS, rec.latMS)
		if rec.failed {
			res.failed++
			continue
		}
		p := rec.i % 3
		att := float64(rec.res.Retries + 1)
		beginReads += att + float64(rec.res.AuxSenses)
		decodes += att
		polReads[p]++
		polSenses[p] += att + float64(rec.res.AuxSenses)
		polRetries[p] += float64(rec.res.Retries)
		if rec.res.Uncorrectable {
			polUncorr[p]++
		}
		if rec.res.OK && rec.res.Retries == 0 {
			polFirst[p]++
		}
	}
	for p, name := range rrPolicies {
		res.layer["retry.senses_per_read."+name] = polSenses[p] / math.Max(polReads[p], 1)
		res.layer["retry.first_shot_frac."+name] = polFirst[p] / math.Max(polReads[p], 1)
		res.layer["reads."+name] = polReads[p]
	}
	if polRetries[0] > 0 {
		res.layer["retry.reduction_pct"] = 100 * (1 - (polRetries[1]/polReads[1])/(polRetries[0]/polReads[0]))
	}
	res.layer["retry.uncorrectable_frac"] = polUncorr[1] / math.Max(polReads[1], 1)
	if look := float64(hist1.Hits - hist0.Hits + hist1.Misses - hist0.Misses); look > 0 {
		res.layer["retry.hist_hit_frac"] = float64(hist1.Hits-hist0.Hits) / look
	}
	ops := math.Max(float64(len(recs)), 1)
	res.layer["flash.begin_reads_per_op"] = beginReads / ops
	res.layer["flash.begin_reads"] = beginReads
	res.layer["ecc.decodes"] = decodes
	if sm != nil {
		res.layer["sentinel.infers"] = float64(sm.Infers.Value())
		res.layer["sentinel.cal_steps"] = float64(sm.CalSteps.Value())
	}
	if cfg.simOps > 0 {
		res.sim, res.model = r.simulated(recs[:cfg.simOps])
	}
	return res, nil
}

// simulated derives the simulated-device metrics and the paper-accuracy
// lines from a fixed prefix of reads.
func (r *rrInstance) simulated(recs []rrRec) (simMetrics, []string) {
	var sentLat []float64
	var senses, uncorr float64
	var retries, msbRetries, n, msbN [3]float64
	msb := r.chip.Coding().Bits() - 1
	for _, rec := range recs {
		p := rec.i % 3
		_, _, page, _ := r.address(rec.i)
		retries[p] += float64(rec.res.Retries)
		n[p]++
		if page == msb {
			msbRetries[p] += float64(rec.res.Retries)
			msbN[p]++
		}
		if p == 1 {
			sentLat = append(sentLat, rec.res.Latency)
			senses += float64(rec.res.Retries + 1 + rec.res.AuxSenses)
			if rec.res.Uncorrectable {
				uncorr++
			}
		}
	}
	sm := simMetrics{
		readUSMean:    mathx.Mean(sentLat),
		readUSP99:     mathx.Percentile(sentLat, 99),
		sensesPerRead: senses / float64(len(sentLat)),
	}
	avg := func(s, c float64) float64 { return s / math.Max(c, 1) }
	tAll, sAll := avg(retries[0], n[0]), avg(retries[1], n[1])
	tMSB, sMSB := avg(msbRetries[0], msbN[0]), avg(msbRetries[1], msbN[1])
	red := 100 * (1 - sMSB/tMSB)
	lines := []string{
		fmt.Sprintf("model: %d reads per policy; mean retries all pages: table %.3f, sentinel %.3f, sentinel+history %.3f",
			int(n[0]), tAll, sAll, avg(retries[2], n[2])),
		fmt.Sprintf("paper Fig 13 (TLC MSB, P/E 5000, 1 yr): table 6.6 -> sentinel 1.2 retries (82%% fewer); here MSB table %.3f -> sentinel %.3f (%.1f%% fewer); difference %+.3f / %+.3f retries, %+.1f points",
			tMSB, sMSB, red, tMSB-6.6, sMSB-1.2, red-82),
		fmt.Sprintf("sim_retry_reduction_pct (all pages) %.4f; sim_uncorrectable_frac (sentinel) %.6f",
			100*(1-sAll/tAll), uncorr/float64(len(sentLat))),
	}
	return sm, lines
}

func (r *rrInstance) layers(traced *passResult, tr *tracer) (map[string]float64, layerTimes, error) {
	st := tr.stats()
	out := map[string]float64{}
	for k, v := range traced.layer {
		out[k] = v
	}
	var readSec float64
	for _, name := range rrPolicies {
		if s := st["retry.Read."+name]; s != nil {
			out["retry.read_us."+name] = s.meanUS()
			readSec += s.totalSec
		}
	}
	// Standalone probes with the inputs of the traced pass's first reads:
	// each of the k read operations is timed on its own, the fast
	// queries in batches cycling over the k inputs.
	const k, reps = 48, 64
	cfg := r.chip.Config()
	sv := r.chip.Coding().SentinelVoltage()
	out["flash.begin_read_us"] = probeUS(k, 1, func(i int) {
		b, wl, _, seed := r.address(i)
		r.chip.BeginRead(b, wl, seed).Close()
	})
	bufs := make([]flash.Bitmap, k)
	ops := make([]*flash.ReadOp, k)
	for i := range ops {
		b, wl, _, seed := r.address(i)
		ops[i] = r.chip.BeginRead(b, wl, seed)
		bufs[i] = flash.NewBitmap(cfg.CellsPerWordline)
	}
	out["flash.sense_us"] = probeUS(k, 1, func(i int) {
		_, _, page, _ := r.address(i)
		probeSink += float64(len(ops[i].ReadPageInto(bufs[i], page, nil)))
	})
	// The capability decode sees the error bitmap of a default read.
	errs := make([]flash.Bitmap, k)
	for i := range errs {
		b, wl, page, _ := r.address(i)
		truth := r.chip.TrueBits(b, wl, page)
		read := ops[i].ReadPage(page, nil)
		errs[i] = flash.NewBitmap(cfg.CellsPerWordline)
		for w := range errs[i] {
			errs[i][w] = read[w] ^ truth[w]
		}
	}
	senses := make([]flash.Bitmap, k)
	for i := range ops {
		senses[i] = ops[i].Sense(sv, 0)
		ops[i].Close()
	}
	out["ecc.cap_decode_us"] = probeUS(k, reps, func(i int) {
		if r.ctl.ECC.DecodePage(errs[i%k], cfg.UserCells()) {
			probeSink++
		}
	})
	out["sentinel.infer_us"] = probeUS(k, reps, func(i int) {
		d, _ := r.eng.Infer(senses[i%k])
		probeSink += d
	})
	calUS := probeUS(k, reps, func(i int) {
		ofs, _ := r.eng.CalibrationStep(1, senses[i%k], senses[(i+1)%k])
		probeSink += ofs
	})
	out["mathx.gauss_ns"] = gaussNS()
	for _, name := range []string{"flash.begin_read_us", "flash.sense_us", "ecc.cap_decode_us", "sentinel.infer_us", "mathx.gauss_ns"} {
		if err := mustPositive(name, out[name]); err != nil {
			return nil, layerTimes{}, err
		}
	}
	sentReads := traced.layer["reads.sentinel"] + traced.layer["reads.sentinel_history"]
	out["sentinel.infers_per_read"] = traced.layer["sentinel.infers"] / math.Max(sentReads, 1)

	lt := fromSpans(st, "bench.read")
	// Every BeginRead serves exactly one query (ReadPage or Sense).
	lt.move("retry", "kernel", traced.layer["flash.begin_reads"]*(out["flash.begin_read_us"]+out["flash.sense_us"])/1e6)
	lt.move("retry", "ecc", traced.layer["ecc.decodes"]*out["ecc.cap_decode_us"]/1e6)
	lt.move("retry", "sentinel", (traced.layer["sentinel.infers"]*out["sentinel.infer_us"]+
		traced.layer["sentinel.cal_steps"]*calUS)/1e6)
	if readSec > 0 {
		out["retry.self_share"] = lt.self["retry"] / readSec
	}
	return out, lt, nil
}
