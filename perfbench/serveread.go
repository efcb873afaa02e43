package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/serve"
	"sentinel3d/internal/ssdsim"
)

// serve_read: flashd in process (serve.New + Start on loopback, 2 fleet
// shards) with two tenants — gold reads single pages under the sentinel
// policy, bronze reads batches of 3 under the static table. Each pass
// starts with one round of serve.RunBench over 2 connections (one worker
// per tenant), whose deterministic report is the digest; the timed phase
// is a closed loop over 2 connections that sends the benchmark's own
// requests back to back and times each from its send, for ops_per_s and
// op_p50_ms. The traced run adds an open loop at a fixed rate below
// capacity, timed from each request's due time: it leaves the host idle
// between requests, so its latency follows how fast the host wakes an
// idle vCPU (a busy neighbour cut it by a third), not the program alone,
// and it is reported per layer. HTTP, JSON, admission and the Fleet do
// the work; no physics runs.

var serveRead = workload{
	name:     "serve_read",
	setup:    setupServeRead,
	checkOps: func(options) int { return 1 },
	simOps:   func(options) int { return 1 },
}

const (
	// srvRoundRequests is each tenant's request count in the RunBench
	// round.
	srvRoundRequests = 4000
	// srvLatencyCap bounds the latency loop's request count, and with it
	// the memory its samples take: 1<<20 is over 30 s at the 32,000
	// requests/s a 2-vCPU host reached.
	srvLatencyCap = 1 << 20
	// srvOpenRate and srvOpenRequests are the traced run's open loop:
	// its fixed arrival rate (requests/s) and its request count.
	srvOpenRate     = 1000
	srvOpenRequests = 5000
	srvConns        = 2
	srvBatch        = 3
)

type srvInstance struct {
	seed   uint64
	fleet  ssdsim.FleetConfig
	srv    *serve.Server
	url    string
	client *http.Client
	maxLPN int64
	round  int64
	// latencyCap bounds the latency loop's requests; openRequests is
	// the traced run's open-loop request count.
	latencyCap, openRequests int64
	stopped                  bool
}

func srvFleetConfig(seed uint64) ssdsim.FleetConfig {
	sim := ssdsim.DefaultConfig()
	sim.Geo = trGeometry
	sim.Seed = mathx.Mix(seed, 0x5e7e)
	return ssdsim.FleetConfig{Sim: sim, Shards: 2, Samplers: serve.DefaultSamplers()}
}

func setupServeRead(seed uint64, o options) (instance, error) {
	fc := srvFleetConfig(seed)
	srv, err := serve.New(serve.Config{
		Fleet: fc,
		Tenants: []serve.TenantConfig{
			{Name: "gold", Tier: 0, SLOMs: 20, Policy: "sentinel", DeadlineMs: 1000},
			{Name: "bronze", Tier: 2, SLOMs: 200, Policy: "table", DeadlineMs: 1000},
		},
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, err
	}
	s := &srvInstance{
		seed: seed, fleet: fc, srv: srv, url: "http://" + srv.Addr(),
		maxLPN: srv.Fleet().PremapPages(), round: srvRoundRequests,
		latencyCap: srvLatencyCap, openRequests: srvOpenRequests,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: srvConns, MaxIdleConnsPerHost: srvConns,
		}},
	}
	if o.tiny {
		s.round, s.latencyCap, s.openRequests = 40, 1000, 40
	}
	return s, nil
}

// close drains the server (a no-op when the traced run already did).
func (s *srvInstance) close() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

func (s *srvInstance) benchConfig() serve.BenchConfig {
	return serve.BenchConfig{
		BaseURL: s.url, Seed: s.seed, MaxLPN: s.maxLPN, Client: s.client,
		Tenants: []serve.BenchTenant{
			{Name: "gold", Workers: 1, Requests: s.round},
			{Name: "bronze", Workers: 1, Requests: s.round, BatchSize: srvBatch},
		},
	}
}

// roundDigest hashes a closed-loop report's deterministic part and its
// accounting identity.
func roundDigest(rep *serve.BenchReport) (string, error) {
	var buf bytes.Buffer
	if err := rep.Deterministic().WriteJSON(&buf); err != nil {
		return "", err
	}
	var d digester
	d.str(buf.String())
	d.str(fmt.Sprint(rep.AccountingErr()))
	return d.sum(), nil
}

func (s *srvInstance) pass(cfg passConfig) (*passResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.workers))
	res := &passResult{layer: map[string]float64{}}
	rep, err := serve.RunBench(context.Background(), s.benchConfig())
	if err != nil {
		return nil, err
	}
	if res.digest, err = roundDigest(rep); err != nil {
		return nil, err
	}
	var shed, queueFull, deadline float64
	for _, t := range rep.Tenants {
		res.attempted += t.Requests
		res.failed += t.Requests - t.OK
		shed += float64(t.Shed)
		queueFull += float64(t.QueueFull)
		deadline += float64(t.Deadline)
	}
	if err := rep.AccountingErr(); err != nil {
		res.model = append(res.model, "CORRECTNESS: "+err.Error())
		res.failed++
	}
	if cfg.simOps > 0 {
		res.sim, res.model = s.simulated(rep, res.model)
	}

	if cfg.dur > 0 {
		lat, codes, rates, wall := s.latencyLoop(cfg.dur, cfg.tr)
		res.latMS, res.rates = lat, rates
		res.ops, res.wall = int64(len(lat)), wall
		res.attempted += res.ops
		for _, n := range codes {
			res.failed += int64(n)
		}
		shed += codes["shed"]
		queueFull += codes["queue_full"]
		deadline += codes["deadline"]
		res.model = append(res.model, fmt.Sprintf("latency loop: %d requests back to back over %d connections, %.0f requests/s",
			len(lat), srvConns, res.opsPerSec()))
	}
	res.layer["serve.shed"] = shed
	res.layer["serve.queue_full"] = queueFull
	res.layer["serve.deadline"] = deadline
	return res, nil
}

// simulated reads the sim metrics of the sentinel tenant off the
// RunBench report and compares its retries with the table tenant's.
func (s *srvInstance) simulated(rep *serve.BenchReport, lines []string) (simMetrics, []string) {
	var gold, bronze serve.TenantReport
	for _, t := range rep.Tenants {
		switch t.Tenant {
		case "gold":
			gold = t
		case "bronze":
			bronze = t
		}
	}
	goldReads := float64(gold.OK)
	bronzeReads := float64(bronze.OK * srvBatch)
	gr, br := float64(gold.Retries)/goldReads, float64(bronze.Retries)/bronzeReads
	sm := simMetrics{
		readUSMean:    gold.SimMeanUS,
		readUSP99:     gold.SimP99US,
		sensesPerRead: (goldReads + float64(gold.Retries+gold.AuxSenses)) / goldReads,
	}
	return sm, append(lines, fmt.Sprintf("model: closed loop, %d requests per tenant: retries per page read sentinel (gold) %.4f vs table (bronze) %.4f, %.2f%% fewer; sim p99 gold %.1f us, bronze %.1f us",
		s.round, gr, br, 100*(1-gr/br), gold.SimP99US, bronze.SimP99US))
}

// request is the latency loop's k-th request: gold single reads and
// bronze batches alternate.
func (s *srvInstance) request(k int64) serve.ReadRequest {
	rng := mathx.NewRand(mathx.Mix3(s.seed, 0x09e7, uint64(k)))
	if k%2 == 0 {
		lpn := int64(rng.Intn(int(s.maxLPN)))
		return serve.ReadRequest{Tenant: "gold", LPN: &lpn}
	}
	req := serve.ReadRequest{Tenant: "bronze", Batch: make([]serve.BatchRead, srvBatch)}
	for i := range req.Batch {
		req.Batch[i] = serve.BatchRead{LPN: int64(rng.Intn(int(s.maxLPN)))}
	}
	return req
}

type openResult struct {
	latMS, lateMS []float64
	failed        int64
}

// openLoop sends n requests on a fixed due-time schedule from srvConns
// senders. A request is timed from its due time, so a stall that makes
// later requests wait counts against them; lateness is how far past its
// due time the request was actually sent.
func (s *srvInstance) openLoop(n int64) openResult {
	out := openResult{latMS: make([]float64, n), lateMS: make([]float64, n)}
	var next, failed atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(srvConns)
	for c := 0; c < srvConns; c++ {
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= n {
					return
				}
				due := start.Add(time.Duration(float64(k) / srvOpenRate * float64(time.Second)))
				sleepUntil(due)
				sent := time.Now()
				if s.do(s.request(k), k, nil) != "" {
					failed.Add(1)
				}
				done := time.Now()
				out.latMS[k] = float64(done.Sub(due).Nanoseconds()) / 1e6
				out.lateMS[k] = float64(sent.Sub(due).Nanoseconds()) / 1e6
			}
		}()
	}
	wg.Wait()
	out.failed = failed.Load()
	return out
}

// latencyLoop sends requests back to back from srvConns senders until
// dur has passed (or s.latencyCap requests are sent) and times each from
// its send to its reply, in ms, in request order. It returns the failed
// requests' codes, the completion rate of every full rateWindow and the
// wall seconds. The latency buffer is written
// through once before the loop, so the run's peak memory does not grow
// with the number of requests the host completes.
func (s *srvInstance) latencyLoop(dur time.Duration, tr *tracer) ([]float64, map[string]float64, []float64, float64) {
	lat := make([]float64, s.latencyCap)
	for k := range lat {
		lat[k] = math.NaN()
	}
	codes := map[string]float64{}
	var mu sync.Mutex
	var next atomic.Int64
	windows := make([]atomic.Int64, int(dur/rateWindow)+1)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(srvConns)
	for c := 0; c < srvConns; c++ {
		go func() {
			defer wg.Done()
			// A sender claims a request only before the deadline and
			// always completes it, so the sent requests are a prefix.
			for time.Now().Before(deadline) {
				k := next.Add(1) - 1
				if k >= int64(len(lat)) {
					return
				}
				t0 := time.Now()
				code := s.do(s.request(k), k, tr)
				lat[k] = float64(time.Since(t0).Nanoseconds()) / 1e6
				if w := int(time.Since(start) / rateWindow); w < len(windows) {
					windows[w].Add(1)
				}
				if code != "" {
					mu.Lock()
					codes[code]++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	rates := make([]float64, min(int(wall/rateWindow), len(windows)))
	for w := range rates {
		rates[w] = float64(windows[w].Load()) / rateWindow.Seconds()
	}
	return lat[:min(next.Load(), int64(len(lat)))], codes, rates, wall.Seconds()
}

// do sends one /read and returns "" for a 200 or the failure's code.
func (s *srvInstance) do(req serve.ReadRequest, k int64, tr *tracer) string {
	root := tr.start("bench.request", k, 0)
	defer root.end()
	sp := tr.start("bench.encode", k, root.id())
	body, err := json.Marshal(req)
	sp.end()
	if err != nil {
		return "encode"
	}
	sp = tr.start("serve.roundtrip", k, root.id())
	resp, err := s.client.Post(s.url+"/read", "application/json", bytes.NewReader(body))
	if err != nil {
		sp.end()
		return "transport"
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end()
	if err != nil {
		return "transport"
	}
	sp = tr.start("bench.decode", k, root.id())
	defer sp.end()
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(data, &eb)
		if eb.Error == "" {
			eb.Error = fmt.Sprint(resp.StatusCode)
		}
		return eb.Error
	}
	var rr serve.ReadResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return "decode"
	}
	return ""
}

func (s *srvInstance) layers(traced *passResult, tr *tracer) (map[string]float64, layerTimes, error) {
	st := tr.stats()
	out := map[string]float64{}
	for k, v := range traced.layer {
		out[k] = v
	}
	// The open loop, untraced, before the drain.
	n := s.openRequests
	ol := s.openLoop(n)
	if ol.failed > 0 {
		return nil, layerTimes{}, fmt.Errorf("open loop: %d of %d requests failed", ol.failed, n)
	}
	out["serve_p50_ms"] = mathx.Percentile(ol.latMS, 50)
	out["serve_p99_ms"] = mathx.Percentile(ol.latMS, 99)
	out["loadgen.late_p99_ms"] = mathx.Percentile(ol.lateMS, 99)
	traced.model = append(traced.model, fmt.Sprintf("open loop: %d requests at %d/s over %d connections, from due time p50 %.4f ms, p99 %.4f ms; generator late p50 %.4f ms, p99 %.4f ms",
		n, srvOpenRate, srvConns, out["serve_p50_ms"], out["serve_p99_ms"], mathx.Median(ol.lateMS), out["loadgen.late_p99_ms"]))

	// Drain after the load, idle client connections left open.
	t0 := time.Now()
	err := s.close()
	out["serve.drain_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return nil, layerTimes{}, fmt.Errorf("drain: %w", err)
	}

	// Fleet.Submit driven directly with the latency loop's LPN stream.
	requests := int64(st["bench.request"].n)
	submitUS, waitUS, submits, err := s.probeFleet(requests)
	if err != nil {
		return nil, layerTimes{}, err
	}
	out["ssdsim.fleet_submit_us"] = submitUS
	out["ssdsim.fleet_queue_wait_us"] = waitUS
	rt := st["serve.roundtrip"]
	perReq := float64(submits) / float64(requests)
	out["serve.http_self_us"] = rt.meanUS() - perReq*submitUS
	for _, name := range []string{"ssdsim.fleet_submit_us", "serve.http_self_us"} {
		if err := mustPositive(name, out[name]); err != nil {
			return nil, layerTimes{}, err
		}
	}
	lt := fromSpans(st, "bench.request")
	lt.move("serve", "ssdsim", float64(submits)*submitUS/1e6)
	return out, lt, nil
}

// probeFleet submits the first n latency-loop requests' reads to a fresh
// fleet from srvConns goroutines, the way the server's handlers do, and
// returns the mean Submit time, the mean queue wait and the submit count.
func (s *srvInstance) probeFleet(n int64) (submitUS, waitUS float64, submits int64, err error) {
	f, err := ssdsim.NewFleet(s.fleet)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	var reads []ssdsim.FleetRead
	for k := int64(0); k < n; k++ {
		req := s.request(k)
		if req.LPN != nil {
			reads = append(reads, ssdsim.FleetRead{LPN: *req.LPN, Pages: 1, Policy: "sentinel"})
			continue
		}
		for _, b := range req.Batch {
			reads = append(reads, ssdsim.FleetRead{LPN: b.LPN, Pages: 1, Policy: "table"})
		}
	}
	var next atomic.Int64
	var mu sync.Mutex
	var took, waited []float64
	var firstErr error
	var wg sync.WaitGroup
	wg.Add(srvConns)
	for c := 0; c < srvConns; c++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(reads)) {
					return
				}
				t0 := time.Now()
				res, err := f.Submit(context.Background(), reads[i])
				d := time.Since(t0)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				took = append(took, float64(d.Nanoseconds())/1e3)
				waited = append(waited, float64(res.QueueWait.Nanoseconds())/1e3)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, 0, 0, fmt.Errorf("fleet probe: %w", firstErr)
	}
	return mathx.Mean(took), mathx.Mean(waited), int64(len(reads)), nil
}
