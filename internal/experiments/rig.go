package experiments

import (
	"fmt"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/ftl"
	"sentinel3d/internal/retry"
	"sentinel3d/internal/sentinel"
	"sentinel3d/internal/ssdsim"
)

// Rig is the evaluation recipe of Figs 13 and 14: a sentinel model
// trained on one chip, a second chip of the same batch programmed with
// the sentinel pattern and aged to a stress point, its retry controller,
// and the two policies every comparison reads with — the vendor retry
// table and the sentinel policy. The retry and trace experiments and
// the scenario replay cells build their chips through a Rig; sites that
// need a custom sentinel layout, calibrator, model or ECC capability,
// or a chip without sentinels, call the primitives directly.
type Rig struct {
	Model    *sentinel.Model
	Cfg      flash.Config
	Engine   *sentinel.Engine
	Chip     *flash.Chip
	Ctl      *retry.Controller
	Table    *retry.DefaultTablePolicy
	Sentinel *retry.SentinelPolicy
}

// PolicyNames lists, in a fixed order, the retry policies Rig.Policy
// builds by name.
var PolicyNames = []string{"table", "sentinel", "fallback", "history", "ar2", "sentinel+history"}

// Rig trains a model on chip trainSeed (memoized, see TrainModel) and
// builds the evaluation chip chipSeed aged to pe cycles and hours of
// room-temperature retention, with its controller and base policies.
func (s Scale) Rig(kind flash.Kind, trainSeed, chipSeed uint64, pe int, hours float64) (*Rig, error) {
	model, err := s.TrainModel(kind, trainSeed)
	if err != nil {
		return nil, err
	}
	cfg := s.ChipConfig(kind, chipSeed)
	eng, err := s.Engine(model, cfg)
	if err != nil {
		return nil, err
	}
	chip, err := s.BuildEvalChip(kind, chipSeed, eng, pe, hours)
	if err != nil {
		return nil, err
	}
	ctl, err := s.Controller(chip, s.MaxRetries)
	if err != nil {
		return nil, err
	}
	return &Rig{
		Model: model, Cfg: cfg, Engine: eng, Chip: chip, Ctl: ctl,
		Table:    retry.NewDefaultTable(chip, s.TableStep),
		Sentinel: retry.NewSentinelPolicy(eng),
	}, nil
}

// Policy builds the named retry policy (one of PolicyNames) over the
// rig's table and sentinel policies. "fallback" probes block 0 through
// wordline 0 of the chip as it is at the call, faults included. Each
// history-backed policy gets its own offset-history cache, warmed from
// sentinel inference at wordline 0 of block 0 and then frozen
// (write-back off), so sampler pools built on it are a pure function
// of the rig.
func (r *Rig) Policy(name string) (retry.Policy, error) {
	switch name {
	case "table":
		return r.Table, nil
	case "sentinel":
		return r.Sentinel, nil
	case "fallback":
		fb := retry.NewFallback(r.Sentinel, r.Table)
		fb.ProbeBlock(r.Chip, 0, 0)
		return fb, nil
	case "ar2":
		return retry.NewAR2(r.Table), nil
	case "history", "sentinel+history":
		cache, err := retry.NewHistCache(4, 64<<10, r.Chip.Coding().NumVoltages(), r.Engine.OffsetBound())
		if err != nil {
			return nil, err
		}
		retry.WarmHistCache(cache, r.Chip, r.Engine, []int{0}, 0, 0x9157)
		if name == "history" {
			return retry.NewHistoryPolicy(cache, r.Table, false), nil
		}
		return retry.NewSentinelHistory(cache, r.Sentinel, false), nil
	}
	return nil, fmt.Errorf("experiments: unknown policy %q", name)
}

// Pool measures the named policy's retry-outcome sampler on block 0:
// every page of every listed wordline, read three times.
func (r *Rig) Pool(name string, wls []int, seed uint64) (*ssdsim.EmpiricalSampler, error) {
	pol, err := r.Policy(name)
	if err != nil {
		return nil, err
	}
	return ssdsim.BuildSampler(r.Ctl, pol, 0, wls, 3, seed)
}

// spreadWLs returns the wordlines the trace experiments sample their
// pools over: every (n/16)-th wordline of the block, from wordline 0.
func (r *Rig) spreadWLs() []int {
	nwl := r.Cfg.WordlinesPerBlock()
	step := nwl / 16
	if step < 1 {
		step = 1
	}
	var wls []int
	for wl := 0; wl < nwl; wl += step {
		wls = append(wls, wl)
	}
	return wls
}

// ReplayGeometry is the 4-channel device the trace experiments, the
// scenario replay cells and the serve cell replay against.
func ReplayGeometry() ftl.Geometry {
	return ftl.Geometry{
		Channels: 4, ChipsPerChan: 1, DiesPerChip: 2, PlanesPerDie: 2,
		BlocksPerPlane: 32, PagesPerBlock: 192,
	}
}
