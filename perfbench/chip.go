package main

import (
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/sentinel"
)

// Chip geometry shared by the chip-backed workloads: the repository's
// quick scale (16k-cell wordlines, 32 wordlines per block, ~330 sentinel
// cells per wordline).
const (
	chipLayers      = 16
	chipWLsPerLayer = 2
	chipCells       = 16384
	sentinelRatio   = 0.02
)

// modelTrainSeed and evalChipSeed fix the two devices: the
// characterization chip the manufacturer trains on and the chip under
// test (its process variation). Like a hardware sample on a test bench,
// they are the same for every workload seed; the data programmed onto
// the chip, the addresses read and every sensing-noise draw come from
// the seed.
const (
	modelTrainSeed = 0x5e1f
	evalChipSeed   = 0xc41b
)

func chipConfig(kind flash.Kind, blocks int, seed uint64) flash.Config {
	return flash.Config{
		Kind:              kind,
		Blocks:            blocks,
		Layers:            chipLayers,
		WordlinesPerLayer: chipWLsPerLayer,
		CellsPerWordline:  chipCells,
		OOBFraction:       0.119,
		Seed:              seed,
		CacheZ:            true,
	}
}

func sentinelLayout() sentinel.Layout {
	return sentinel.Layout{Ratio: sentinelRatio, Placement: sentinel.TailOOB}
}

// trainModel characterizes a training chip across a fresh-to-worn
// stress grid and fits the inference model (paper Section III-D). It is
// part of every chip-backed workload's set-up time.
func trainModel(kind flash.Kind, wlsPerPoint int) (*sentinel.Model, error) {
	chip, err := flash.New(chipConfig(kind, 1, modelTrainSeed))
	if err != nil {
		return nil, err
	}
	var pts []sentinel.StressPoint
	for _, pe := range []int{0, 1000, 3000, 5000} {
		for _, h := range []float64{168, 2880, physics.YearHours} {
			pts = append(pts, sentinel.StressPoint{PECycles: pe, Hours: h, TempC: physics.RoomTempC})
		}
	}
	return sentinel.Train(chip, sentinel.TrainConfig{
		Points:            pts,
		WordlinesPerPoint: wlsPerPoint,
		Layout:            sentinelLayout(),
		PolyDegree:        5,
		MeasureReads:      2,
		Seed:              mathx.Mix(modelTrainSeed, 0x7ea1),
	})
}

// programBlock writes random data (with the sentinel pattern) to every
// wordline of block b; each wordline draws from its own stream, so the
// data is the same at any worker count.
func programBlock(chip *flash.Chip, eng *sentinel.Engine, b int, seed uint64) error {
	cfg := chip.Config()
	n := chip.Coding().States()
	return parallel.ForEachErr(cfg.WordlinesPerBlock(), func(wl int) error {
		rng := mathx.NewRand(mathx.Mix4(seed, 0xda7a, uint64(b), uint64(wl)))
		states := make([]uint8, cfg.CellsPerWordline)
		for i := range states {
			states[i] = uint8(rng.Intn(n))
		}
		eng.Prepare(states)
		return chip.ProgramStates(b, wl, states)
	})
}

// probeSink keeps the compiler from removing the probed calls.
var probeSink float64

// gaussNS is the cost of one mathx.GaussFromHash in ns, the Gaussian
// draw the read kernel makes per cell per read.
func gaussNS() float64 {
	return probeUS(64, 4096, func(i int) { probeSink += mathx.GaussFromHash(mathx.Hash64(uint64(i))) }) * 1e3
}
