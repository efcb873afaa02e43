package ssdsim

import "sentinel3d/internal/ftl"

// device is the read-cost model of one (sub-)device, shared by the
// replay Sim and the serving Fleet's shards: the FTL, the lookup tables
// that replace per-page divisions (plane→die, plane→channel, page →
// page type), and Config.Lat's per-read arithmetic folded into
// constants. It owns no queueing state — the Sim adds die/channel
// busy-until clocks on top; the Fleet charges each request alone.
type device struct {
	ftl         *ftl.FTL
	planeDie    []int32
	planeChan   []int32
	pageType    []uint8
	senseByType [4]float64 // SenseBase + levels(pt)*SensePerLevel
	auxSenseUS  float64    // SenseBase + SensePerLevel
	xferUS      float64    // Transfer
	xferBurstUS float64    // Transfer + ECCDecode
}

// newDevice builds a device with a fresh FTL over cfg's geometry. cfg
// must already be validated.
func newDevice(cfg Config) (device, error) {
	f, err := ftl.New(cfg.Geo)
	if err != nil {
		return device{}, err
	}
	d := device{
		ftl:         f,
		planeDie:    make([]int32, cfg.Geo.Planes()),
		planeChan:   make([]int32, cfg.Geo.Planes()),
		pageType:    make([]uint8, cfg.Geo.PagesPerBlock),
		auxSenseUS:  cfg.Lat.SenseBase + cfg.Lat.SensePerLevel,
		xferUS:      cfg.Lat.Transfer,
		xferBurstUS: cfg.Lat.Transfer + cfg.Lat.ECCDecode,
	}
	for p := range d.planeDie {
		d.planeDie[p] = int32(cfg.Geo.Die(p))
		d.planeChan[p] = int32(cfg.Geo.Channel(p))
	}
	for p := range d.pageType {
		d.pageType[p] = uint8(p % cfg.Bits)
	}
	for pt := 0; pt < cfg.Bits; pt++ {
		d.senseByType[pt] = cfg.Lat.SenseBase + float64(levelsOf(pt))*cfg.Lat.SensePerLevel
	}
	return d, nil
}

// readCost returns the die time (one sense per attempt plus one cheap
// single-voltage sense per auxiliary read) and the channel time (one
// transfer and ECC decode per attempt plus one transfer per auxiliary
// read) of a page read of pageType with outcome out.
func (d *device) readCost(out *RetryOutcome, pageType int) (dieTime, chanTime float64) {
	attempts := float64(out.Retries + 1)
	aux := float64(out.AuxSenses)
	return attempts*d.senseByType[pageType] + aux*d.auxSenseUS,
		attempts*d.xferBurstUS + aux*d.xferUS
}
