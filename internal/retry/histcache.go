package retry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
)

// HistCache is a sharded, lock-striped last-known-good offset cache
// keyed by block: the adaptive read policies (HistoryPolicy,
// SentinelHistoryPolicy) start each read at the block's cached offset
// vector so the first attempt usually lands, in the spirit of the
// AR²/PR² follow-on literature.
//
// Layout: a power-of-2 number of shards, each a mutex-guarded
// bounded-capacity entry table with CLOCK (second-chance) eviction.
// Blocks route to shards by a stateless hash, so unrelated blocks
// contend on different locks. The total capacity derives from a byte
// budget at construction.
//
// Determinism: cache contents are a set — the same (block, offsets)
// writes produce the same contents regardless of arrival order, as long
// as no shard exceeds its capacity (eviction order is the only
// order-sensitive behaviour). Replay paths therefore warm the cache
// sequentially under capacity and read it frozen (WriteBack off), which
// makes replay reports byte-identical at any worker count; live
// write-back is for serving paths where determinism is not contractual.
// Snapshot walks shards in index order and sorts entries by block, so
// equal contents render identically.
type HistCache struct {
	shards []histShard
	mask   uint64
	nv     int
	bound  float64
	perCap int

	hits   atomic.Int64
	misses atomic.Int64
	stores atomic.Int64
	evicts atomic.Int64
}

// histShard is one lock stripe: a bounded entry table with its CLOCK
// hand. index maps block -> position in entries.
type histShard struct {
	mu      sync.Mutex
	index   map[int]int
	entries []histEntry
	hand    int
}

// histEntry is one block's last-known-good offsets plus its CLOCK
// reference bit.
type histEntry struct {
	block int
	ofs   flash.Offsets
	ref   bool
}

// histEntryBytes estimates the resident size of one cache entry for the
// byte-budget capacity derivation: the entry struct, its offsets
// backing array, and the index map slot.
func histEntryBytes(nv int) int { return 96 + nv*8 }

// NewHistCache builds a cache of shardCount lock stripes (rounded up to
// a power of two) whose total capacity fits budgetBytes, for offset
// vectors of nv read voltages. bound, when positive, clamps every
// stored offset component to [-bound, bound] — feed the sentinel
// engine's OffsetBound so a wild write-back can never push reads
// outside the inference domain.
func NewHistCache(shardCount int, budgetBytes int, nv int, bound float64) (*HistCache, error) {
	if shardCount < 1 {
		return nil, fmt.Errorf("retry: hist cache needs >= 1 shard, got %d", shardCount)
	}
	if nv < 1 {
		return nil, fmt.Errorf("retry: hist cache needs >= 1 voltage, got %d", nv)
	}
	if budgetBytes < histEntryBytes(nv) {
		return nil, fmt.Errorf("retry: hist cache budget %dB below one entry (%dB)",
			budgetBytes, histEntryBytes(nv))
	}
	if bound < 0 {
		return nil, fmt.Errorf("retry: negative hist cache bound %g", bound)
	}
	shards := 1
	for shards < shardCount {
		shards <<= 1
	}
	perCap := budgetBytes / histEntryBytes(nv) / shards
	if perCap < 1 {
		perCap = 1
	}
	c := &HistCache{
		shards: make([]histShard, shards),
		mask:   uint64(shards - 1),
		nv:     nv,
		bound:  bound,
		perCap: perCap,
	}
	for i := range c.shards {
		c.shards[i].index = make(map[int]int, perCap)
	}
	return c, nil
}

// shardOf routes a block to its lock stripe.
func (c *HistCache) shardOf(block int) *histShard {
	return &c.shards[mathx.Mix(0x8157cace, uint64(int64(block)))&c.mask]
}

// Cap returns the total entry capacity across shards.
func (c *HistCache) Cap() int { return c.perCap * len(c.shards) }

// Shards returns the shard (lock stripe) count.
func (c *HistCache) Shards() int { return len(c.shards) }

// Len returns the number of resident entries.
func (c *HistCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Get returns a copy of block's last-known-good offsets, marking the
// entry recently used. The caller owns the returned vector.
func (c *HistCache) Get(block int) (flash.Offsets, bool) {
	ofs, ok := c.lookup(block)
	return ofs.Clone(), ok
}

// lookup is Get without the copy, for the read sessions: the vector is
// the cache's own and read-only (Put stores a fresh vector and never
// writes an old one), so a read can apply it, and report it as
// Result.FinalOffsets, without allocating.
func (c *HistCache) lookup(block int) (flash.Offsets, bool) {
	if block < 0 {
		c.misses.Add(1)
		return nil, false
	}
	s := c.shardOf(block)
	s.mu.Lock()
	i, ok := s.index[block]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.entries[i].ref = true
	ofs := s.entries[i].ofs
	s.mu.Unlock()
	c.hits.Add(1)
	return ofs, true
}

// Put stores block's offsets (copied, truncated or zero-padded to the
// cache's voltage count, each component clamped to the bound) and
// reports whether the store evicted another entry. Negative blocks are
// ignored.
func (c *HistCache) Put(block int, ofs flash.Offsets) (evicted bool) {
	if block < 0 {
		return false
	}
	stored := make(flash.Offsets, c.nv)
	for v := 0; v < c.nv && v < len(ofs); v++ {
		o := ofs[v]
		if c.bound > 0 {
			if o > c.bound {
				o = c.bound
			} else if o < -c.bound {
				o = -c.bound
			}
		}
		stored[v] = o
	}
	s := c.shardOf(block)
	s.mu.Lock()
	if i, ok := s.index[block]; ok {
		s.entries[i].ofs = stored
		s.entries[i].ref = true
		s.mu.Unlock()
		c.stores.Add(1)
		return false
	}
	if len(s.entries) < c.perCap {
		s.index[block] = len(s.entries)
		s.entries = append(s.entries, histEntry{block: block, ofs: stored, ref: true})
		s.mu.Unlock()
		c.stores.Add(1)
		return false
	}
	// CLOCK second chance: sweep the hand, clearing reference bits,
	// until an unreferenced victim turns up. Bounded: after one full
	// sweep every bit is clear.
	for s.entries[s.hand].ref {
		s.entries[s.hand].ref = false
		s.hand = (s.hand + 1) % len(s.entries)
	}
	victim := s.hand
	delete(s.index, s.entries[victim].block)
	s.entries[victim] = histEntry{block: block, ofs: stored, ref: true}
	s.index[block] = victim
	s.hand = (victim + 1) % len(s.entries)
	s.mu.Unlock()
	c.stores.Add(1)
	c.evicts.Add(1)
	return true
}

// HistEntry is one Snapshot row.
type HistEntry struct {
	Block   int
	Offsets flash.Offsets
}

// Snapshot returns every resident entry, shards in index order and
// blocks ascending within each shard — equal contents always render
// identically, whatever order (or worker count) produced them.
func (c *HistCache) Snapshot() []HistEntry {
	var out []HistEntry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		start := len(out)
		for _, e := range s.entries {
			out = append(out, HistEntry{Block: e.block, Offsets: e.ofs.Clone()})
		}
		s.mu.Unlock()
		part := out[start:]
		sort.Slice(part, func(a, b int) bool { return part[a].Block < part[b].Block })
	}
	return out
}

// HistCacheStats are the cache's cumulative operation counts.
type HistCacheStats struct {
	Hits, Misses, Stores, Evicts int64
}

// Stats returns the cumulative operation counts.
func (c *HistCache) Stats() HistCacheStats {
	return HistCacheStats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Stores: c.stores.Load(),
		Evicts: c.evicts.Load(),
	}
}
