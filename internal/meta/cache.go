package meta

// LookupCache is a small direct-mapped cache in front of a Facility's
// Lookup, modeling the bounds-lookaside structures HardBound proposes for
// hardware metadata schemes: the common case of re-looking-up the same
// pointer slot (loop-carried pointers, repeated traversals) hits a
// fixed-cost probe instead of the facility's full lookup sequence.
//
// Invalidation contract: the cache is write-through and must observe
// every mutation of the underlying facility — all Update, Clear, and
// CopyRange calls have to go through the cache once it is installed.
// The VM guarantees this by replacing its facility reference with the
// cache at construction time; nothing else holds the inner facility.
// Under fault injection the driver disables the cache entirely: the
// injector's Lookup is effectful (it consumes the scheduled drop/corrupt
// events), so serving hits from a cache would change which lookups the
// faults land on.
//
// The cache is an accelerator for the Go interpreter's wall clock, not a
// change to the simulated machine: SimInsts still charges the facility's
// modeled lookup cost for every KMetaLoad, so fast- and reference-engine
// runs stay bit-identical on all modeled stats. The cache's own modeled
// economics are reported separately (Hits/Misses and a derived cost line
// in metrics), priced at CacheHitCost instructions per probe.
type LookupCache struct {
	inner Facility
	// tags[i] holds the double-word key (addr>>3) cached in slot i, or 0
	// for empty; key 0 would be the first 8 bytes of the address space,
	// which is never a mapped pointer slot.
	tags [cacheSlots]uint64
	data [cacheSlots]Entry

	hits, misses uint64
}

const (
	// cacheSlots is the direct-mapped capacity; a power of two so the
	// index is a mask. 256 entries × 24 bytes keeps the whole structure
	// inside a few hardware cache lines per VM.
	cacheSlots = 256

	// CacheHitCost is the modeled x86 instruction footprint of one probe
	// (shift, mask, tag load+compare, two data loads — the same
	// accounting style as the facility costs in this package's doc).
	CacheHitCost = 4
)

// NewLookupCache wraps inner with an empty cache.
func NewLookupCache(inner Facility) *LookupCache {
	return &LookupCache{inner: inner}
}

// Lookup probes the cache and falls back to the inner facility on a
// miss, filling the slot (negative results — zero entries — are cached
// too; invalidation keeps them honest).
func (c *LookupCache) Lookup(addr uint64) Entry {
	k := addr >> 3
	s := k & (cacheSlots - 1)
	if c.tags[s] == k {
		c.hits++
		return c.data[s]
	}
	c.misses++
	e := c.inner.Lookup(addr)
	c.tags[s] = k
	c.data[s] = e
	return e
}

// Update writes through: the inner facility is updated and the slot is
// refreshed so a following Lookup hits.
func (c *LookupCache) Update(addr uint64, e Entry) {
	c.inner.Update(addr, e)
	k := addr >> 3
	s := k & (cacheSlots - 1)
	c.tags[s] = k
	c.data[s] = e
}

// Clear forwards to the inner facility and invalidates every cached slot
// the range could cover.
func (c *LookupCache) Clear(addr, size uint64) {
	c.inner.Clear(addr, size)
	c.invalidate(addr, size)
}

// CopyRange forwards to the inner facility and invalidates the
// destination range (the source is unchanged).
func (c *LookupCache) CopyRange(dst, src, size uint64) {
	c.inner.CopyRange(dst, src, size)
	c.invalidate(dst, size)
}

// invalidate drops cached entries for the double-word slots of
// [addr, addr+size). A range spanning at least cacheSlots keys (or one
// that wraps the address space) aliases every slot, so the whole cache
// is wiped instead of walking it.
func (c *LookupCache) invalidate(addr, size uint64) {
	if size == 0 {
		return
	}
	first := addr >> 3
	last := (addr + size - 1) >> 3
	if addr+size-1 < addr || last-first+1 >= cacheSlots {
		c.tags = [cacheSlots]uint64{}
		return
	}
	for k := first; k <= last; k++ {
		s := k & (cacheSlots - 1)
		if c.tags[s] == k {
			c.tags[s] = 0
		}
	}
}

// Costs, Occupancy, and Name delegate to the inner facility: the cache
// does not change the modeled metadata scheme, only the interpreter's
// wall clock (see the type comment).
func (c *LookupCache) Costs() Costs { return c.inner.Costs() }

// Occupancy delegates: the cache holds copies, not additional entries,
// and the lookaside models a hardware structure, so it adds no simulated
// memory overhead to Bytes.
func (c *LookupCache) Occupancy() Occupancy { return c.inner.Occupancy() }

// Name delegates so scheme-keyed reporting is unchanged.
func (c *LookupCache) Name() string { return c.inner.Name() }

// Hits returns the number of Lookup calls served from the cache.
func (c *LookupCache) Hits() uint64 { return c.hits }

// Misses returns the number of Lookup calls that fell through.
func (c *LookupCache) Misses() uint64 { return c.misses }
