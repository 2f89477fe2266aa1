package meta

import (
	"math/rand"
	"testing"
)

// The lookup cache must be observationally transparent: any sequence of
// facility operations routed through the cache returns exactly what the
// bare facility would return. A random-operation differential over both
// backends is the main guard; targeted tests pin the invalidation edges.
// Updates always carry key and lock words, so the spatial backends check
// that a cached entry reads back with them dropped, as the facility
// stores it.

func TestLookupCacheDifferentialRandomOps(t *testing.T) {
	backends := []struct {
		name string
		mk   func() Facility
	}{
		{"shadowspace", func() Facility { return NewShadowSpace(false) }},
		{"hashtable", func() Facility {
			h, err := NewHashTable(1<<12, false)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}},
		{"shadow-cets", func() Facility { return NewShadowSpace(true) }},
		{"hashtable-cets", func() Facility { return MustHashTable(1<<12, true) }},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			bare := b.mk()
			cached := NewLookupCache(b.mk())
			rng := rand.New(rand.NewSource(42))
			// Addresses cluster in a window small enough to force slot
			// reuse and conflict evictions but larger than the cache.
			addr := func() uint64 { return 0x10000 + uint64(rng.Intn(1<<14))*8 }
			for i := 0; i < 50_000; i++ {
				switch rng.Intn(10) {
				case 0, 1:
					a := addr()
					e := Entry{Base: uint64(rng.Int63()), Bound: uint64(rng.Int63()),
						Key: uint64(rng.Int63()), Lock: uint64(rng.Int63())}
					bare.Update(a, e)
					cached.Update(a, e)
				case 2:
					a, n := addr(), uint64(rng.Intn(256))
					bare.Clear(a, n)
					cached.Clear(a, n)
				case 3:
					d, s, n := addr(), addr(), uint64(rng.Intn(256))
					bare.CopyRange(d, s, n)
					cached.CopyRange(d, s, n)
				default:
					a := addr()
					if got, want := cached.Lookup(a), bare.Lookup(a); got != want {
						t.Fatalf("op %d: Lookup(%#x) = %+v, want %+v", i, a, got, want)
					}
				}
			}
			if cached.Hits() == 0 || cached.Misses() == 0 {
				t.Fatalf("degenerate run: hits=%d misses=%d", cached.Hits(), cached.Misses())
			}
		})
	}
}

func TestLookupCacheHitMissCounters(t *testing.T) {
	c := NewLookupCache(NewShadowSpace(false))
	c.Update(0x1000, Entry{Base: 1, Bound: 2})
	if e := c.Lookup(0x1000); e.Base != 1 {
		t.Fatalf("lookup after update: %+v", e)
	}
	if c.Hits() != 1 || c.Misses() != 0 {
		t.Fatalf("update must prime the slot: hits=%d misses=%d", c.Hits(), c.Misses())
	}
	c.Lookup(0x2000) // cold
	c.Lookup(0x2000) // now cached (negative entry)
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestLookupCacheNegativeCachingStaysHonest(t *testing.T) {
	c := NewLookupCache(NewShadowSpace(false))
	if e := c.Lookup(0x3000); e != (Entry{}) {
		t.Fatalf("empty facility returned %+v", e)
	}
	// The miss cached the zero entry; an Update must overwrite it.
	c.Update(0x3000, Entry{Base: 7, Bound: 8})
	if e := c.Lookup(0x3000); e.Base != 7 || e.Bound != 8 {
		t.Fatalf("stale negative entry served: %+v", e)
	}
}

func TestLookupCacheClearInvalidates(t *testing.T) {
	c := NewLookupCache(NewShadowSpace(false))
	c.Update(0x4000, Entry{Base: 1, Bound: 2})
	c.Update(0x4008, Entry{Base: 3, Bound: 4})
	c.Clear(0x4000, 8) // only the first slot
	if e := c.Lookup(0x4000); e != (Entry{}) {
		t.Fatalf("cleared slot served stale entry: %+v", e)
	}
	if e := c.Lookup(0x4008); e.Base != 3 {
		t.Fatalf("neighbour slot lost: %+v", e)
	}
	// Unaligned clear must still cover the slot containing addr.
	c.Update(0x5000, Entry{Base: 5, Bound: 6})
	c.Clear(0x5004, 1)
	if e := c.Lookup(0x5000); e != (Entry{}) {
		t.Fatalf("unaligned clear missed its slot: %+v", e)
	}
}

func TestLookupCacheBigRangeWipes(t *testing.T) {
	c := NewLookupCache(NewShadowSpace(false))
	// Two entries whose keys are cacheSlots apart share a slot index but
	// not a tag; a huge clear far away must still drop both (full wipe).
	c.Update(0x10000, Entry{Base: 1, Bound: 2})
	c.Update(0x10000+8*cacheSlots, Entry{Base: 3, Bound: 4})
	c.Clear(0x900000, 8*cacheSlots+64) // range aliases every slot
	if e := c.Lookup(0x10000); e.Base != 1 {
		t.Fatalf("inner facility damaged by wipe: %+v", e) // inner keeps it
	}
	// The lookup above was a miss (refilled); verify via counters.
	if c.Misses() == 0 {
		t.Fatal("big-range clear did not wipe the cache")
	}
}

func TestLookupCacheCopyRangeInvalidatesDestination(t *testing.T) {
	c := NewLookupCache(NewShadowSpace(false))
	c.Update(0x6000, Entry{Base: 11, Bound: 22}) // source
	c.Update(0x7000, Entry{Base: 99, Bound: 99}) // destination, cached
	c.CopyRange(0x7000, 0x6000, 8)
	if e := c.Lookup(0x7000); e.Base != 11 || e.Bound != 22 {
		t.Fatalf("destination served pre-copy entry: %+v", e)
	}
}

func TestLookupCacheDelegates(t *testing.T) {
	inner := NewShadowSpace(false)
	c := NewLookupCache(inner)
	if c.Kind() != inner.Kind() || c.Costs() != inner.Costs() {
		t.Fatal("cache must not change the modeled scheme identity")
	}
	c.Update(0x8000, Entry{Base: 1, Bound: 2})
	if c.Occupancy() != inner.Occupancy() {
		t.Fatal("footprint must delegate (the lookaside is modeled hardware)")
	}
}
