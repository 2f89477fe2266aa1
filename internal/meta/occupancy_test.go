package meta

import "testing"

// occupancyScan recomputes Live the slow way, by probing every address a
// test wrote through the public API, so the O(1) transition accounting
// can be checked against ground truth.
func occupancyScan(f Facility, addrs []uint64) int64 {
	var n int64
	seen := map[uint64]bool{}
	for _, a := range addrs {
		slot := a &^ 7
		if seen[slot] {
			continue
		}
		seen[slot] = true
		if f.Lookup(a).live() {
			n++
		}
	}
	return n
}

// TestOccupancyTransitions drives each backend through the liveness
// transitions the accounting must get right: insert, overwrite with live,
// overwrite with zero (tombstone), re-insert, and range clear.
func TestOccupancyTransitions(t *testing.T) {
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			f, err := New(k)
			if err != nil {
				t.Fatal(err)
			}
			if got := f.Occupancy().Live; got != 0 {
				t.Fatalf("fresh facility Live = %d, want 0", got)
			}
			e := Entry{Base: 0x1000, Bound: 0x1040}
			var addrs []uint64
			for i := uint64(0); i < 100; i++ {
				a := 0x2000 + 8*i
				f.Update(a, e)
				addrs = append(addrs, a)
			}
			if got := f.Occupancy().Live; got != 100 {
				t.Fatalf("after 100 inserts Live = %d, want 100", got)
			}
			// Overwriting a live slot with live metadata is not a
			// transition.
			f.Update(0x2000, Entry{Base: 0x3000, Bound: 0x3010})
			if got := f.Occupancy().Live; got != 100 {
				t.Fatalf("after overwrite Live = %d, want 100", got)
			}
			// Storing the zero entry (a NULL-pointer store) kills the slot.
			f.Update(0x2008, Entry{})
			if got := f.Occupancy().Live; got != 99 {
				t.Fatalf("after zero store Live = %d, want 99", got)
			}
			// Clearing a range kills only the live slots inside it.
			f.Clear(0x2000, 10*8)
			if got := f.Occupancy().Live; got != 90 {
				t.Fatalf("after range clear Live = %d, want 90", got)
			}
			// Clearing already-dead slots is idempotent.
			f.Clear(0x2000, 10*8)
			if got := f.Occupancy().Live; got != 90 {
				t.Fatalf("after repeated clear Live = %d, want 90", got)
			}
			// Re-inserting over a tombstone counts again.
			f.Update(0x2000, e)
			if got := f.Occupancy().Live; got != 91 {
				t.Fatalf("after re-insert Live = %d, want 91", got)
			}
			if want := occupancyScan(f, addrs); f.Occupancy().Live != want {
				t.Fatalf("Live = %d disagrees with scan %d", f.Occupancy().Live, want)
			}
			if f.Occupancy().Bytes <= 0 {
				t.Fatalf("Bytes = %d with live entries, want > 0", f.Occupancy().Bytes)
			}
		})
	}
}

// TestOccupancySurvivesGrow forces the hash tables through a rehash and
// checks the live counter is rebuilt, with tombstones dropped.
func TestOccupancySurvivesGrow(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Facility
	}{
		{"hashtable", MustHashTable(16, false)},
		{"hashtable-cets", MustHashTable(16, true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := Entry{Base: 0x1000, Bound: 0x1040, Key: 7, Lock: 3}
			var addrs []uint64
			// Insert enough to grow several times, clearing every third
			// slot along the way so tombstones are present at each rehash.
			for i := uint64(0); i < 200; i++ {
				a := 0x9000 + 8*i
				tc.f.Update(a, e)
				addrs = append(addrs, a)
				if i%3 == 0 {
					tc.f.Clear(a, 8)
				}
			}
			want := occupancyScan(tc.f, addrs)
			if got := tc.f.Occupancy().Live; got != want {
				t.Fatalf("Live = %d after grow churn, scan says %d", got, want)
			}
		})
	}
}

// TestOccupancyThroughWrappers checks the lookaside cache and the costed
// wrapper both surface the inner facility's occupancy unchanged.
func TestOccupancyThroughWrappers(t *testing.T) {
	inner := NewShadowSpace(false)
	cache := NewLookupCache(inner)
	cache.Update(0x4000, Entry{Base: 1, Bound: 2})
	cache.Update(0x4008, Entry{Base: 1, Bound: 2})
	if got := cache.Occupancy().Live; got != 2 {
		t.Fatalf("cache Occupancy().Live = %d, want 2", got)
	}
	cache.Clear(0x4000, 8)
	if got := cache.Occupancy().Live; got != 1 {
		t.Fatalf("cache Occupancy().Live after clear = %d, want 1", got)
	}
	costed := Costed(inner, Costs{Lookup: 1, Update: 1})
	if got := costed.Occupancy().Live; got != 1 {
		t.Fatalf("costed Occupancy().Live = %d, want 1", got)
	}
}
