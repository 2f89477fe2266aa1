package meta

import (
	"math/rand"
	"runtime"
	"testing"
)

// model is the reference semantics every facility must match: a map from
// double-word slot address to the entry last stored there. A spatial
// model keeps no key or lock, as a spatial facility stores none.
type model struct {
	temporal bool
	slots    map[uint64]Entry
}

func (m *model) lookup(addr uint64) Entry { return m.slots[addr&^7] }

func (m *model) update(addr uint64, e Entry) {
	if !m.temporal {
		e.Key, e.Lock = 0, 0
	}
	m.slots[addr&^7] = e
}

func (m *model) clear(addr, size uint64) {
	if size == 0 {
		return
	}
	for a := addr &^ 7; a < addr+size; a += 8 {
		delete(m.slots, a)
	}
}

// copyRange is memmove over slots: every source slot is read before any
// destination slot is written, whatever the overlap.
func (m *model) copyRange(dst, src, size uint64) {
	if size == 0 {
		return
	}
	var snap []Entry
	for off := uint64(0); off < size; off += 8 {
		snap = append(snap, m.lookup(src+off))
	}
	for i, e := range snap {
		m.update(dst+uint64(i)*8, e)
	}
}

// smallFacility builds kind k's configuration the way New does,
// but with a 16-entry hash table so addresses alias and the table grows
// many times under a short run.
func smallFacility(k Kind) Facility {
	if k == KindHashTable || k == KindHashTableCETS {
		return MustHashTable(16, k.Temporal())
	}
	return NewShadowSpace(k.Temporal())
}

// TestFacilitiesMatchModel drives every scheme configuration through a
// seeded collision-heavy mix of Update/Clear/CopyRange — unaligned and
// overlapping ranges, addresses that alias modulo the table size at every
// size the table grows through — and after each operation compares every
// slot's Lookup with the reference model and Occupancy().Live with a scan.
func TestFacilitiesMatchModel(t *testing.T) {
	const (
		regions    = 8
		regionSize = 1024 // bytes ops start in per region: 128 slots
		maxRange   = 160  // longest Clear/CopyRange, in bytes
		regionGap  = 2048
	)
	// Regions regionGap bytes apart alias modulo every table size up to
	// regionGap/8 = 256 entries, so the first four grow()s all rehash
	// colliding chains; the table outgrows the aliasing before the run
	// ends. The scan covers every slot an operation can reach.
	var universe []uint64
	for r := uint64(0); r < regions; r++ {
		for off := uint64(0); off < regionSize+maxRange; off += 8 {
			universe = append(universe, r*regionGap+off)
		}
	}
	for _, k := range []Kind{KindHashTable, KindShadowSpace, KindHashTableCETS, KindShadowCETS} {
		t.Run(k.String(), func(t *testing.T) {
			f := smallFacility(k)
			if f.Kind() != k {
				t.Fatalf("built %v, want %v", f.Kind(), k)
			}
			bytes0 := f.Occupancy().Bytes
			m := &model{temporal: k.Temporal(), slots: map[uint64]Entry{}}
			rng := rand.New(rand.NewSource(20))
			addr := func() uint64 {
				return uint64(rng.Intn(regions))*regionGap + uint64(rng.Intn(regionSize))
			}
			word := func() uint64 {
				if rng.Intn(4) == 0 {
					return 0
				}
				return uint64(rng.Int63())
			}
			for op := 0; op < 3000; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4:
					// Any word may be zero, so entries that are live only
					// through their key or lock — dead once a spatial
					// facility drops those — come up too.
					a, e := addr(), Entry{Base: word(), Bound: word(), Key: word(), Lock: word()}
					f.Update(a, e)
					m.update(a, e)
				case 5, 6:
					a, n := addr(), uint64(rng.Intn(maxRange))
					f.Clear(a, n)
					m.clear(a, n)
				case 7, 8:
					dst, n := addr(), uint64(rng.Intn(maxRange))
					src := addr()
					if rng.Intn(2) == 0 { // overlap dst, either side
						src = dst + uint64(rng.Intn(64)) - 32
					}
					f.CopyRange(dst, src, n)
					m.copyRange(dst, src, n)
				case 9:
					// A pure lookup step: the full check below covers it.
				}
				var live int64
				for _, a := range universe {
					got, want := f.Lookup(a+uint64(rng.Intn(8))), m.lookup(a)
					if got != want {
						t.Fatalf("op %d: Lookup(%#x) = %+v, model has %+v", op, a, got, want)
					}
					if !k.Temporal() && (got.Key != 0 || got.Lock != 0) {
						t.Fatalf("op %d: spatial Lookup(%#x) kept key/lock: %+v", op, a, got)
					}
					if got.live() {
						live++
					}
				}
				if occ := f.Occupancy().Live; occ != live {
					t.Fatalf("op %d: Occupancy().Live = %d, scan counts %d", op, occ, live)
				}
			}
			if h, ok := f.(*HashTable); ok && h.Occupancy().Bytes < 8*bytes0 {
				t.Fatalf("table grew from %d to only %d bytes; want at least three grow()s",
					bytes0, h.Occupancy().Bytes)
			}
		})
	}
}

// allocated returns the heap bytes fn allocates: the least over a few
// calls, so an unrelated runtime allocation cannot inflate it.
func allocated(fn func()) uint64 {
	var ms runtime.MemStats
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		fn()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	return least
}

// TestFacilityAllocationPinned pins what each scheme configuration
// allocates, so per-request allocation cannot drift: a hash table is its
// 1<<20 entries at 24 B (40 B temporal) plus a small header, and a
// shadow space allocates exactly one page, 512 slots at 16 B (32 B
// temporal), per first-touched page. Occupancy().Bytes reports the same.
func TestFacilityAllocationPinned(t *testing.T) {
	const header = 512 // struct and map headers, not table storage
	for _, tc := range []struct {
		kind  Kind
		table uint64 // allocated by New
		page  uint64 // allocated per first-touched shadow page
	}{
		{KindHashTable, 24 << 20, 0},
		{KindHashTableCETS, 40 << 20, 0},
		{KindShadowSpace, 0, 8 << 10},
		{KindShadowCETS, 0, 16 << 10},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			var f Facility
			got := allocated(func() {
				var err error
				if f, err = New(tc.kind); err != nil {
					t.Fatal(err)
				}
			})
			if got < tc.table || got-tc.table >= header {
				t.Fatalf("New allocated %d bytes, want %d plus a header under %d", got, tc.table, header)
			}
			if b := f.Occupancy().Bytes; b != int64(tc.table) {
				t.Fatalf("fresh Occupancy().Bytes = %d, want %d", b, tc.table)
			}
			if tc.page == 0 {
				return
			}
			e := Entry{Base: 1, Bound: 2, Key: 3, Lock: 4}
			f.Update(0, e) // page 0 also allocates the page map's storage
			page := uint64(1)
			got = allocated(func() {
				f.Update(page<<(shadowPageShift+3), e) // first touch of a new page
				page++
			})
			if got != tc.page {
				t.Fatalf("first-touch Update allocated %d bytes, want %d", got, tc.page)
			}
			if b := f.Occupancy().Bytes; b != int64(page*tc.page) {
				t.Fatalf("Occupancy().Bytes = %d after %d pages, want %d", b, page, page*tc.page)
			}
		})
	}
}
