package meta

import (
	"fmt"
	"math/rand"
	"testing"
)

// Regression: Update/Lookup used the raw byte address as the key while
// Clear aligned it, so metadata written through an unaligned address
// survived Clear. All three paths must key on the double-word address.
func TestUnalignedUpdateThenClear(t *testing.T) {
	for _, f := range facilities() {
		e := Entry{Base: 0x1000, Bound: 0x1040}
		f.Update(0x2003, e) // unaligned store address
		if got := f.Lookup(0x2000); got != e {
			t.Errorf("%s: aligned lookup after unaligned update = %+v", f.Kind(), got)
		}
		if got := f.Lookup(0x2007); got != e {
			t.Errorf("%s: unaligned lookup after unaligned update = %+v", f.Kind(), got)
		}
		f.Clear(0x2000, 8)
		if got := f.Lookup(0x2003); got != (Entry{}) {
			t.Errorf("%s: unaligned metadata survived aligned Clear: %+v", f.Kind(), got)
		}

		// And the converse: aligned update, clear through an unaligned
		// address covering the same double-word.
		f.Update(0x3000, e)
		f.Clear(0x3005, 3)
		if got := f.Lookup(0x3000); got != (Entry{}) {
			t.Errorf("%s: aligned metadata survived unaligned Clear: %+v", f.Kind(), got)
		}
	}
}

// Regression: grow re-inserted cleared (tombstone) entries, so dead slots
// were copied forever and the load factor never recovered.
func TestGrowDropsClearedEntries(t *testing.T) {
	h := MustHashTable(64, false)
	live := Entry{Base: 0x9000, Bound: 0x9100}
	for i := uint64(0); i < 32; i++ {
		h.Update(i*8, Entry{Base: i + 1, Bound: i + 2})
	}
	for i := uint64(1); i < 32; i++ {
		h.Clear(i*8, 8)
	}
	h.Update(0x9000, live) // 2 live entries, 31 tombstones
	h.grow()
	if h.used != 2 {
		t.Fatalf("grow kept %d entries, want 2 (tombstones re-inserted)", h.used)
	}
	if got := h.Lookup(0); got != (Entry{Base: 1, Bound: 2}) {
		t.Errorf("live entry 0 lost across grow: %+v", got)
	}
	if got := h.Lookup(0x9000); got != live {
		t.Errorf("live entry 0x9000 lost across grow: %+v", got)
	}
	if got := h.Lookup(8); got != (Entry{}) {
		t.Errorf("cleared entry resurrected across grow: %+v", got)
	}
}

// Update/Clear churn over distinct addresses must not retain dead entries
// across growth: after heavy churn the table's live count stays tiny.
func TestChurnLoadFactorRecovers(t *testing.T) {
	h := MustHashTable(16, false)
	for i := uint64(0); i < 10000; i++ {
		h.Update(i*8, Entry{Base: 1, Bound: 2})
		h.Clear(i*8, 8)
	}
	h.grow()
	if h.used != 0 {
		t.Fatalf("after churn and rehash, %d dead entries retained", h.used)
	}
}

// Regression: Clear and CopyRange of size 0 touched one slot when the
// address was unaligned.
func TestZeroSizeOpsAreNoOps(t *testing.T) {
	for _, f := range facilities() {
		e := Entry{Base: 0x1000, Bound: 0x1040}
		f.Update(0x4000, e)
		f.Clear(0x4001, 0)
		if got := f.Lookup(0x4000); got != e {
			t.Errorf("%s: zero-size Clear removed metadata: %+v", f.Kind(), got)
		}
		f.Update(0x5000, Entry{Base: 7, Bound: 8})
		f.CopyRange(0x4001, 0x5000, 0)
		if got := f.Lookup(0x4000); got != e {
			t.Errorf("%s: zero-size CopyRange touched dst: %+v", f.Kind(), got)
		}
	}
}

// Regression: CopyRange copied forwards unconditionally, so an overlapping
// dst > src copy propagated already-overwritten slots. Both directions must
// follow memmove semantics in both schemes.
func TestCopyRangeOverlap(t *testing.T) {
	entry := func(i uint64) Entry { return Entry{Base: 0x100 * (i + 1), Bound: 0x100*(i+1) + 8} }
	for _, f := range facilities() {
		// dst > src overlap: shift 3 slots up by one slot.
		for i := uint64(0); i < 3; i++ {
			f.Update(0x1000+i*8, entry(i))
		}
		f.CopyRange(0x1008, 0x1000, 24)
		for i := uint64(0); i < 3; i++ {
			if got := f.Lookup(0x1008 + i*8); got != entry(i) {
				t.Errorf("%s: upward overlap slot %d = %+v, want %+v", f.Kind(), i, got, entry(i))
			}
		}

		// dst < src overlap: shift 3 slots down by one slot.
		for i := uint64(0); i < 3; i++ {
			f.Update(0x2008+i*8, entry(i+10))
		}
		f.CopyRange(0x2000, 0x2008, 24)
		for i := uint64(0); i < 3; i++ {
			if got := f.Lookup(0x2000 + i*8); got != entry(i+10) {
				t.Errorf("%s: downward overlap slot %d = %+v, want %+v", f.Kind(), i, got, entry(i+10))
			}
		}
	}
}

// Regression: CopyRange judged overlap on bytes and cleared through the
// unaligned destination address. Disjoint but unaligned byte ranges can
// share a slot, so the walk ran forwards over a slot it had just written;
// and an 8-byte Clear at an unaligned address spans two slots, so copying
// an empty source slot also wiped the slot after it.
func TestCopyRangeUnalignedSlots(t *testing.T) {
	a, b := Entry{Base: 0x10, Bound: 0x18}, Entry{Base: 0x20, Bound: 0x28}
	for _, f := range facilities() {
		// Bytes [0x138,0x141) and [0x141,0x14a) are disjoint, but the
		// slots they cover (0x138,0x140 and 0x140,0x148) overlap.
		f.Update(0x138, a)
		f.Update(0x140, b)
		f.CopyRange(0x141, 0x138, 9)
		if got := f.Lookup(0x140); got != a {
			t.Errorf("%s: slot 0x140 = %+v, want %+v", f.Kind(), got, a)
		}
		if got := f.Lookup(0x148); got != b {
			t.Errorf("%s: slot 0x148 = %+v, want %+v (read after overwrite)", f.Kind(), got, b)
		}

		// Copying 7 bytes with no metadata into 0x201 covers slot 0x200
		// only; the pointer in slot 0x208 keeps its metadata.
		f.Update(0x200, a)
		f.Update(0x208, b)
		f.CopyRange(0x201, 0x900, 7)
		if got := f.Lookup(0x200); got != (Entry{}) {
			t.Errorf("%s: copied-over slot 0x200 kept %+v", f.Kind(), got)
		}
		if got := f.Lookup(0x208); got != b {
			t.Errorf("%s: slot 0x208 past the copy = %+v, want %+v", f.Kind(), got, b)
		}
	}
}

// TestFacilitiesAgreeUnaligned differentially fuzzes both schemes with
// byte-granularity (unaligned) addresses and overlapping CopyRanges — the
// op mix the fixed bugs were hiding in — and asserts the two organizations
// stay observationally identical, spatial and temporal alike.
func TestFacilitiesAgreeUnaligned(t *testing.T) {
	for _, temporal := range []bool{false, true} {
		facilitiesAgreeUnaligned(t, temporal)
	}
}

func facilitiesAgreeUnaligned(t *testing.T, temporal bool) {
	const window = 1 << 12 // byte window the ops land in
	rng := rand.New(rand.NewSource(1))
	h := MustHashTable(64, temporal)
	s := NewShadowSpace(temporal)
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(window))
		switch rng.Intn(4) {
		case 0:
			e := Entry{Base: uint64(rng.Intn(1 << 16)), Bound: uint64(rng.Intn(1 << 16)),
				Key: uint64(rng.Intn(1 << 16)), Lock: uint64(rng.Intn(1 << 16))}
			h.Update(addr, e)
			s.Update(addr, e)
		case 1:
			if h.Lookup(addr) != s.Lookup(addr) {
				t.Fatalf("%s op %d: lookup(0x%x) disagrees: hash=%+v shadow=%+v",
					h.Kind(), i, addr, h.Lookup(addr), s.Lookup(addr))
			}
		case 2:
			size := uint64(rng.Intn(64))
			h.Clear(addr, size)
			s.Clear(addr, size)
		case 3:
			// Bias src near dst so overlapping ranges are common.
			src := uint64(rng.Intn(window))
			if rng.Intn(2) == 0 {
				delta := uint64(rng.Intn(64))
				if rng.Intn(2) == 0 && addr >= delta {
					src = addr - delta
				} else {
					src = addr + delta
				}
			}
			size := uint64(rng.Intn(64))
			h.CopyRange(addr, src, size)
			s.CopyRange(addr, src, size)
		}
	}
	for a := uint64(0); a < window; a += 8 {
		if h.Lookup(a) != s.Lookup(a) {
			t.Fatalf("%s final state: lookup(0x%x) disagrees: hash=%+v shadow=%+v",
				h.Kind(), a, h.Lookup(a), s.Lookup(a))
		}
	}
}

// TestRegistry pins the closed scheme table the benchmark matrix
// enumerates: its order (by name, which every matrix, report column and
// BENCH.json row follows), its names and its parse errors.
func TestRegistry(t *testing.T) {
	all := Kinds()
	if got, want := fmt.Sprint(all), "[hashtable hashtable-cets shadow-cets shadowspace]"; got != want {
		t.Fatalf("Kinds() = %s, want %s", got, want)
	}
	if got := KindNames(); fmt.Sprint(got) != fmt.Sprint(all) {
		t.Errorf("KindNames() = %v, want %v", got, all)
	}
	schemes := Schemes()
	for i, k := range all {
		if sc := schemes[i]; sc.Kind != k || sc.Name != k.String() || sc.New().Kind() != k {
			t.Errorf("Schemes()[%d] = %v %q, want %v", i, sc.Kind, sc.Name, k)
		}
	}
	if k, err := ParseKind("nope"); err == nil {
		t.Errorf("ParseKind accepted unknown scheme as %v", k)
	}
	parsed, err := ParseKinds(" hashtable , shadowspace ,hashtable")
	if err != nil || fmt.Sprint(parsed) != "[hashtable shadowspace]" {
		t.Errorf("ParseKinds = %v, %v", parsed, err)
	}
	const wantErr = `meta: unknown scheme "bogus" (have hashtable, hashtable-cets, shadow-cets, shadowspace)`
	if _, err := ParseKinds("hashtable,bogus"); err == nil || err.Error() != wantErr {
		t.Errorf("ParseKinds(bogus) error = %v, want %s", err, wantErr)
	}
	if parsed, err = ParseKinds(""); err != nil || fmt.Sprint(parsed) != fmt.Sprint(all) {
		t.Errorf("ParseKinds(\"\") = %v, %v", parsed, err)
	}
}

// The paper's shift-and-mask hash (§5.1) lays contiguous pointer slots
// out as one linear-probe run, so a copy into a destination that aliases
// the run walks all of it for every slot. The exact probe counts of the
// BenchmarkMetaHashTable workload are pinned here, so that a change to
// the hash, the probing or the table size shows up as a count rather
// than as wall time.
func TestHashTableProbesPinned(t *testing.T) {
	const (
		entries   = 1 << 16
		filled    = 4096
		copySlots = 64
	)
	h := MustHashTable(entries, false)
	for i := uint64(0); i < filled; i++ {
		a := i * 8
		h.Update(a, Entry{Base: a, Bound: a + 64})
	}
	// Each fill lands in its own empty entry: one probe apiece.
	if h.Probes != filled {
		t.Fatalf("sequential fill of %d slots: %d probes, want %d", filled, h.Probes, filled)
	}
	// 1<<20 is 0 modulo the table's 1<<16 double words: destination slot
	// k hashes onto source slot k. Each copied slot costs one probe to
	// read its source and filled+1 to walk past the run to its
	// destination entry.
	start := h.Probes
	h.CopyRange(1<<20, 0, copySlots*8)
	const want = copySlots * (1 + filled + 1) // 262272
	if got := h.Probes - start; got != want {
		t.Fatalf("aliasing %d-slot CopyRange: %d probes, want %d", copySlots, got, want)
	}
	for k := uint64(0); k < copySlots; k++ {
		if e := h.Lookup(1<<20 + k*8); e.Base != k*8 {
			t.Fatalf("slot %d: copied entry %+v", k, e)
		}
	}
}
