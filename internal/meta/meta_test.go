package meta

import (
	"testing"
	"testing/quick"
)

func facilities() []Facility {
	return []Facility{MustHashTable(1 << 10), NewShadowSpace()}
}

func TestLookupMissingIsZero(t *testing.T) {
	for _, f := range facilities() {
		if e := f.Lookup(0x1234560); e != (Entry{}) {
			t.Errorf("%s: missing lookup = %+v", f.Name(), e)
		}
	}
}

func TestUpdateLookupRoundTrip(t *testing.T) {
	for _, f := range facilities() {
		e := Entry{Base: 0x1000, Bound: 0x1040}
		f.Update(0x2000, e)
		if got := f.Lookup(0x2000); got != e {
			t.Errorf("%s: got %+v", f.Name(), got)
		}
		// Overwrite.
		e2 := Entry{Base: 0x3000, Bound: 0x3008}
		f.Update(0x2000, e2)
		if got := f.Lookup(0x2000); got != e2 {
			t.Errorf("%s: after overwrite got %+v", f.Name(), got)
		}
		// Neighbouring slots unaffected.
		if got := f.Lookup(0x2008); got != (Entry{}) {
			t.Errorf("%s: neighbour affected: %+v", f.Name(), got)
		}
	}
}

func TestClear(t *testing.T) {
	for _, f := range facilities() {
		for i := uint64(0); i < 8; i++ {
			f.Update(0x4000+i*8, Entry{Base: 1, Bound: 2})
		}
		f.Clear(0x4000+8, 24) // clears slots 1,2,3
		for i := uint64(0); i < 8; i++ {
			got := f.Lookup(0x4000 + i*8)
			cleared := i >= 1 && i <= 3
			if cleared && got != (Entry{}) {
				t.Errorf("%s: slot %d not cleared", f.Name(), i)
			}
			if !cleared && got == (Entry{}) {
				t.Errorf("%s: slot %d wrongly cleared", f.Name(), i)
			}
		}
	}
}

func TestCopyRange(t *testing.T) {
	for _, f := range facilities() {
		f.Update(0x5000, Entry{Base: 10, Bound: 20})
		f.Update(0x5008, Entry{Base: 30, Bound: 40})
		f.Update(0x6008, Entry{Base: 99, Bound: 100}) // stale dst metadata
		f.CopyRange(0x6000, 0x5000, 16)
		if got := f.Lookup(0x6000); got != (Entry{Base: 10, Bound: 20}) {
			t.Errorf("%s: copy slot 0: %+v", f.Name(), got)
		}
		if got := f.Lookup(0x6008); got != (Entry{Base: 30, Bound: 40}) {
			t.Errorf("%s: copy slot 1: %+v", f.Name(), got)
		}
		// Copying a region with no metadata clears the destination.
		f.CopyRange(0x6000, 0x7000, 16)
		if got := f.Lookup(0x6000); got != (Entry{}) {
			t.Errorf("%s: stale metadata survived copy: %+v", f.Name(), got)
		}
	}
}

func TestHashTableGrowth(t *testing.T) {
	h := MustHashTable(16)
	// Insert far more than 16 entries: growth must preserve contents.
	for i := uint64(0); i < 1000; i++ {
		h.Update(i*8, Entry{Base: i, Bound: i + 8})
	}
	for i := uint64(0); i < 1000; i++ {
		if got := h.Lookup(i * 8); got != (Entry{Base: i, Bound: i + 8}) {
			t.Fatalf("entry %d lost after growth: %+v", i, got)
		}
	}
}

func TestHashTableCollisions(t *testing.T) {
	h := MustHashTable(16)
	// Addresses that collide under the shift-and-mask hash.
	a1 := uint64(0x100)
	a2 := a1 + 16*8 // same hash bucket
	h.Update(a1, Entry{Base: 1, Bound: 2})
	h.Update(a2, Entry{Base: 3, Bound: 4})
	if got := h.Lookup(a1); got != (Entry{Base: 1, Bound: 2}) {
		t.Errorf("a1: %+v", got)
	}
	if got := h.Lookup(a2); got != (Entry{Base: 3, Bound: 4}) {
		t.Errorf("a2: %+v", got)
	}
	if h.Probes == 0 {
		t.Error("probe counter not counting")
	}
}

func TestCosts(t *testing.T) {
	h := MustHashTable(16)
	s := NewShadowSpace()
	// Paper §5.1: ~9 instructions for the hash table, ~5 for the
	// shadow space.
	if h.Costs().Lookup != 9 || s.Costs().Lookup != 5 {
		t.Fatalf("costs: hash=%d shadow=%d", h.Costs().Lookup, s.Costs().Lookup)
	}
	c := Costed(s, Costs{Lookup: 14, Update: 14})
	if c.Costs().Lookup != 14 {
		t.Fatal("Costed override ignored")
	}
}

func TestFootprintGrows(t *testing.T) {
	s := NewShadowSpace()
	f0 := s.Footprint()
	s.Update(1<<30, Entry{Base: 1, Bound: 2})
	if s.Footprint() <= f0 {
		t.Error("shadow footprint did not grow on first touch")
	}
}

// TestFacilitiesAgree property-checks that both organizations implement
// the same abstract map under arbitrary operation sequences.
func TestFacilitiesAgree(t *testing.T) {
	type op struct {
		Kind byte
		Slot uint16
		B, E uint32
	}
	f := func(ops []op) bool {
		h := MustHashTable(64)
		s := NewShadowSpace()
		for _, o := range ops {
			addr := uint64(o.Slot) * 8
			switch o.Kind % 4 {
			case 0:
				e := Entry{Base: uint64(o.B), Bound: uint64(o.E)}
				h.Update(addr, e)
				s.Update(addr, e)
			case 1:
				if h.Lookup(addr) != s.Lookup(addr) {
					return false
				}
			case 2:
				size := uint64(o.B % 64)
				h.Clear(addr, size)
				s.Clear(addr, size)
			case 3:
				src := uint64(o.E%1024) * 8
				size := uint64(o.B % 64)
				h.CopyRange(addr, src, size)
				s.CopyRange(addr, src, size)
			}
		}
		// Final states agree on every touched slot.
		for slot := uint64(0); slot < 1<<16; slot += 512 {
			if h.Lookup(slot*8) != s.Lookup(slot*8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// An unknown kind must not masquerade as a registered scheme: New
// rejects it, while every known kind still round-trips through the
// registry by name.
func TestKindStringUnknownAndRoundTrip(t *testing.T) {
	if f, err := New(Kind(99)); err == nil {
		t.Fatalf("New(Kind(99)) built %s, want an error", f.Name())
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("Kind(99).String() = %q", got)
	}
	for _, k := range []Kind{KindHashTable, KindShadowSpace, KindHashTableCETS, KindShadowCETS} {
		s, ok := SchemeByName(k.String())
		if !ok || s.Kind != k {
			t.Errorf("SchemeByName(%q) = %+v, %v; want kind %d", k.String(), s, ok, int(k))
		}
		if _, err := New(k); err != nil {
			t.Errorf("New(%v): %v", k, err)
		}
	}
}
