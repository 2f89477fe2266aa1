package meta

import (
	"testing"
	"testing/quick"
)

// facilities returns both organizations in both configurations, spatial
// and temporal, so every property test covers all four schemes.
func facilities() []Facility {
	var fs []Facility
	for _, temporal := range []bool{false, true} {
		fs = append(fs, MustHashTable(1<<10, temporal), NewShadowSpace(temporal))
	}
	return fs
}

func TestLookupMissingIsZero(t *testing.T) {
	for _, f := range facilities() {
		if e := f.Lookup(0x1234560); e != (Entry{}) {
			t.Errorf("%s: missing lookup = %+v", f.Kind(), e)
		}
	}
}

func TestUpdateLookupRoundTrip(t *testing.T) {
	for _, f := range facilities() {
		e := Entry{Base: 0x1000, Bound: 0x1040}
		f.Update(0x2000, e)
		if got := f.Lookup(0x2000); got != e {
			t.Errorf("%s: got %+v", f.Kind(), got)
		}
		// Overwrite.
		e2 := Entry{Base: 0x3000, Bound: 0x3008}
		f.Update(0x2000, e2)
		if got := f.Lookup(0x2000); got != e2 {
			t.Errorf("%s: after overwrite got %+v", f.Kind(), got)
		}
		// Neighbouring slots unaffected.
		if got := f.Lookup(0x2008); got != (Entry{}) {
			t.Errorf("%s: neighbour affected: %+v", f.Kind(), got)
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
				t.Errorf("%s: slot %d not cleared", f.Kind(), i)
			}
			if !cleared && got == (Entry{}) {
				t.Errorf("%s: slot %d wrongly cleared", f.Kind(), i)
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
			t.Errorf("%s: copy slot 0: %+v", f.Kind(), got)
		}
		if got := f.Lookup(0x6008); got != (Entry{Base: 30, Bound: 40}) {
			t.Errorf("%s: copy slot 1: %+v", f.Kind(), got)
		}
		// Copying a region with no metadata clears the destination.
		f.CopyRange(0x6000, 0x7000, 16)
		if got := f.Lookup(0x6000); got != (Entry{}) {
			t.Errorf("%s: stale metadata survived copy: %+v", f.Kind(), got)
		}
	}
}

func TestHashTableGrowth(t *testing.T) {
	for _, temporal := range []bool{false, true} {
		h := MustHashTable(16, temporal)
		want := func(i uint64) Entry {
			e := Entry{Base: i, Bound: i + 8}
			if temporal {
				e.Key, e.Lock = i+1, i+2
			}
			return e
		}
		// Insert far more than 16 entries: growth must preserve contents.
		for i := uint64(0); i < 1000; i++ {
			h.Update(i*8, want(i))
		}
		for i := uint64(0); i < 1000; i++ {
			if got := h.Lookup(i * 8); got != want(i) {
				t.Fatalf("%s: entry %d lost after growth: %+v", h.Kind(), i, got)
			}
		}
	}
}

func TestHashTableCollisions(t *testing.T) {
	h := MustHashTable(16, false)
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
	h := MustHashTable(16, false)
	s := NewShadowSpace(false)
	// Paper §5.1: ~9 instructions for the hash table, ~5 for the
	// shadow space.
	if h.Costs().Lookup != 9 || s.Costs().Lookup != 5 {
		t.Fatalf("costs: hash=%d shadow=%d", h.Costs().Lookup, s.Costs().Lookup)
	}
	// The temporal configurations add the key/lock loads and the
	// lock-table compare: ~4 more per operation.
	ht, st := MustHashTable(16, true), NewShadowSpace(true)
	if ht.Costs() != (Costs{Lookup: 13, Update: 13}) || st.Costs() != (Costs{Lookup: 9, Update: 9}) {
		t.Fatalf("temporal costs: hash=%+v shadow=%+v", ht.Costs(), st.Costs())
	}
	c := Costed(s, Costs{Lookup: 14, Update: 14})
	if c.Costs().Lookup != 14 {
		t.Fatal("Costed override ignored")
	}
}

func TestFootprintGrows(t *testing.T) {
	for _, temporal := range []bool{false, true} {
		s := NewShadowSpace(temporal)
		f0 := s.Occupancy().Bytes
		s.Update(1<<30, Entry{Base: 1, Bound: 2})
		if s.Occupancy().Bytes <= f0 {
			t.Errorf("%s: footprint did not grow on first touch", s.Kind())
		}
	}
}

// TestFacilitiesAgree property-checks that both organizations implement
// the same abstract map under arbitrary operation sequences, in both
// configurations. Updates carry a key and lock, which the temporal
// facilities keep and the spatial ones both drop.
func TestFacilitiesAgree(t *testing.T) {
	type op struct {
		Kind byte
		Slot uint16
		B, E uint32
	}
	f := func(temporal bool, ops []op) bool {
		h := MustHashTable(64, temporal)
		s := NewShadowSpace(temporal)
		for _, o := range ops {
			addr := uint64(o.Slot) * 8
			switch o.Kind % 4 {
			case 0:
				e := Entry{Base: uint64(o.B), Bound: uint64(o.E), Key: uint64(o.E), Lock: uint64(o.Slot)}
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

// An unknown kind must not masquerade as a scheme: New rejects it and
// ParseKind does not resolve its String, while every known kind
// round-trips by name and constructs a facility reporting that kind.
func TestKindStringUnknownAndRoundTrip(t *testing.T) {
	if f, err := New(Kind(99)); err == nil {
		t.Fatalf("New(Kind(99)) built %v, want an error", f.Kind())
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("Kind(99).String() = %q", got)
	}
	if k, err := ParseKind("Kind(99)"); err == nil {
		t.Errorf("ParseKind(%q) = %v, want an error", "Kind(99)", k)
	}
	for _, k := range []Kind{KindHashTable, KindShadowSpace, KindHashTableCETS, KindShadowCETS} {
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want kind %d", k.String(), got, err, int(k))
		}
		f, err := New(k)
		if err != nil {
			t.Errorf("New(%v): %v", k, err)
		} else if f.Kind() != k {
			t.Errorf("New(%v) built a %v facility", k, f.Kind())
		}
	}
}
