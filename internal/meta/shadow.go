package meta

// ShadowSpace is the tag-less metadata organization (paper §5.1): a
// reserved region of the virtual address space big enough that every
// double-word of program memory has a dedicated metadata slot, so
// collisions cannot occur and no tag is stored or checked. Each slot
// holds base and bound; a temporal shadow space adds the key and lock
// words.
//
// The paper implements this by mmap-ing a zero-initialized region and
// letting the OS allocate physical pages on demand. We reproduce the same
// demand paging with a two-level page table: pages materialize on first
// touch, so Occupancy().Bytes grows with the program's actually-used
// pointer slots, just like resident set size would.
type ShadowSpace struct {
	pages    map[uint64][]uint64 // slots back to back, width words each
	width    uint64
	live     int64 // slots with nonzero metadata
	temporal bool
}

const (
	shadowPageShift = 9 // 512 double-word slots per page
	shadowPageSlots = 1 << shadowPageShift
)

// NewShadowSpace returns an empty shadow space, storing key and lock
// words when temporal is set.
func NewShadowSpace(temporal bool) *ShadowSpace {
	return &ShadowSpace{
		pages:    make(map[uint64][]uint64),
		width:    slotWords(temporal),
		temporal: temporal,
	}
}

// slot returns addr's metadata words. An untouched page yields nil, or
// is materialized (zeroed, 8 KiB spatial or 16 KiB temporal) when touch
// is set.
func (s *ShadowSpace) slot(addr uint64, touch bool) []uint64 {
	dw := addr >> 3
	pn := dw >> shadowPageShift
	p := s.pages[pn]
	if p == nil {
		if !touch {
			return nil
		}
		p = make([]uint64, shadowPageSlots*s.width)
		s.pages[pn] = p
	}
	j := (dw & (shadowPageSlots - 1)) * s.width
	return p[j : j+s.width]
}

// Lookup reads the slot for addr; untouched pages read as zero.
func (s *ShadowSpace) Lookup(addr uint64) Entry {
	if w := s.slot(addr, false); w != nil {
		return load(w)
	}
	return Entry{}
}

// Update writes the slot for addr, materializing its page on first touch.
func (s *ShadowSpace) Update(addr uint64, e Entry) {
	s.live += put(s.slot(addr, true), e)
}

// Clear zeroes all slots covering [addr, addr+size).
func (s *ShadowSpace) Clear(addr, size uint64) {
	if size == 0 {
		return
	}
	for a := addr &^ 7; a < addr+size; a += 8 {
		if w := s.slot(a, false); w != nil {
			s.live += put(w, Entry{})
		}
	}
}

// CopyRange copies slot metadata from src to dst for size bytes, with
// memmove semantics for overlapping ranges (instrumented memcpy/memmove
// both funnel through here, paper §5.2).
func (s *ShadowSpace) CopyRange(dst, src, size uint64) { copyRange(s, dst, src, size) }

// Costs reports the paper's ~5-instruction lookup for the shadow scheme.
// A temporal shadow space costs ~9: the key/lock loads and the
// lock-table compare.
func (s *ShadowSpace) Costs() Costs {
	if s.temporal {
		return Costs{Lookup: 9, Update: 9}
	}
	return Costs{Lookup: 5, Update: 5}
}

// Occupancy reports live slots and materialized shadow bytes: 16 per
// slot, or 32 when temporal.
func (s *ShadowSpace) Occupancy() Occupancy {
	return Occupancy{Live: s.live, Bytes: int64(len(s.pages)) * shadowPageSlots * int64(s.width) * 8}
}

// Kind identifies the scheme.
func (s *ShadowSpace) Kind() Kind {
	if s.temporal {
		return KindShadowCETS
	}
	return KindShadowSpace
}
