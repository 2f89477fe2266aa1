// Package meta implements SoftBound's disjoint metadata facility: the map
// from the address of a pointer in memory to that pointer's base and bound
// (paper §3.2, §5.1).
//
// Two organizations are provided, mirroring the paper:
//
//   - HashTable: an open-hashing table of (tag, base, bound) entries keyed
//     by the double-word address. A lookup costs ~9 x86 instructions
//     (shift, mask, multiply, add, three loads, compare, branch).
//   - ShadowSpace: a tag-less direct map over the whole address space; no
//     collisions are possible, so the tag check disappears and a lookup
//     costs ~5 instructions (shift, mask, add, two loads).
//
// Each organization is built spatial or temporal. A temporal facility
// widens every entry by the CETS key and lock words and charges ~4 more
// instructions per operation; nothing else about it differs, as in the
// softboundcets runtime, where one runtime serves both configurations
// and the temporal one only widens the entry.
//
// The two organizations times the two configurations give exactly four
// schemes, each named by a Kind. The set is closed: Kinds lists it,
// ParseKind and ParseKinds resolve scheme names, and New is the one
// constructor.
//
// The Go implementations are functionally exact; the per-operation
// instruction costs are reported through Costs so the benchmark harness
// can reproduce the paper's overhead accounting on simulated hardware.
package meta

import "fmt"

// Entry is a pointer's metadata: [Base, Bound) bracket the object.
// Under the CETS-style temporal schemes the entry additionally carries
// the allocation's key and its lock index into the VM's lock table; the
// dereference check verifies locks[Lock] == Key before the spatial
// compare. A spatial facility stores no key or lock word, so its entries
// read back with Key and Lock zero, which fails the temporal check —
// fail-closed — but temporal checks are only emitted when a temporal
// scheme is selected, so spatial runs never consult them.
type Entry struct {
	Base  uint64
	Bound uint64
	Key   uint64
	Lock  uint64
}

// Costs models the x86 instruction footprint of facility operations,
// following the instruction counts given in paper §5.1.
type Costs struct {
	Lookup int
	Update int
}

// Occupancy is a facility's current population: Live counts pointer
// slots whose entry carries any nonzero metadata word, Bytes is the
// table's memory footprint. Long-running services watch this pair to
// see metadata growth (leaks, churn, shadow-page spread).
type Occupancy struct {
	Live  int64
	Bytes int64
}

// live reports whether an entry holds any metadata at all — the
// liveness predicate behind the occupancy accounting (cleared hashtable
// slots keep their tag but zero every metadata word, so tag presence is
// not liveness).
func (e Entry) live() bool {
	return e.Base != 0 || e.Bound != 0 || e.Key != 0 || e.Lock != 0
}

// slotWords is how many metadata words a pointer slot stores: base and
// bound, plus key and lock when the facility is temporal.
func slotWords(temporal bool) uint64 {
	if temporal {
		return 4
	}
	return 2
}

// load reads an entry from a slot's stored words; a spatial (two-word)
// slot reads back with Key and Lock zero.
func load(w []uint64) Entry {
	if len(w) == 4 {
		return Entry{Base: w[0], Bound: w[1], Key: w[2], Lock: w[3]}
	}
	return Entry{Base: w[0], Bound: w[1]}
}

// put stores e into a slot's words, dropping Key and Lock when the slot
// is spatial, and returns the slot's change in liveness (-1, 0 or +1) so
// each organization keeps its live counter by transition accounting.
func put(w []uint64, e Entry) int64 {
	var d int64
	if load(w).live() {
		d--
	}
	w[0], w[1] = e.Base, e.Bound
	if len(w) == 4 {
		w[2], w[3] = e.Key, e.Lock
	}
	if load(w).live() {
		d++
	}
	return d
}

// Facility maps addresses of in-memory pointers to metadata.
type Facility interface {
	// Lookup returns the metadata for the pointer stored at addr.
	// Missing entries return the zero Entry (NULL bounds), which fails
	// any dereference check — the safe default.
	Lookup(addr uint64) Entry
	// Update records metadata for the pointer stored at addr.
	Update(addr uint64, e Entry)
	// Clear removes metadata for all pointer slots in [addr, addr+size).
	Clear(addr, size uint64)
	// CopyRange replicates metadata for size bytes from src to dst
	// (memcpy support, paper §5.2).
	CopyRange(dst, src, size uint64)
	// Costs reports the modeled per-operation instruction costs.
	Costs() Costs
	// Occupancy reports live entry count and table bytes in O(1); the
	// facilities maintain the live counter by transition accounting in
	// Update/Clear.
	Occupancy() Occupancy
	// Kind identifies the scheme: the organization and whether it is
	// built temporal. Wrappers report the kind of the facility they
	// wrap, so Kind().Temporal() always says how wide an entry is.
	Kind() Kind
}

// Kind selects a facility implementation.
type Kind int

// Facility kinds. The -cets kinds are the lock-and-key temporal
// configurations: the same organization built with its temporal flag set,
// so each entry is widened to carry (key, lock).
const (
	KindHashTable Kind = iota
	KindShadowSpace
	KindHashTableCETS
	KindShadowCETS
)

func (k Kind) String() string {
	switch k {
	case KindHashTable:
		return "hashtable"
	case KindHashTableCETS:
		return "hashtable-cets"
	case KindShadowSpace:
		return "shadowspace"
	case KindShadowCETS:
		return "shadow-cets"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Temporal reports whether the kind carries lock-and-key temporal
// metadata. The driver derives all temporal lowering and runtime
// behaviour from this single predicate, so selecting a spatial kind
// yields bit-identical execution to a build without temporal support.
func (k Kind) Temporal() bool {
	return k == KindHashTableCETS || k == KindShadowCETS
}

// New constructs a facility of the given kind: a hash table of 1<<20
// entries or a shadow space, temporal when the kind is. An unknown kind
// is a constructor error, propagated rather than panicked so a
// misconfigured run fails closed as a reported failure instead of
// taking down the whole process.
func New(k Kind) (Facility, error) {
	switch k {
	case KindHashTable, KindHashTableCETS:
		return MustHashTable(1<<20, k.Temporal()), nil
	case KindShadowSpace, KindShadowCETS:
		return NewShadowSpace(k.Temporal()), nil
	}
	return nil, fmt.Errorf("meta: unknown scheme kind %v", k)
}

// copyRange replicates f's metadata for size bytes from src to dst, one
// double-word slot at a time: a source slot without metadata clears its
// destination. The walk is safe for overlapping ranges (memmove
// semantics): when the destination slots overlap the source slots from
// above, iterating forwards would read slots the copy already overwrote,
// so the walk runs backwards instead. Overlap is judged on slots, not
// bytes: byte ranges that are disjoint but unaligned can still share a
// slot.
func copyRange(f Facility, dst, src, size uint64) {
	if size == 0 {
		return
	}
	copySlot := func(off uint64) {
		if e := f.Lookup(src + off); e != (Entry{}) {
			f.Update(dst+off, e)
		} else {
			f.Clear((dst+off)&^7, 8) // aligned: 8 bytes from an unaligned address span two slots
		}
	}
	last := (size - 1) &^ 7 // offset of the final double-word slot
	if d, s := dst&^7, src&^7; d > s && d-s <= last {
		for off := last; ; off -= 8 {
			copySlot(off)
			if off == 0 {
				return
			}
		}
	}
	for off := uint64(0); off <= last; off += 8 {
		copySlot(off)
	}
}

// Costed wraps a facility with overridden per-operation instruction
// costs, used to model related schemes with heavier metadata sequences
// (e.g. MSCC's linked shadow structures, paper §6.5).
func Costed(f Facility, c Costs) Facility { return &costed{Facility: f, costs: c} }

type costed struct {
	Facility
	costs Costs
}

func (c *costed) Costs() Costs { return c.costs }
