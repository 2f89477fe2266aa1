// Package meta implements SoftBound's disjoint metadata facility: the map
// from the address of a pointer in memory to that pointer's base and bound
// (paper §3.2, §5.1).
//
// Two implementations are provided, mirroring the paper:
//
//   - HashTable: an open-hashing table of (tag, base, bound) entries keyed
//     by the double-word address. A lookup costs ~9 x86 instructions
//     (shift, mask, multiply, add, three loads, compare, branch).
//   - ShadowSpace: a tag-less direct map over the whole address space; no
//     collisions are possible, so the tag check disappears and a lookup
//     costs ~5 instructions (shift, mask, add, two loads).
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
// compare. Spatial-only schemes leave Key and Lock zero, which fails the
// temporal check — fail-closed — but temporal checks are only emitted
// when a temporal scheme is selected, so spatial runs never consult them.
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
// see metadata growth (leaks, churn, shadow-page spread) rather than
// the one-shot Footprint number alone.
type Occupancy struct {
	Live  int64
	Bytes int64
}

// live reports whether an entry holds any metadata at all — the shared
// liveness predicate used by the occupancy accounting in every backend
// (cleared hashtable slots keep their tag but zero all four words, so
// tag presence is not liveness).
func (e Entry) live() bool {
	return e.Base != 0 || e.Bound != 0 || e.Key != 0 || e.Lock != 0
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
	// Footprint returns the facility's current memory overhead in bytes.
	Footprint() int64
	// Occupancy reports live entry count and table bytes in O(1); the
	// backends maintain the live counter by transition accounting in
	// Update/Clear.
	Occupancy() Occupancy
	// Name identifies the scheme ("hashtable" or "shadowspace").
	Name() string
}

// Kind selects a facility implementation.
type Kind int

// Facility kinds. The -cets kinds are the lock-and-key temporal variants:
// same spatial organization, with each entry widened to carry (key, lock).
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

// New constructs a facility of the given kind via the scheme registry. An
// unregistered kind is a constructor error, propagated rather than
// panicked so a misconfigured run fails closed as a reported failure
// instead of taking down the whole process.
func New(k Kind) (Facility, error) {
	s, ok := SchemeByName(k.String())
	if !ok {
		return nil, fmt.Errorf("meta: no registered scheme for kind %q", k.String())
	}
	return s.New(), nil
}

// forEachSlotOffset visits every double-word offset of a size-byte copy in
// an order that is safe for overlapping ranges (memmove semantics): when
// dst overlaps src from above, iterating forwards would read slots the copy
// already overwrote, so the walk runs backwards instead.
func forEachSlotOffset(dst, src, size uint64, fn func(off uint64)) {
	if size == 0 {
		return
	}
	last := (size - 1) &^ 7 // offset of the final double-word slot
	if dst > src && dst-src < size {
		for off := last; ; off -= 8 {
			fn(off)
			if off == 0 {
				return
			}
		}
	}
	for off := uint64(0); off <= last; off += 8 {
		fn(off)
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
func (c *costed) Name() string { return c.Facility.Name() + "+costed" }
