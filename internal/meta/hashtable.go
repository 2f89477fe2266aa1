package meta

import "fmt"

// HashTable is the open-hashing metadata organization (paper §5.1):
// entries of (tag, base, bound), hashed by double-word address with a
// shift-and-mask hash, collisions resolved by open addressing (linear
// probing), and the table sized to keep utilization low. Each entry is 24
// bytes assuming 64-bit pointers; a temporal table appends the key and
// lock words, 40 bytes per entry.
type HashTable struct {
	// slots holds the entries back to back, stride words each: the tag
	// (pointer address +1, 0 = empty), then the slot's metadata words.
	slots    []uint64
	stride   uint64
	mask     uint64
	used     int
	live     int64 // slots with nonzero metadata (tombstones excluded)
	temporal bool

	// Probes counts total probe steps, exposing collision behaviour to
	// tests and benchmarks.
	Probes uint64
}

// NewHashTable returns a table with the given power-of-two entry count,
// storing key and lock words when temporal is set. A non-power-of-two
// size is a constructor error (the shift-and-mask hash requires the
// invariant), propagated so callers can fail closed.
func NewHashTable(entries int, temporal bool) (*HashTable, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("meta: hash table size %d is not a positive power of two", entries)
	}
	stride := 1 + slotWords(temporal)
	return &HashTable{
		slots:    make([]uint64, uint64(entries)*stride),
		stride:   stride,
		mask:     uint64(entries - 1),
		temporal: temporal,
	}, nil
}

// MustHashTable is NewHashTable for compile-time-constant sizes, where a
// bad size is a programmer error.
func MustHashTable(entries int, temporal bool) *HashTable {
	h, err := NewHashTable(entries, temporal)
	if err != nil {
		panic(err)
	}
	return h
}

// probe walks addr's probe chain. The key is the double-word address
// (paper §5.1): the low three bits do not participate, so all byte
// addresses within one pointer slot share an entry. The hash is the
// paper's simple one, the double-word address modulo the table size
// (shift and mask). probe returns the index of the entry tagged for
// addr, or of the empty entry that ends the chain (found false).
func (h *HashTable) probe(addr uint64) (i uint64, found bool) {
	tag := addr&^7 + 1
	for i = (addr >> 3) & h.mask; ; i = (i + 1) & h.mask {
		h.Probes++
		switch h.slots[i*h.stride] {
		case tag:
			return i, true
		case 0:
			return i, false
		}
	}
}

// words returns entry i's metadata words (everything after the tag).
func (h *HashTable) words(i uint64) []uint64 {
	j := i * h.stride
	return h.slots[j+1 : j+h.stride]
}

// Lookup finds the entry for addr, or the zero entry.
func (h *HashTable) Lookup(addr uint64) Entry {
	if i, ok := h.probe(addr); ok {
		return load(h.words(i))
	}
	return Entry{}
}

// Update inserts or replaces the entry for addr, growing at 70% load.
// Like Lookup, the key is the double-word address, so an update through an
// unaligned byte address lands on the same entry Lookup and Clear use.
func (h *HashTable) Update(addr uint64, e Entry) {
	if uint64(h.used)*10 >= (h.mask+1)*7 {
		h.grow()
	}
	i, ok := h.probe(addr)
	if !ok {
		h.slots[i*h.stride] = addr&^7 + 1
		h.used++
	}
	h.live += put(h.words(i), e)
}

func (h *HashTable) grow() {
	old := h.slots
	h.slots = make([]uint64, 2*len(old))
	h.mask = 2*h.mask + 1
	h.used = 0
	h.live = 0 // Update re-accounts every reinserted entry below
	for j := uint64(0); j < uint64(len(old)); j += h.stride {
		// Cleared entries keep their tag (Clear zeroes only the metadata
		// words — open addressing cannot break probe chains), but
		// rehashing is the one place dead entries can be dropped:
		// skipping them here lets the load factor recover after
		// update/clear churn.
		if e := load(old[j+1 : j+h.stride]); old[j] != 0 && e.live() {
			h.Update(old[j]-1, e)
		}
	}
}

// Clear zeroes metadata for every double-word slot in [addr, addr+size).
// Open addressing cannot delete without tombstones; zeroing the metadata
// words is equivalent for safety (NULL bounds and a zero key fail all
// checks).
func (h *HashTable) Clear(addr, size uint64) {
	if size == 0 {
		return
	}
	for a := addr &^ 7; a < addr+size; a += 8 {
		if i, ok := h.probe(a); ok {
			h.live += put(h.words(i), Entry{})
		}
	}
}

// CopyRange copies metadata for each pointer-aligned slot with memmove
// semantics; a temporal table's key and lock travel with the spatial
// words, so memcpy'd pointers keep their allocation identity.
func (h *HashTable) CopyRange(dst, src, size uint64) { copyRange(h, dst, src, size) }

// HashTableCost is the paper's ~9-instruction lookup or update of the
// spatial hash table.
const HashTableCost = 9

// Costs reports HashTableCost per operation. A temporal table costs ~13:
// two more loads (key, lock) and the lock-table load and compare.
func (h *HashTable) Costs() Costs {
	if h.temporal {
		return Costs{Lookup: 13, Update: 13}
	}
	return Costs{Lookup: HashTableCost, Update: HashTableCost}
}

// Occupancy reports live (non-tombstone) entries and table bytes: 24 per
// entry, or 40 when temporal.
func (h *HashTable) Occupancy() Occupancy {
	return Occupancy{Live: h.live, Bytes: int64(len(h.slots)) * 8}
}

// Kind identifies the scheme.
func (h *HashTable) Kind() Kind {
	if h.temporal {
		return KindHashTableCETS
	}
	return KindHashTable
}
