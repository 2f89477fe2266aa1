// Package vm executes the IR on a simulated 64-bit flat memory.
//
// The machine is deliberately faithful to the properties the paper's
// evaluation depends on:
//
//   - Control data lives in addressable simulated memory. Every call frame
//     stores a return token and saved frame pointer above the frame's
//     locals (x86-style), function pointers are addresses in a function
//     segment, and jmp_buf contents are ordinary user memory. Buffer
//     overflows therefore genuinely corrupt control data, and the Wilander
//     attack suite (Table 3) genuinely hijacks control flow when checking
//     is off.
//   - Unchecked out-of-bounds accesses that stay within a segment silently
//     corrupt neighbouring objects, as on real hardware; only accesses to
//     unmapped addresses fault.
//   - Every executed IR operation is costed in simulated x86 instructions,
//     with metadata operations costed per the selected facility (hash
//     table ≈ 9, shadow space ≈ 5 — paper §5.1), so overhead ratios have
//     the paper's shape.
package vm

import (
	"encoding/binary"
	"fmt"
)

// Address space layout (all constants are simulated addresses).
const (
	// GlobalBase is where module globals are laid out.
	GlobalBase uint64 = 0x0001_0000
	// HeapBase is the bottom of the heap, which grows upward.
	HeapBase uint64 = 0x0100_0000
	// DefaultHeapSize bounds the heap segment.
	DefaultHeapSize uint64 = 64 << 20
	// StackTop is the top of the stack, which grows downward.
	StackTop uint64 = 0x7000_0000
	// DefaultStackSize bounds the stack segment.
	DefaultStackSize uint64 = 8 << 20
	// FuncBase is the function segment: function i has address
	// FuncBase + i*FuncSlot. Calling such an address invokes the function.
	FuncBase uint64 = 0x7f00_0000_0000
	// FuncSlot spaces function addresses.
	FuncSlot uint64 = 16
	// RetTokenBase marks legitimate return-site tokens.
	RetTokenBase uint64 = 0x7e00_0000_0000
	// JmpTokenBase marks setjmp checkpoint tokens.
	JmpTokenBase uint64 = 0x7d00_0000_0000
)

// Mem is the simulated memory: three byte-array segments.
//
// The heap and stack are mapped over their full extent from the start —
// which addresses fault never depends on what has been touched — but are
// backed on first touch: an access beyond the current backing grows it,
// by doubling, up to the extent. The heap's backing covers its low
// addresses and grows upward; the stack's covers its high addresses and
// grows downward. Fresh backing is zero, so untouched memory reads as
// zero, as a fully backed segment would.
type Mem struct {
	globals []byte
	globEnd uint64 // GlobalBase + len(globals)

	heap    []byte // heap[i] backs address HeapBase+i
	heapEnd uint64 // HeapBase + heap segment size (mapped extent)

	stack     []byte // stack[i] backs address StackTop-len(stack)+i
	stackBase uint64 // StackTop - stack segment size (mapped extent)
}

// minBacking is the smallest backing a heap or stack touch allocates.
const minBacking = 4 << 10

// NewMem builds a memory with the given segment sizes.
func NewMem(globalSize, heapSize, stackSize uint64) *Mem {
	if heapSize == 0 {
		heapSize = DefaultHeapSize
	}
	if stackSize == 0 {
		stackSize = DefaultStackSize
	}
	return &Mem{
		globals:   make([]byte, globalSize),
		globEnd:   GlobalBase + globalSize,
		heapEnd:   HeapBase + heapSize,
		stackBase: StackTop - stackSize,
	}
}

// slice returns the backing bytes for [addr, addr+size), or an error if
// the range is not mapped within a single segment. The bytes stay valid
// only until the next access, which may grow (move) the backing.
func (m *Mem) slice(addr, size uint64) ([]byte, error) {
	switch {
	case addr >= GlobalBase && addr+size <= m.globEnd && addr+size >= addr:
		off := addr - GlobalBase
		return m.globals[off : off+size], nil
	case addr >= HeapBase && addr+size <= m.heapEnd && addr+size >= addr:
		off := addr - HeapBase
		if off+size > uint64(len(m.heap)) {
			m.heap = grow(m.heap, off+size, m.heapEnd-HeapBase, false)
		}
		return m.heap[off : off+size], nil
	case addr >= m.stackBase && addr+size <= StackTop && addr+size >= addr:
		depth := StackTop - addr
		if depth > uint64(len(m.stack)) {
			m.stack = grow(m.stack, depth, StackTop-m.stackBase, true)
		}
		off := uint64(len(m.stack)) - depth
		return m.stack[off : off+size], nil
	}
	return nil, &FaultError{Addr: addr, Size: size}
}

// grow returns a backing of at least need bytes holding b's contents:
// double b's length (at least minBacking), capped at the segment extent.
// A downward-growing segment keeps its bytes at the tail, since its top
// address is fixed.
func grow(b []byte, need, extent uint64, down bool) []byte {
	n := min(max(need, 2*uint64(len(b)), minBacking), extent)
	nb := make([]byte, n)
	if down {
		copy(nb[n-uint64(len(b)):], b)
	} else {
		copy(nb, b)
	}
	return nb
}

// FaultError is an access to unmapped simulated memory (a segfault).
type FaultError struct {
	Addr uint64
	Size uint64
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("segmentation fault: access of %d bytes at 0x%x", e.Size, e.Addr)
}

// Valid reports whether [addr, addr+size) is mapped.
func (m *Mem) Valid(addr, size uint64) bool {
	_, err := m.slice(addr, size)
	return err == nil
}

// ReadU64 loads 8 little-endian bytes.
func (m *Mem) ReadU64(addr uint64) (uint64, error) {
	b, err := m.slice(addr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// WriteU64 stores 8 little-endian bytes.
func (m *Mem) WriteU64(addr, v uint64) error {
	b, err := m.slice(addr, 8)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b, v)
	return nil
}

// ReadU32 loads 4 bytes.
func (m *Mem) ReadU32(addr uint64) (uint32, error) {
	b, err := m.slice(addr, 4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// WriteU32 stores 4 bytes.
func (m *Mem) WriteU32(addr uint64, v uint32) error {
	b, err := m.slice(addr, 4)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(b, v)
	return nil
}

// ReadU16 loads 2 bytes.
func (m *Mem) ReadU16(addr uint64) (uint16, error) {
	b, err := m.slice(addr, 2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

// WriteU16 stores 2 bytes.
func (m *Mem) WriteU16(addr uint64, v uint16) error {
	b, err := m.slice(addr, 2)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(b, v)
	return nil
}

// ReadU8 loads one byte.
func (m *Mem) ReadU8(addr uint64) (byte, error) {
	b, err := m.slice(addr, 1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// WriteU8 stores one byte.
func (m *Mem) WriteU8(addr uint64, v byte) error {
	b, err := m.slice(addr, 1)
	if err != nil {
		return err
	}
	b[0] = v
	return nil
}

// ReadBytes copies size bytes out of memory.
func (m *Mem) ReadBytes(addr, size uint64) ([]byte, error) {
	b, err := m.slice(addr, size)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, b)
	return out, nil
}

// WriteBytes copies data into memory.
func (m *Mem) WriteBytes(addr uint64, data []byte) error {
	b, err := m.slice(addr, uint64(len(data)))
	if err != nil {
		return err
	}
	copy(b, data)
	return nil
}

// CString reads a NUL-terminated string, bounded by maxLen to keep a
// runaway read from scanning the whole segment.
func (m *Mem) CString(addr uint64, maxLen int) (string, error) {
	var out []byte
	for i := 0; i < maxLen; i++ {
		c, err := m.ReadU8(addr + uint64(i))
		if err != nil {
			return string(out), err
		}
		if c == 0 {
			return string(out), nil
		}
		out = append(out, c)
	}
	return string(out), nil
}

// heapAllocator is a first-fit free-list allocator over the heap segment.
// Block bookkeeping lives outside simulated memory, but blocks are placed
// contiguously so an overflow from one allocation corrupts the next — the
// behaviour heap attacks rely on.
type heapAllocator struct {
	brk      uint64 // next fresh address
	limit    uint64
	free     map[uint64][]uint64 // size class -> addresses
	sizes    map[uint64]uint64   // live block -> size
	inUse    uint64
	maxInUse uint64
}

func newHeapAllocator(limit uint64) *heapAllocator {
	return &heapAllocator{
		brk:   HeapBase,
		limit: limit,
		free:  make(map[uint64][]uint64),
		sizes: make(map[uint64]uint64),
	}
}

func roundAlloc(n uint64) uint64 {
	if n == 0 {
		n = 1
	}
	return (n + 15) &^ 15
}

// alloc returns the address of a block of at least size bytes, or 0 when
// out of memory.
func (h *heapAllocator) alloc(size uint64) uint64 {
	cl := roundAlloc(size)
	if lst := h.free[cl]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		h.free[cl] = lst[:len(lst)-1]
		h.sizes[addr] = size
		h.account(cl)
		return addr
	}
	if h.brk+cl > h.limit {
		return 0
	}
	addr := h.brk
	h.brk += cl
	h.sizes[addr] = size
	h.account(cl)
	return addr
}

func (h *heapAllocator) account(cl uint64) {
	h.inUse += cl
	if h.inUse > h.maxInUse {
		h.maxInUse = h.inUse
	}
}

// size returns the live block size at addr (0 if not a live block start).
func (h *heapAllocator) size(addr uint64) uint64 { return h.sizes[addr] }

// release frees the block at addr; reports whether it was live.
func (h *heapAllocator) release(addr uint64) bool {
	sz, ok := h.sizes[addr]
	if !ok {
		return false
	}
	delete(h.sizes, addr)
	cl := roundAlloc(sz)
	h.free[cl] = append(h.free[cl], addr)
	h.inUse -= cl
	return true
}
