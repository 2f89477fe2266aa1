package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// flatMem is the eager model of Mem: every segment fully backed from the
// start. Mem backs its heap and stack on first touch; it must be
// indistinguishable from this model through every accessor.
type flatMem struct {
	globals, heap, stack []byte
}

func newFlatMem(globalSize, heapSize, stackSize uint64) *flatMem {
	return &flatMem{make([]byte, globalSize), make([]byte, heapSize), make([]byte, stackSize)}
}

func (f *flatMem) slice(addr, size uint64) ([]byte, error) {
	for _, s := range []struct {
		base uint64
		b    []byte
	}{{GlobalBase, f.globals}, {HeapBase, f.heap}, {StackTop - uint64(len(f.stack)), f.stack}} {
		end := s.base + uint64(len(s.b))
		if addr >= s.base && addr+size <= end && addr+size >= addr {
			return s.b[addr-s.base : addr-s.base+size], nil
		}
	}
	return nil, &FaultError{Addr: addr, Size: size}
}

func (f *flatMem) read(addr, size uint64) (uint64, error) {
	b, err := f.slice(addr, size)
	if err != nil {
		return 0, err
	}
	var w [8]byte
	copy(w[:], b)
	return binary.LittleEndian.Uint64(w[:]), nil
}

func (f *flatMem) write(addr, size, v uint64) error {
	b, err := f.slice(addr, size)
	if err != nil {
		return err
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	copy(b, w[:size])
	return nil
}

// memRead and memWrite dispatch to Mem's sized accessors.
func memRead(m *Mem, addr, size uint64) (uint64, error) {
	switch size {
	case 1:
		v, err := m.ReadU8(addr)
		return uint64(v), err
	case 2:
		v, err := m.ReadU16(addr)
		return uint64(v), err
	case 4:
		v, err := m.ReadU32(addr)
		return uint64(v), err
	}
	return m.ReadU64(addr)
}

func memWrite(m *Mem, addr, size, v uint64) error {
	switch size {
	case 1:
		return m.WriteU8(addr, byte(v))
	case 2:
		return m.WriteU16(addr, uint16(v))
	case 4:
		return m.WriteU32(addr, uint32(v))
	}
	return m.WriteU64(addr, v)
}

// pickAddr draws an address near a segment edge — mapped extents, the
// current backing edges, address 0 — or anywhere in a segment.
func pickAddr(r *rand.Rand, m *Mem) uint64 {
	edges := []uint64{
		0, GlobalBase, m.globEnd,
		HeapBase, m.heapEnd, HeapBase + uint64(len(m.heap)),
		m.stackBase, StackTop, StackTop - uint64(len(m.stack)),
	}
	if r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return GlobalBase + uint64(r.Int63n(int64(m.globEnd-GlobalBase)+1))
		case 1:
			return HeapBase + uint64(r.Int63n(int64(m.heapEnd-HeapBase)))
		default:
			return m.stackBase + uint64(r.Int63n(int64(StackTop-m.stackBase)))
		}
	}
	return edges[r.Intn(len(edges))] + uint64(r.Intn(33)) - 16
}

func TestMemMatchesEagerModel(t *testing.T) {
	for _, sz := range []struct{ globals, heap, stack uint64 }{
		{64, 1 << 20, 64 << 10},
		{0, 100_003, 5_001},                  // extents not a multiple of the growth step
		{24, minBacking / 2, minBacking / 3}, // extents below the first backing
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%d-%d-%d/seed%d", sz.globals, sz.heap, sz.stack, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				m := NewMem(sz.globals, sz.heap, sz.stack)
				f := newFlatMem(sz.globals, sz.heap, sz.stack)
				for op := 0; op < 20000; op++ {
					addr := pickAddr(r, m)
					size := uint64(1) << r.Intn(4)
					switch r.Intn(4) {
					case 0:
						got, gotErr := memRead(m, addr, size)
						want, wantErr := f.read(addr, size)
						if got != want || !reflect.DeepEqual(gotErr, wantErr) {
							t.Fatalf("op %d: read%d %#x = %#x, %v; model %#x, %v", op, size*8, addr, got, gotErr, want, wantErr)
						}
					case 1:
						v := r.Uint64()
						gotErr, wantErr := memWrite(m, addr, size, v), f.write(addr, size, v)
						if !reflect.DeepEqual(gotErr, wantErr) {
							t.Fatalf("op %d: write%d %#x: %v; model %v", op, size*8, addr, gotErr, wantErr)
						}
					case 2:
						n := uint64(r.Intn(64))
						if r.Intn(8) == 0 {
							n = uint64(r.Intn(1 << 16))
						}
						got, gotErr := m.ReadBytes(addr, n)
						want, wantErr := f.slice(addr, n)
						if !bytes.Equal(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
							t.Fatalf("op %d: ReadBytes(%#x, %d): err %v; model err %v", op, addr, n, gotErr, wantErr)
						}
					default:
						data := make([]byte, r.Intn(64))
						r.Read(data)
						gotErr := m.WriteBytes(addr, data)
						var wantErr error
						if b, err := f.slice(addr, uint64(len(data))); err != nil {
							wantErr = err
						} else {
							copy(b, data)
						}
						if !reflect.DeepEqual(gotErr, wantErr) {
							t.Fatalf("op %d: WriteBytes(%#x, %d): %v; model %v", op, addr, len(data), gotErr, wantErr)
						}
					}
				}
				// Whole segments, untouched bytes included, read back equal.
				for _, s := range []struct {
					base uint64
					b    []byte
				}{{GlobalBase, f.globals}, {HeapBase, f.heap}, {StackTop - uint64(len(f.stack)), f.stack}} {
					got, err := m.ReadBytes(s.base, uint64(len(s.b)))
					if err != nil || !bytes.Equal(got, s.b) {
						t.Fatalf("segment at %#x differs from the model (err %v)", s.base, err)
					}
				}
			})
		}
	}
}
