package faults

import (
	"strings"
	"testing"

	"softbound/internal/meta"
)

func TestParsePlanRoundTrip(t *testing.T) {
	p, err := ParsePlan("seed=7,flip=200,drop=500,corrupt=300,oom=4")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 7, FlipEvery: 200, DropEvery: 500, CorruptEvery: 300, OOMAt: 4}
	if p != want {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	back, err := ParsePlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("round trip %+v != %+v", back, p)
	}
}

func TestParsePlanEmptyAndErrors(t *testing.T) {
	if p, err := ParsePlan(""); err != nil || p.Enabled() {
		t.Fatalf("empty spec: %+v, %v", p, err)
	}
	if p, err := ParsePlan("  "); err != nil || p.Enabled() {
		t.Fatalf("blank spec: %+v, %v", p, err)
	}
	for _, bad := range []string{"flip", "flip=x", "bogus=1", "seed=-3"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q): expected error", bad)
		}
	}
}

// TestParsePlanRejectsUnknownKeys pins the failure mode the soak relies
// on: a typo'd key must be a hard error, never a silently-ignored no-op
// control arm. The unknown-key diagnostic must name the key even when
// the value would not parse either.
func TestParsePlanRejectsUnknownKeys(t *testing.T) {
	for _, spec := range []string{"flp=10", "seed=1,dorp=5", "oom=2,extra=1", "bogus=x"} {
		_, err := ParsePlan(spec)
		if err == nil {
			t.Fatalf("ParsePlan(%q): expected unknown-key error", spec)
		}
		if !strings.Contains(err.Error(), "unknown plan key") {
			t.Errorf("ParsePlan(%q): error %v does not identify the unknown key", spec, err)
		}
	}
}

// TestParsePlanRejectsNegativeValues pins the explicit negative-value
// diagnostic (not just a generic uint parse failure).
func TestParsePlanRejectsNegativeValues(t *testing.T) {
	for _, spec := range []string{"flip=-1", "seed=5,drop=-200", "oom=-0"} {
		_, err := ParsePlan(spec)
		if err == nil {
			t.Fatalf("ParsePlan(%q): expected negative-value error", spec)
		}
		if !strings.Contains(err.Error(), "negative value") {
			t.Errorf("ParsePlan(%q): error %v does not call out the negative value", spec, err)
		}
	}
}

// TestParsePlanRejectsDuplicateKeys: a repeated key would last-win and
// silently hide the earlier value, so it is a hard error too.
func TestParsePlanRejectsDuplicateKeys(t *testing.T) {
	for _, spec := range []string{"flip=1,flip=2", "seed=1,drop=2,seed=3"} {
		_, err := ParsePlan(spec)
		if err == nil {
			t.Fatalf("ParsePlan(%q): expected duplicate-key error", spec)
		}
		if !strings.Contains(err.Error(), "duplicate plan key") {
			t.Errorf("ParsePlan(%q): error %v does not identify the duplicate", spec, err)
		}
	}
}

// replay records an injector's full observable schedule over a synthetic
// event stream.
func replay(p Plan, events int) []uint64 {
	inj := NewInjector(p)
	var out []uint64
	for i := 0; i < events; i++ {
		addr := uint64(0x1000 + 8*i)
		val := uint64(0x200000 + 16*i)
		out = append(out, inj.PtrStoreMask(addr, val))
		e := inj.mutateLookup(meta.Entry{Base: val, Bound: val + 64})
		out = append(out, e.Base, e.Bound)
		if inj.AllowAlloc(64) {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

func TestDeterminism(t *testing.T) {
	p := Plan{Seed: 42, FlipEvery: 7, DropEvery: 11, CorruptEvery: 13, OOMAt: 23}
	a := replay(p, 500)
	b := replay(p, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := replay(Plan{Seed: 43, FlipEvery: 7, DropEvery: 11, CorruptEvery: 13, OOMAt: 23}, 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPtrStoreMaskSkipsNull(t *testing.T) {
	inj := NewInjector(Plan{Seed: 1, FlipEvery: 1})
	for i := 0; i < 100; i++ {
		if m := inj.PtrStoreMask(uint64(8*i), 0); m != 0 {
			t.Fatalf("NULL store %d got mask %#x", i, m)
		}
	}
	if inj.Stats().Flips != 0 {
		t.Fatalf("flips counted on NULL stores: %+v", inj.Stats())
	}
	// The deferred schedule must still fire on the next real pointer.
	if m := inj.PtrStoreMask(0x800, 0x300000); m == 0 {
		t.Fatal("deferred flip never delivered")
	}
	if inj.Stats().Flips != 1 {
		t.Fatalf("flip not counted: %+v", inj.Stats())
	}
}

func TestMaskBitsDisplaceFar(t *testing.T) {
	inj := NewInjector(Plan{Seed: 9, FlipEvery: 1})
	for i := 0; i < 200; i++ {
		m := inj.PtrStoreMask(uint64(8*i), 0x400000)
		if m == 0 {
			continue
		}
		if m&(m-1) != 0 {
			t.Fatalf("mask %#x is not a single bit", m)
		}
		if m < 1<<20 || m >= 1<<40 {
			t.Fatalf("mask %#x outside bit range [20,40)", m)
		}
	}
}

func TestAllowAllocFailsExactlyNth(t *testing.T) {
	inj := NewInjector(Plan{Seed: 5, OOMAt: 3})
	var failed []int
	for i := 1; i <= 10; i++ {
		if !inj.AllowAlloc(64) {
			failed = append(failed, i)
		}
	}
	if len(failed) != 1 || failed[0] != 3 {
		t.Fatalf("failed allocations %v, want [3]", failed)
	}
	if inj.Stats().OOMs != 1 {
		t.Fatalf("OOM count %d, want 1", inj.Stats().OOMs)
	}
}

// recorder is a minimal in-memory facility for wrapper tests.
type recorder struct {
	entries map[uint64]meta.Entry
}

func (r *recorder) Lookup(addr uint64) meta.Entry { return r.entries[addr&^7] }
func (r *recorder) Update(addr uint64, e meta.Entry) {
	r.entries[addr&^7] = e
}
func (r *recorder) Clear(addr, size uint64) {
	for a := addr &^ 7; a < addr+size; a += 8 {
		delete(r.entries, a)
	}
}
func (r *recorder) CopyRange(dst, src, size uint64) {}
func (r *recorder) Costs() meta.Costs               { return meta.Costs{} }
func (r *recorder) Occupancy() meta.Occupancy {
	return meta.Occupancy{Live: int64(len(r.entries))}
}
func (r *recorder) Name() string { return "recorder" }

func TestWrapFacilityDropAndCorrupt(t *testing.T) {
	base := &recorder{entries: map[uint64]meta.Entry{}}
	good := meta.Entry{Base: 0x100000, Bound: 0x100040}
	for i := uint64(0); i < 64; i++ {
		base.Update(0x1000+8*i, good)
	}
	inj := NewInjector(Plan{Seed: 3, DropEvery: 4, CorruptEvery: 4})
	wrapped := inj.WrapFacility(base)
	if wrapped == meta.Facility(base) {
		t.Fatal("enabled metadata faults did not wrap the facility")
	}

	var drops, corrupts, clean int
	for i := uint64(0); i < 64; i++ {
		e := wrapped.Lookup(0x1000 + 8*i)
		switch {
		case e == (meta.Entry{}):
			drops++
		case e == good:
			clean++
		default:
			corrupts++
			// Corrupted bounds must be garbage that can never satisfy a
			// check against real objects: tiny and in low memory.
			if e.Bound-e.Base != 1 || e.Base >= 16+4096 {
				t.Fatalf("corrupt entry %+v not fail-closed garbage", e)
			}
		}
	}
	if drops == 0 || corrupts == 0 || clean == 0 {
		t.Fatalf("want a mix of outcomes, got drops=%d corrupts=%d clean=%d", drops, corrupts, clean)
	}
	st := inj.Stats()
	if int(st.Drops) != drops || int(st.Corrupts) != corrupts {
		t.Fatalf("stats %+v disagree with observed drops=%d corrupts=%d", st, drops, corrupts)
	}
}

func TestWrapFacilityPassthroughWhenDisabled(t *testing.T) {
	base := &recorder{entries: map[uint64]meta.Entry{}}
	inj := NewInjector(Plan{Seed: 1, FlipEvery: 10, OOMAt: 2})
	if inj.WrapFacility(base) != meta.Facility(base) {
		t.Fatal("facility wrapped although no metadata fault class is enabled")
	}
}

func TestWrapFacilityDefersEmptyEntries(t *testing.T) {
	base := &recorder{entries: map[uint64]meta.Entry{}}
	inj := NewInjector(Plan{Seed: 2, DropEvery: 1})
	wrapped := inj.WrapFacility(base)
	for i := uint64(0); i < 50; i++ {
		wrapped.Lookup(0x9000 + 8*i) // all empty: nothing to drop
	}
	if inj.Stats().Drops != 0 {
		t.Fatalf("drops counted on empty entries: %+v", inj.Stats())
	}
	base.Update(0x400, meta.Entry{Base: 0x400, Bound: 0x500})
	if e := wrapped.Lookup(0x400); e != (meta.Entry{}) {
		t.Fatalf("deferred drop not delivered on first real entry: %+v", e)
	}
}
