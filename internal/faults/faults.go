// Package faults is a deterministic, seeded fault injector for the
// execution substrate: it can flip bits in stored pointer words, drop or
// corrupt metadata-table entries, and force allocator OOM at a chosen
// allocation — the adversarial inputs behind the fail-closed hardening
// suite (DESIGN.md "Failure model").
//
// Determinism contract: an Injector's schedule is a pure function of its
// Plan (seed included) and the sequence of events the run feeds it. The
// VM is deterministic, so two runs of the same program under equal plans
// deliver bit-identical fault schedules — a failing seed is a
// reproducible test case, mirroring how the paper replays its attack
// suite.
//
// The injector threads into a run through two narrow surfaces:
//
//   - vm.Config.PtrStoreFault / vm.Config.AllocFault take the injector's
//     PtrStoreMask and AllowAlloc hooks (the driver wires these).
//   - WrapFacility decorates a meta.Facility so scheduled Lookups return
//     dropped (zero) or clobbered entries.
//
// An Injector serves one VM run on one goroutine; harnesses build one
// injector per cell from a shared Plan.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"softbound/internal/meta"
)

// Plan configures an injector: which fault classes fire and how often.
// Every *Every field is a mean event gap (0 disables the class); the
// concrete schedule is drawn pseudo-randomly from Seed.
type Plan struct {
	// Seed selects the fault schedule; equal seeds replay identically.
	Seed uint64 `json:"seed"`
	// FlipEvery flips one high bit (20–39) of roughly every Nth committed
	// non-NULL pointer store, displacing the pointer by ≥1 MiB so any
	// later dereference leaves its object.
	FlipEvery uint64 `json:"flip_every,omitempty"`
	// DropEvery zeroes roughly every Nth non-empty metadata lookup
	// (simulating lost table entries; zero bounds fail every check).
	DropEvery uint64 `json:"drop_every,omitempty"`
	// CorruptEvery clobbers roughly every Nth non-empty metadata lookup
	// with garbage low-memory bounds (simulating overwritten entries).
	CorruptEvery uint64 `json:"corrupt_every,omitempty"`
	// OOMAt forces the Nth heap allocation of the run to fail (malloc
	// returns NULL), 1-based.
	OOMAt uint64 `json:"oom_at,omitempty"`
	// StaleEvery perturbs the key of roughly every Nth metadata lookup
	// that carries a temporal identity (Key != 0), simulating a stale or
	// damaged lock-and-key word. Under the CETS schemes the perturbed key
	// no longer matches its lock, so the next dereference through the
	// entry fails closed as a temporal violation. No-op under spatial-only
	// schemes, whose entries never carry keys.
	StaleEvery uint64 `json:"stale_every,omitempty"`
}

// Enabled reports whether any fault class is active.
func (p Plan) Enabled() bool {
	return p.FlipEvery != 0 || p.DropEvery != 0 || p.CorruptEvery != 0 ||
		p.OOMAt != 0 || p.StaleEvery != 0
}

// String renders the plan in ParsePlan's spec format.
func (p Plan) String() string {
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	for _, kv := range []struct {
		k string
		v uint64
	}{{"flip", p.FlipEvery}, {"drop", p.DropEvery}, {"corrupt", p.CorruptEvery},
		{"oom", p.OOMAt}, {"stale", p.StaleEvery}} {
		if kv.v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", kv.k, kv.v))
		}
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses a comma-separated spec like
// "seed=7,flip=200,drop=500,corrupt=300,oom=4,stale=100". Keys: seed,
// flip, drop, corrupt, oom, stale; omitted keys stay zero, the empty
// string is the zero Plan.
//
// The parser is strict so a typo cannot silently turn a fault arm into a
// no-op control arm: unknown keys, negative values, and repeated keys
// are all hard errors (a repeated key would otherwise last-win, hiding
// the earlier value).
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	fields := map[string]*uint64{
		"seed": &p.Seed, "flip": &p.FlipEvery, "drop": &p.DropEvery,
		"corrupt": &p.CorruptEvery, "oom": &p.OOMAt, "stale": &p.StaleEvery,
	}
	seen := map[string]bool{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, vs, ok := strings.Cut(field, "=")
		if !ok {
			return Plan{}, fmt.Errorf("faults: bad plan field %q (want key=value)", field)
		}
		k = strings.TrimSpace(k)
		dst, known := fields[k]
		if !known {
			keys := make([]string, 0, len(fields))
			for key := range fields {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			return Plan{}, fmt.Errorf("faults: unknown plan key %q (have %s)",
				k, strings.Join(keys, ", "))
		}
		if seen[k] {
			return Plan{}, fmt.Errorf("faults: duplicate plan key %q", k)
		}
		seen[k] = true
		vs = strings.TrimSpace(vs)
		if strings.HasPrefix(vs, "-") {
			return Plan{}, fmt.Errorf("faults: negative value in %q (event gaps and counts must be >= 0)", field)
		}
		v, err := strconv.ParseUint(vs, 10, 64)
		if err != nil {
			return Plan{}, fmt.Errorf("faults: bad value in %q: %v", field, err)
		}
		*dst = v
	}
	return p, nil
}

// Stats counts faults the injector actually delivered (scheduled faults
// that landed on NULL stores or empty metadata slots are deferred, not
// counted).
type Stats struct {
	Flips    uint64 `json:"flips"`
	Drops    uint64 `json:"drops"`
	Corrupts uint64 `json:"corrupts"`
	OOMs     uint64 `json:"ooms"`
	Stales   uint64 `json:"stales"`
}

// Total is the number of faults delivered across all classes.
func (s Stats) Total() uint64 { return s.Flips + s.Drops + s.Corrupts + s.OOMs + s.Stales }

// Injector delivers one plan's fault schedule into one run. Not safe for
// concurrent use: it serves the single goroutine executing its VM.
type Injector struct {
	plan Plan
	rng  uint64

	// Absolute event indices of the next scheduled fault per class.
	nextFlip, nextDrop, nextCorrupt, nextStale uint64
	// Event counters.
	stores, lookups, allocs uint64

	stats Stats
}

// NewInjector builds an injector; equal plans yield equal schedules.
func NewInjector(p Plan) *Injector {
	i := &Injector{plan: p, rng: p.Seed*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9}
	if p.FlipEvery > 0 {
		i.nextFlip = i.gap(p.FlipEvery)
	}
	if p.DropEvery > 0 {
		i.nextDrop = i.gap(p.DropEvery)
	}
	if p.CorruptEvery > 0 {
		i.nextCorrupt = i.gap(p.CorruptEvery)
	}
	if p.StaleEvery > 0 {
		i.nextStale = i.gap(p.StaleEvery)
	}
	return i
}

// Plan returns the injector's configuration.
func (i *Injector) Plan() Plan { return i.plan }

// Stats returns the delivered-fault counters so far.
func (i *Injector) Stats() Stats { return i.stats }

// next advances the splitmix64 stream.
func (i *Injector) next() uint64 {
	i.rng += 0x9e3779b97f4a7c15
	z := i.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// gap draws a schedule gap uniform on [1, 2*period-1] (mean ≈ period).
func (i *Injector) gap(period uint64) uint64 {
	return 1 + i.next()%(2*period-1)
}

// PtrStoreMask is the vm.Config.PtrStoreFault hook: consulted on every
// committed pointer store, it returns a one-bit XOR mask when a flip is
// scheduled (0 otherwise). NULL stores defer the schedule by one event —
// flipping a NULL would fabricate a pointer out of nothing rather than
// corrupt an existing one.
func (i *Injector) PtrStoreMask(addr, val uint64) uint64 {
	if i.plan.FlipEvery == 0 {
		return 0
	}
	i.stores++
	if i.stores < i.nextFlip {
		return 0
	}
	if val == 0 {
		i.nextFlip++
		return 0
	}
	i.nextFlip = i.stores + i.gap(i.plan.FlipEvery)
	i.stats.Flips++
	return 1 << (20 + i.next()%20)
}

// AllowAlloc is the vm.Config.AllocFault hook: it forces the plan's Nth
// heap allocation to fail, modeling sudden OOM.
func (i *Injector) AllowAlloc(size uint64) bool {
	if i.plan.OOMAt == 0 {
		return true
	}
	i.allocs++
	if i.allocs == i.plan.OOMAt {
		i.stats.OOMs++
		return false
	}
	return true
}

// WrapFacility decorates a metadata facility with the metadata fault
// classes: scheduled Lookups return a dropped (zero) or clobbered entry.
// Updates, clears, and copies pass through untouched — the faults model
// table damage, not tracking bugs. Returns f unchanged when neither
// metadata class is enabled.
func (i *Injector) WrapFacility(f meta.Facility) meta.Facility {
	if i.plan.DropEvery == 0 && i.plan.CorruptEvery == 0 && i.plan.StaleEvery == 0 {
		return f
	}
	return &faultyFacility{Facility: f, inj: i}
}

type faultyFacility struct {
	meta.Facility
	inj *Injector
}

func (f *faultyFacility) Lookup(addr uint64) meta.Entry {
	return f.inj.mutateLookup(f.Facility.Lookup(addr))
}

// mutateLookup applies the metadata fault schedule to one lookup result.
// Empty entries defer the schedule (dropping or clobbering a slot that is
// already zero changes nothing).
func (i *Injector) mutateLookup(e meta.Entry) meta.Entry {
	i.lookups++
	if i.plan.DropEvery > 0 && i.lookups >= i.nextDrop {
		if e == (meta.Entry{}) {
			i.nextDrop++
		} else {
			i.nextDrop = i.lookups + i.gap(i.plan.DropEvery)
			i.stats.Drops++
			return meta.Entry{}
		}
	}
	if i.plan.CorruptEvery > 0 && i.lookups >= i.nextCorrupt {
		if e == (meta.Entry{}) {
			i.nextCorrupt++
		} else {
			i.nextCorrupt = i.lookups + i.gap(i.plan.CorruptEvery)
			i.stats.Corrupts++
			// Clobber with garbage bounds in unmapped low memory: no
			// mapped address lies inside [b, b+1), so any dereference
			// through the damaged entry fails its check — the corruption
			// is detected, never widens access.
			b := 16 + i.next()%4096
			return meta.Entry{Base: b, Bound: b + 1}
		}
	}
	if i.plan.StaleEvery > 0 && i.lookups >= i.nextStale {
		if e.Key == 0 {
			// Only entries carrying a temporal identity can go stale;
			// spatial-only entries defer the schedule.
			i.nextStale++
		} else {
			i.nextStale = i.lookups + i.gap(i.plan.StaleEvery)
			i.stats.Stales++
			// Perturb the key so it no longer matches its lock's word:
			// the dereference fails closed as a temporal violation.
			e.Key ^= 1 + i.next()%255
		}
	}
	return e
}
