// Package metrics collects the execution statistics the paper's
// evaluation reports: the memory-operation mix that drives Figure 1 and
// the simulated-instruction accounting that drives Figure 2.
package metrics

import "fmt"

// Stats accumulates per-run counters.
type Stats struct {
	// Dynamic IR operation counts.
	Insts uint64 // all executed IR instructions

	Loads       uint64 // memory loads
	Stores      uint64 // memory stores
	PtrLoads    uint64 // loads of pointer values (need metadata access)
	PtrStores   uint64 // stores of pointer values
	Checks      uint64 // bounds checks executed
	LoadChecks  uint64
	StoreChecks uint64
	CallChecks  uint64
	// TemporalChecks counts CETS lock-and-key verifications, performed
	// before the spatial compare of checks that carry temporal operands
	// (zero under the spatial-only schemes).
	TemporalChecks uint64
	MetaLoads      uint64 // metadata table lookups
	MetaStores     uint64 // metadata table updates
	MetaClears     uint64
	// MetaCopyWords counts the pointer-sized words whose metadata the
	// memcpy/memmove builtin carried, each charged one facility lookup.
	MetaCopyWords uint64

	Calls uint64

	// SimInsts models the x86 instruction count of the run: each IR
	// operation contributes its approximate lowered instruction count,
	// and metadata operations contribute the facility's modeled cost
	// (9 for hash table, 5 for shadow space — paper §5.1).
	SimInsts uint64

	// Allocations.
	Mallocs   uint64
	Frees     uint64
	MaxHeap   uint64
	MetaBytes int64 // metadata facility footprint at exit
	MetaLive  int64 // live metadata entries at exit (facility occupancy)
	// MetaCacheHits and MetaCacheMisses counted the probes of a metadata
	// lookaside that is retired.
	//
	// Deprecated: always zero.
	MetaCacheHits   uint64
	MetaCacheMisses uint64

	// Opt records the compile-time optimizer counters for the module
	// this run executed (zero when the optimizer was off); Report derives
	// check_elims from it.
	Opt OptCounters

	// TrapCode is the machine-readable classification of how the run
	// ended ("" = clean exit); values come from vm.TrapCode. The harness
	// fills it from the execution error after the run.
	TrapCode string
}

// OptCounters breaks down what the optimizer passes changed for one
// compiled module. The struct is flat and comparable: Stats and Report
// embed it by value and tests compare reports with ==.
type OptCounters struct {
	FoldedConsts        uint64 `json:"folded_consts"`
	RemovedInsts        uint64 `json:"removed_insts"`
	ChecksRemovedLocal  uint64 `json:"checks_removed_local"`
	ChecksRemovedGlobal uint64 `json:"checks_removed_global"`
	MetaLoadsMerged     uint64 `json:"meta_loads_merged"`
	// MetaLoadsHoisted counted the metadata loads moved by a retired
	// loop-invariant hoisting pass. BENCH.json keeps the key, and
	// internal/perf still reads the field.
	//
	// Deprecated: always zero.
	MetaLoadsHoisted uint64 `json:"meta_loads_hoisted"`
	DeadMetaLoads    uint64 `json:"dead_meta_loads"`
}

// ChecksRemoved is the total checks eliminated across both passes.
func (o OptCounters) ChecksRemoved() uint64 {
	return o.ChecksRemovedLocal + o.ChecksRemovedGlobal
}

// MemOps returns the total dynamic memory operations.
func (s *Stats) MemOps() uint64 { return s.Loads + s.Stores }

// PtrMemOps returns loads+stores that move pointer values.
func (s *Stats) PtrMemOps() uint64 { return s.PtrLoads + s.PtrStores }

// PtrMemFrac returns the fraction of memory operations that load or store
// a pointer — the quantity Figure 1 plots.
func (s *Stats) PtrMemFrac() float64 {
	if s.MemOps() == 0 {
		return 0
	}
	return float64(s.PtrMemOps()) / float64(s.MemOps())
}

// Overhead returns the relative simulated-instruction overhead of this
// run versus a baseline run, as a fraction (0.79 = 79%).
func (s *Stats) Overhead(baseline *Stats) float64 {
	if baseline.SimInsts == 0 {
		return 0
	}
	return float64(s.SimInsts)/float64(baseline.SimInsts) - 1
}

// String summarizes the stats.
func (s *Stats) String() string {
	return fmt.Sprintf(
		"insts=%d sim=%d mem=%d (ptr %.1f%%) checks=%d meta=%d/%d heap=%d",
		s.Insts, s.SimInsts, s.MemOps(), 100*s.PtrMemFrac(),
		s.Checks, s.MetaLoads, s.MetaStores, s.MaxHeap)
}
