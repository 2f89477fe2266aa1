// Package soak is the generated-corpus differential soak harness: it
// draws seeded programs from internal/gen and runs each one across the
// full scheme × mode × engine matrix, holding the pipeline to the
// generator's contract. Clean cells must run to identical output with
// zero violations everywhere; planted cells must trap exactly where the
// plant's Detected predicate says a configuration checks that access,
// with both engines agreeing on the trap. Every divergence is shrunk to
// a minimal chunk subset and spooled as a crash-replay bundle, and the
// whole campaign is summarized as a SOAK.json report.
//
// The harness never dies on a hostile cell: compiler panics surface as
// typed CompileErrors at the driver boundary, and VM panics are
// recovered here into TrapPanic results (the same containment the
// execution service uses), so one bad program is one divergence line,
// not a dead campaign.
package soak

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"softbound/internal/driver"
	"softbound/internal/gen"
	"softbound/internal/ir"
	"softbound/internal/meta"
	"softbound/internal/metrics"
	"softbound/internal/vm"
)

// Config controls a matrix soak campaign.
type Config struct {
	// Cells is the number of generated programs to soak.
	Cells int
	// Seed salts every cell seed; the campaign is a pure function of
	// (Seed, Cells) and the code under test.
	Seed uint64
	// Workers bounds concurrent cells (default: GOMAXPROCS).
	Workers int
	// PlantsPerCell caps how many planted variants each cell exercises
	// (default 2; the selection is deterministic in the cell seed).
	PlantsPerCell int
	// Timeout and StepLimit bound each VM run.
	Timeout   time.Duration
	StepLimit uint64
	// SpoolDir, when set, receives one JSON repro bundle per shrunk
	// divergence.
	SpoolDir string
	// MaxShrinkRuns bounds predicate evaluations per shrink (default 24).
	MaxShrinkRuns int
	// Log, when set, receives progress lines.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Cells <= 0 {
		c.Cells = 100
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.PlantsPerCell <= 0 {
		c.PlantsPerCell = 2
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.StepLimit == 0 {
		c.StepLimit = 20_000_000
	}
	if c.MaxShrinkRuns <= 0 {
		c.MaxShrinkRuns = 24
	}
	return c
}

// Divergence is one broken invariant: a cell, the variant (clean or a
// plant site), the check that failed, and where.
type Divergence struct {
	Seed    uint64 `json:"seed"`
	Variant string `json:"variant"`
	Check   string `json:"check"`
	Config  string `json:"config,omitempty"`
	Detail  string `json:"detail"`
	// ShrunkFrom/ShrunkTo record the chunk counts before and after
	// delta-debugging (first divergence per variant only).
	ShrunkFrom int `json:"shrunk_from,omitempty"`
	ShrunkTo   int `json:"shrunk_to,omitempty"`
	// Bundle is the spooled repro path, when spooling is configured.
	Bundle string `json:"bundle,omitempty"`
}

// Check identifiers.
const (
	CheckCompile      = "compile-error"     // a variant failed to compile
	CheckUnstructured = "unstructured"      // a run ended in a non-violation trap
	CheckEngine       = "engine-mismatch"   // fast and ref engines disagree
	CheckScheme       = "scheme-mismatch"   // same-temporality schemes disagree
	CheckBaseline     = "baseline-mismatch" // a non-detecting run diverged from baseline
	CheckMissed       = "missed-detection"  // a plant went undetected where required
	CheckFalse        = "false-positive"    // a violation where none was planted
	CheckWrongTrap    = "wrong-trap"        // detected, but with the wrong trap code
)

// PlantedSummary aggregates planted-variant outcomes.
type PlantedSummary struct {
	// Total is the number of planted variants exercised.
	Total int `json:"total"`
	// Detected counts variants caught by every configuration that must
	// catch them; Missed counts variants with at least one miss.
	Detected int `json:"detected"`
	Missed   int `json:"missed"`
}

// Report is the SOAK.json schema (schema 1).
type Report struct {
	Schema  int      `json:"schema"`
	Seed    uint64   `json:"seed"`
	Cells   int      `json:"cells"`
	Runs    int      `json:"runs"`
	Schemes []string `json:"schemes"`
	Modes   []string `json:"modes"`
	Engines []string `json:"engines"`

	Planted       PlantedSummary `json:"planted"`
	TrapHistogram map[string]int `json:"trap_histogram"`

	Divergences    int          `json:"divergences"`
	Unstructured   int          `json:"unstructured"`
	DivergenceList []Divergence `json:"divergence_list,omitempty"`
	Shrinks        int          `json:"shrinks"`
	ShrinkRuns     int          `json:"shrink_runs"`
	WallNanos      int64        `json:"wall_nanos"`
}

// runCfg is one point of the execution matrix. Mode "none" is the
// unchecked baseline, whose scheme is the driver default and unused.
type runCfg struct {
	scheme meta.Kind
	mode   driver.Mode
	interp vm.InterpKind
}

func (rc runCfg) checked() bool { return rc.mode != driver.ModeNone }

// configName matches the BENCH.json vocabulary: "baseline" or
// "<scheme>-<mode>".
func (rc runCfg) configName() string {
	if !rc.checked() {
		return "baseline"
	}
	return rc.scheme.String() + "-" + rc.mode.String()
}

func (rc runCfg) String() string {
	return rc.configName() + "/" + rc.interp.String()
}

// engines are the interpreters every matrix config runs on; the fast
// engine comes first because it is the agreement checks' witness.
var engines = []vm.InterpKind{vm.InterpFast, vm.InterpRef}

// matrix enumerates baseline × engines plus every scheme × checked mode
// × engine.
func matrix() []runCfg {
	schemes := meta.Kinds()
	out := make([]runCfg, 0, len(engines)*(1+2*len(schemes)))
	for _, eng := range engines {
		out = append(out, runCfg{scheme: meta.KindShadowSpace, mode: driver.ModeNone, interp: eng})
	}
	for _, k := range schemes {
		for _, mode := range []driver.Mode{driver.ModeStoreOnly, driver.ModeFull} {
			for _, eng := range engines {
				out = append(out, runCfg{scheme: k, mode: mode, interp: eng})
			}
		}
	}
	return out
}

// soaker carries campaign state shared across workers.
type soaker struct {
	cfg   Config
	mu    sync.Mutex
	rep   *Report
	spool spooler
}

// Run executes a soak campaign. The returned Report is complete even
// when divergences occurred; the error is reserved for setup failures
// and context cancellation.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	start := time.Now()

	rep := &Report{
		Schema:        1,
		Seed:          cfg.Seed,
		Cells:         cfg.Cells,
		Modes:         []string{driver.ModeStoreOnly.String(), driver.ModeFull.String()},
		Schemes:       meta.KindNames(),
		Engines:       []string{vm.InterpFast.String(), vm.InterpRef.String()},
		TrapHistogram: map[string]int{},
	}

	s := &soaker{cfg: cfg, rep: rep, spool: spooler{dir: cfg.SpoolDir}}

	cells := make(chan int)
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cells {
				if err := ctx.Err(); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				s.soakCell(ctx, cellSeed(cfg.Seed, i))
			}
		}()
	}
	done := 0
	for i := 0; i < cfg.Cells; i++ {
		select {
		case cells <- i:
			done++
			if cfg.Log != nil && done%100 == 0 {
				fmt.Fprintf(cfg.Log, "soak: %d/%d cells dispatched, %d divergences\n",
					done, cfg.Cells, s.divergenceCount())
			}
		case <-ctx.Done():
			i = cfg.Cells // stop dispatching; workers drain
		}
	}
	close(cells)
	wg.Wait()

	sort.Slice(rep.DivergenceList, func(i, j int) bool {
		a, b := rep.DivergenceList[i], rep.DivergenceList[j]
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if a.Variant != b.Variant {
			return a.Variant < b.Variant
		}
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		return a.Check < b.Check
	})
	rep.WallNanos = time.Since(start).Nanoseconds()
	if firstErr != nil {
		return rep, firstErr
	}
	return rep, ctx.Err()
}

func (s *soaker) divergenceCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rep.Divergences
}

// cellSeed derives cell i's generator seed from the campaign seed with
// a splitmix64 finalizer, so neighbouring cells share no structure.
func cellSeed(base uint64, i int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// soakCell runs one generated program: the clean variant plus up to
// PlantsPerCell planted variants, each across the full matrix.
func (s *soaker) soakCell(ctx context.Context, seed uint64) {
	prog := gen.Generate(seed)

	divs, runs, traps := s.battery(ctx, prog, nil)
	s.record(ctx, prog, nil, divs, runs, traps)

	for _, pl := range selectPlants(prog, seed, s.cfg.PlantsPerCell) {
		pl := pl
		divs, runs, traps := s.battery(ctx, prog, &pl)
		s.record(ctx, prog, &pl, divs, runs, traps)
	}
}

// selectPlants picks up to n of the program's plants, deterministically
// in the cell seed (evenly strided from a seeded offset, so a long
// campaign covers every template's plant kinds).
func selectPlants(prog *gen.Program, seed uint64, n int) []gen.Plant {
	plants := prog.Plants()
	if len(plants) <= n {
		return plants
	}
	offset := int(seed>>17) % len(plants)
	out := make([]gen.Plant, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, plants[(offset+k*len(plants)/n)%len(plants)])
	}
	return out
}

// record folds one variant's outcome into the report, shrinking and
// spooling the first divergence.
func (s *soaker) record(ctx context.Context, prog *gen.Program, pl *gen.Plant, divs []Divergence, runs int, traps []string) {
	var shrinkRuns int
	if len(divs) > 0 {
		// Shrink the first divergence to a minimal chunk subset; the
		// rest of the variant's divergences ride along unshrunk.
		min, evals := s.shrinkDivergence(ctx, prog, pl, divs[0].Check)
		shrinkRuns = evals
		divs[0].ShrunkFrom = prog.Kept()
		divs[0].ShrunkTo = min.Kept()
		if path, err := s.spool.write(min, pl, divs[0]); err == nil && path != "" {
			divs[0].Bundle = path
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.rep.Runs += runs
	for _, code := range traps {
		s.rep.TrapHistogram[code]++
	}
	s.rep.Divergences += len(divs)
	s.rep.DivergenceList = append(s.rep.DivergenceList, divs...)
	if shrinkRuns > 0 {
		s.rep.Shrinks++
		s.rep.ShrinkRuns += shrinkRuns
	}
	for _, d := range divs {
		if d.Check == CheckUnstructured || d.Check == CheckCompile {
			s.rep.Unstructured++
		}
	}
	if pl != nil {
		s.rep.Planted.Total++
		missed := false
		for _, d := range divs {
			if d.Check == CheckMissed {
				missed = true
			}
		}
		if missed {
			s.rep.Planted.Missed++
		} else {
			s.rep.Planted.Detected++
		}
	}
}

// variantName labels a variant in reports.
func variantName(pl *gen.Plant) string {
	if pl == nil {
		return "clean"
	}
	return "plant:" + pl.Site
}

// battery compiles and runs one variant across the matrix and returns
// every broken invariant plus the trap codes observed. It is pure with
// respect to campaign state so the shrinker can re-evaluate it on chunk
// subsets.
func (s *soaker) battery(ctx context.Context, prog *gen.Program, pl *gen.Plant) ([]Divergence, int, []string) {
	seed := prog.Seed
	variant := variantName(pl)
	var src string
	if pl == nil {
		src = prog.Source()
	} else {
		src = prog.PlantedSource(*pl)
	}

	// Compile once per distinct artifact: modules depend on (mode,
	// temporality) only, so 18 runs share 5 compiles.
	type modKey struct {
		mode     driver.Mode
		temporal bool
	}
	mods := map[modKey]*compiled{}
	cfgs := matrix()
	results := make([]*driver.Result, len(cfgs))
	var divs []Divergence
	runs := 0
	for i, rc := range cfgs {
		key := modKey{mode: rc.mode, temporal: rc.scheme.Temporal()}
		m, ok := mods[key]
		if !ok {
			m = compileVariant(src, rc.mode, rc.scheme)
			mods[key] = m
			if m.err != nil {
				divs = append(divs, Divergence{
					Seed: seed, Variant: variant, Check: CheckCompile,
					Config: rc.configName(),
					Detail: fmt.Sprintf("compile failed: %v", m.err),
				})
			}
		}
		if m.err != nil {
			continue
		}
		results[i] = s.runContained(ctx, m, rc)
		runs++
	}

	checked, traps := checkRuns(seed, variant, pl, cfgs, results)
	return append(divs, checked...), runs, traps
}

// compiled pairs a module with its compile error; exactly one is set.
type compiled struct {
	mod *ir.Module
	err error
}

func compileVariant(src string, mode driver.Mode, kind meta.Kind) *compiled {
	cfg := driver.DefaultConfig(mode)
	cfg.Meta = kind
	mod, _, err := driver.CompileWithStats([]driver.Source{{Name: "main.c", Text: src}}, cfg)
	if err != nil {
		return &compiled{err: err}
	}
	return &compiled{mod: mod}
}

// runContained executes one matrix cell with the service's panic
// containment: a crashing VM becomes a TrapPanic result, never a dead
// worker goroutine.
func (s *soaker) runContained(ctx context.Context, m *compiled, rc runCfg) (res *driver.Result) {
	defer func() {
		if r := recover(); r != nil {
			trap := &vm.Trap{Code: vm.TrapPanic, Cause: fmt.Errorf("recovered panic: %v", r)}
			res = &driver.Result{Err: trap, Trap: trap, Stats: &metrics.Stats{}}
		}
	}()
	cfg := driver.DefaultConfig(rc.mode)
	cfg.Timeout = s.cfg.Timeout
	cfg.StepLimit = s.cfg.StepLimit
	cfg.Interp = rc.interp
	cfg.Meta = rc.scheme
	return driver.ExecuteContext(ctx, m.mod, cfg)
}
