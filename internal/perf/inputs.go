package perf

import (
	"context"
	"fmt"
	"sync"

	"softbound/internal/driver"
	"softbound/internal/gen"
	"softbound/internal/meta"
	"softbound/internal/progs"
	"softbound/internal/vm"
)

// config is one column of the Figure 2 matrix: the unchecked baseline or
// one registered metadata scheme under one checking mode.
type config struct {
	name   string
	mode   driver.Mode
	scheme meta.Scheme // zero for the baseline
}

// configs returns the baseline followed by every registered scheme ×
// {store-only, full}: 9 configurations with the four built-in schemes.
func configs() []config {
	out := []config{{name: "baseline", mode: driver.ModeNone}}
	for _, sc := range meta.Schemes() {
		for _, m := range []driver.Mode{driver.ModeStoreOnly, driver.ModeFull} {
			out = append(out, config{name: sc.Name + "-" + m.String(), mode: m, scheme: sc})
		}
	}
	return out
}

// configByName resolves a configuration label ("baseline" or
// "<scheme>-<mode>", the vocabulary serve responses use).
func configByName(name string) (config, bool) {
	for _, c := range configs() {
		if c.name == name {
			return c, true
		}
	}
	return config{}, false
}

// driverConfig is the driver's default configuration for the mode with
// the scheme wired in by constructor, as sbbench and serve do it.
func (c config) driverConfig() driver.Config {
	cfg := driver.DefaultConfig(c.mode)
	if c.mode != driver.ModeNone {
		cfg.Meta = c.scheme.Kind
		ctor := c.scheme.New
		cfg.MetaFacility = func() (meta.Facility, error) { return ctor(), nil }
	}
	return cfg
}

func (c config) checked() bool  { return c.mode != driver.ModeNone }
func (c config) temporal() bool { return c.checked() && c.scheme.Kind.Temporal() }

// outcome is how a run ended, as the correctness check compares it.
type outcome struct {
	exit   int64
	output string
	trap   vm.TrapCode
	sim    uint64 // modeled instruction count
}

// outcomeOf classifies a driver result; any error, trap or not, gets a
// non-empty code.
func outcomeOf(res *driver.Result) outcome {
	return outcome{exit: res.ExitCode, output: res.Output, trap: vm.CodeOf(res.Err), sim: res.Stats.SimInsts}
}

// entry is one input program with its known answer: the reference
// engine's run of its unchecked build, computed in set-up.
type entry struct {
	name  string
	src   string
	plant *gen.Plant // nil for a clean program
	want  outcome
}

// check compares a run against the entry's known answer. A planted
// violation must trap with exactly the code its Detected predicate names
// wherever the predicate says the configuration catches it; everywhere
// else the run must reproduce the oracle's exit code and output.
func (e *entry) check(c config, got outcome) error {
	if e.plant != nil && c.checked() && e.plant.Detected(c.mode == driver.ModeFull, c.temporal()) {
		want := vm.TrapSpatial
		if e.plant.Kind == gen.PlantTemporal {
			want = vm.TrapTemporal
		}
		if got.trap != want {
			return fmt.Errorf("%s under %s: trap %q, want %q (plant %s)", e.name, c.name, got.trap, want, e.plant.Site)
		}
		return nil
	}
	if got.trap != "" {
		return fmt.Errorf("%s under %s: unexpected trap %q", e.name, c.name, got.trap)
	}
	if got.exit != e.want.exit || got.output != e.want.output {
		return fmt.Errorf("%s under %s: exit %d output %q, want exit %d output %q",
			e.name, c.name, got.exit, clip(got.output), e.want.exit, clip(e.want.output))
	}
	return nil
}

// simRatio is the run's modeled instruction count over the unchecked
// oracle's: the Figure 2 overhead of one checked run of a clean program
// (0 where that is undefined: baseline runs and planted programs).
func (e *entry) simRatio(c config, got outcome) float64 {
	if !c.checked() || e.plant != nil || e.want.sim == 0 {
		return 0
	}
	return float64(got.sim) / float64(e.want.sim)
}

func clip(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}

// runOracle computes an entry's known answer with the reference engine
// on the unchecked build. The oracle must end cleanly: generated plants
// only corrupt sentinel padding when nothing checks them.
func runOracle(ctx context.Context, e *entry) error {
	cfg := driver.DefaultConfig(driver.ModeNone)
	cfg.Interp = vm.InterpRef
	mod, _, err := driver.CompileWithStats([]driver.Source{{Name: e.name + ".c", Text: e.src}}, cfg)
	if err != nil {
		return fmt.Errorf("oracle %s: %w", e.name, err)
	}
	res := driver.ExecuteContext(ctx, mod, cfg)
	if res.Err != nil {
		return fmt.Errorf("oracle %s: %w", e.name, res.Err)
	}
	e.want = outcomeOf(res)
	return nil
}

// runOracles fills every entry's known answer on workers goroutines.
func runOracles(ctx context.Context, entries []*entry, workers int) error {
	next := make(chan *entry)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for e := range next {
				if first == nil {
					first = runOracle(ctx, e)
				}
			}
			errs <- first
		}()
	}
	for _, e := range entries {
		next <- e
	}
	close(next)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mix derives the i-th value of a seeded sequence with a splitmix64
// finalizer, so neighbouring indices share no structure.
func mix(seed, i uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// permutation is a seeded Fisher-Yates shuffle of 0..n-1.
func permutation(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed, uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// newPool draws n generated programs from the seed, three clean to one
// planted: every fourth entry carries one planted violation, chosen by
// the entry's own seed among its program's plants.
func newPool(seed uint64, n int) []*entry {
	pool := make([]*entry, n)
	for i := range pool {
		cs := mix(seed, uint64(i))
		p := gen.Generate(cs)
		e := &entry{name: fmt.Sprintf("gen-%016x", cs), src: p.Source()}
		if plants := p.Plants(); i%4 == 3 && len(plants) > 0 {
			pl := plants[cs%uint64(len(plants))]
			e.plant = &pl
			e.name += fmt.Sprintf("-plant%d.%d", pl.Chunk, pl.Index)
			e.src = p.PlantedSource(pl)
		}
		pool[i] = e
	}
	return pool
}

// smallScale is a quick problem size per paper program (the progs tests'
// scales): smoke runs use it for the whole matrix, serve-mixed for the
// programs in its hot set.
var smallScale = map[string]int{
	"go": 8, "lbm": 4, "hmmer": 8, "compress": 4, "ijpeg": 3,
	"bh": 16, "tsp": 6, "libquantum": 2, "perimeter": 4, "health": 10,
	"bisort": 6, "mst": 24, "li": 4, "em3d": 40, "treeadd": 8,
}

// progEntry renders a paper program at a scale (0 = its default).
func progEntry(b progs.Benchmark, scale int) *entry {
	return &entry{name: b.Name, src: b.Source(scale)}
}
