package driver

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"softbound/internal/attacks"
	"softbound/internal/bugbench"
	"softbound/internal/core"
	"softbound/internal/cparser"
	"softbound/internal/gen"
	"softbound/internal/ir"
	"softbound/internal/irgen"
	"softbound/internal/libc"
	"softbound/internal/metrics"
	"softbound/internal/opt"
	"softbound/internal/progs"
	"softbound/internal/sema"
)

// CompileWithStats links a libc unit built once per configuration instead
// of compiling libc with every request. These tests hold it to the
// per-request pipeline it replaced: same module text, same counters.

// oracleCompile is the per-request pipeline CompileWithStats ran before
// libc was cached: every unit, libc included, is front-ended, optimized,
// instrumented and post-optimized on every call.
func oracleCompile(sources []Source, cfg Config) (*ir.Module, metrics.OptCounters, error) {
	var counters metrics.OptCounters
	units := make([]Source, 0, len(sources)+1)
	if cfg.WithLibc {
		units = append(units, Source{Name: "libc.c", Text: libc.Unit()})
	}
	units = append(units, sources...)

	var infos []*sema.Info
	var mods []*ir.Module
	for _, u := range units {
		unit, err := cparser.Parse(u.Name, u.Text)
		if err != nil {
			return nil, counters, &CompileError{Stage: "parse", Unit: u.Name, Err: err}
		}
		info, err := sema.Analyze(unit, infos...)
		if err != nil {
			return nil, counters, &CompileError{Stage: "typecheck", Unit: u.Name, Err: err}
		}
		mod, err := irgen.Generate(info)
		if err != nil {
			return nil, counters, &CompileError{Stage: "lower", Unit: u.Name, Err: err}
		}
		infos = append(infos, info)
		mods = append(mods, mod)
	}
	if cfg.Optimize {
		for _, m := range mods {
			accumulateOpt(&counters, opt.Optimize(m))
		}
	}
	if cfg.Mode != ModeNone {
		sizer := buildSizer(infos, mods)
		opts := core.DefaultOptions(coreMode(cfg.Mode))
		opts.ShrinkBounds = cfg.ShrinkBounds
		opts.ClearOnReturn = cfg.ClearOnReturn
		opts.CheckArith = cfg.CheckArith
		opts.Temporal = cfg.Meta.Temporal()
		for _, m := range mods {
			core.Transform(m, sizer, opts)
		}
	}
	linked := ir.NewModule("a.out")
	for _, m := range mods {
		if err := linked.Link(m); err != nil {
			return nil, counters, &CompileError{Stage: "link", Err: err}
		}
	}
	if cfg.Optimize {
		accumulateOpt(&counters, opt.OptimizeWith(linked, opt.Options{Global: cfg.GlobalOpt}))
	}
	return linked, counters, nil
}

type namedSource struct{ name, src string }

// libcCorpus is every program family the repository ships: the paper
// benchmarks, the Wilander attacks with metadata laundering, the dangling
// suite, BugBench, and 64 seeded generated cells, clean and planted.
func libcCorpus() []namedSource {
	var out []namedSource
	for _, b := range progs.All() {
		out = append(out, namedSource{"progs/" + b.Name, b.Source(suiteSmallScale[b.Name])})
	}
	for _, a := range append(attacks.Suite(), attacks.MetadataLaundering()) {
		out = append(out, namedSource{"attack/" + a.Name, a.Source})
	}
	for _, a := range attacks.DanglingSuite() {
		out = append(out, namedSource{"dangling/" + a.Name, a.Source})
	}
	for _, p := range bugbench.Suite() {
		out = append(out, namedSource{"bugbench/" + p.Name, p.Source})
	}
	for seed := uint64(1); seed <= 64; seed++ {
		p := gen.Generate(seed)
		src := p.Source()
		name := fmt.Sprintf("gen/%d", seed)
		// Alternate clean and planted cells, cycling through the plants.
		if plants := p.Plants(); seed%2 == 0 && len(plants) > 0 {
			src = p.PlantedSource(plants[int(seed/2)%len(plants)])
			name += "-planted"
		}
		out = append(out, namedSource{name, src})
	}
	return out
}

// libcConfigs is the configuration matrix: the baseline, 4 metadata
// schemes × 2 checking modes, and each compile option flipped from its
// default.
func libcConfigs() map[string]Config {
	cfgs := map[string]Config{"baseline": DefaultConfig(ModeNone)}
	for _, cfg := range engineConfigs() {
		cfgs[cfg.Mode.String()+"/"+cfg.Meta.String()] = cfg
	}
	flip := func(name string, f func(*Config)) {
		cfg := DefaultConfig(ModeFull)
		f(&cfg)
		cfgs[name] = cfg
	}
	flip("no-shrink", func(c *Config) { c.ShrinkBounds = false })
	flip("no-clear", func(c *Config) { c.ClearOnReturn = false })
	flip("no-opt", func(c *Config) { c.Optimize = false })
	flip("no-global-opt", func(c *Config) { c.GlobalOpt = false })
	flip("check-arith", func(c *Config) { c.CheckArith = true })
	flip("no-libc", func(c *Config) { c.WithLibc = false })
	return cfgs
}

// sortedLibcConfigs returns libcConfigs as parallel slices in name order.
func sortedLibcConfigs() (names []string, cfgs []Config) {
	all := libcConfigs()
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfgs = append(cfgs, all[name])
	}
	return names, cfgs
}

func TestLibcCacheMatchesPerRequestCompile(t *testing.T) {
	cfgs := libcConfigs()
	for _, p := range libcCorpus() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			src := []Source{{Name: "main.c", Text: p.src}}
			for name, cfg := range cfgs {
				want, wantCounters, wantErr := oracleCompile(src, cfg)
				got, gotCounters, gotErr := CompileWithStats(src, cfg)
				if wantErr != nil || gotErr != nil {
					// Without libc, programs that call it do not typecheck;
					// the error must be the same one.
					if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
						t.Fatalf("%s: error %v, per-request pipeline %v", name, gotErr, wantErr)
					}
					continue
				}
				if got.String() != want.String() {
					t.Fatalf("%s: module text differs from the per-request pipeline", name)
				}
				if gotCounters != wantCounters {
					t.Fatalf("%s: counters %+v, per-request pipeline %+v", name, gotCounters, wantCounters)
				}
			}
		})
	}
}

// Many goroutines compile and run different programs under every
// configuration at once (run under -race). Afterwards every cached libc
// unit still prints exactly as a fresh build of its configuration: no
// compile or execution wrote through the shared functions.
func TestLibcCacheSharedReadOnly(t *testing.T) {
	var cells []namedSource
	for _, p := range libcCorpus() {
		if !strings.HasPrefix(p.name, "progs/") { // the paper benchmarks run longest
			cells = append(cells, p)
		}
	}
	_, cfgs := sortedLibcConfigs()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cells); i += workers {
				cfg := cfgs[(i+w)%len(cfgs)]
				cfg.StepLimit = 1 << 20
				if _, err := RunSource(cells[i].src, cfg); err != nil && cfg.WithLibc {
					errs <- fmt.Errorf("%s: %v", cells[i].name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	n := 0
	libcUnits.Range(func(k, v any) bool {
		n++
		cached := v.(*libcUnit)
		fresh := &libcUnit{}
		fresh.build(k.(libcKey))
		if cached.err != nil || fresh.err != nil {
			t.Fatalf("%+v: libc build failed: cached %v, fresh %v", k, cached.err, fresh.err)
		}
		if cached.mod.String() != fresh.mod.String() {
			t.Errorf("%+v: cached libc unit no longer matches a fresh build", k)
		}
		if cached.counters != fresh.counters {
			t.Errorf("%+v: cached libc counters %+v, fresh %+v", k, cached.counters, fresh.counters)
		}
		return true
	})
	if n == 0 {
		t.Fatal("no libc unit was cached")
	}
}

// A unit can declare a global under a libc function's name. Completing
// that global's array type must not rewrite the shared libc symbol, or
// every later compilation would see strlen with the global's type.
func TestLibcCacheNotPoisonedByUserDeclarations(t *testing.T) {
	cfg := DefaultConfig(ModeFull)
	if _, err := RunSource(`int strlen[] = {1, 2}; int main(void) { return 0; }`, cfg); err != nil {
		t.Logf("shadowing declaration rejected: %v", err)
	}
	res := mustRun(t, `int main(void) { return strlen("abc"); }`, cfg)
	if res.Err != nil || res.ExitCode != 3 {
		t.Fatalf("strlen after a shadowing declaration: exit %d err %v, want 3", res.ExitCode, res.Err)
	}
}
