package vm_test

// The cached libc unit is decoded once per unit: every module linked
// against it binds the same decoded libc functions, and only its own
// functions are decoded per module. These tests hold the sharing and
// the rule for when a module must decode in full instead.

import (
	"fmt"
	"sync"
	"testing"

	"softbound/internal/driver"
	"softbound/internal/gen"
	"softbound/internal/ir"
	"softbound/internal/meta"
	"softbound/internal/vm"
)

// decodeConfigs is the baseline and every metadata scheme under both
// checking modes: each compiles its own libc unit.
func decodeConfigs() []driver.Config {
	cfgs := []driver.Config{driver.DefaultConfig(driver.ModeNone)}
	for _, mode := range []driver.Mode{driver.ModeStoreOnly, driver.ModeFull} {
		for _, kind := range meta.Kinds() {
			cfg := driver.DefaultConfig(mode)
			cfg.Meta = kind
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

func compileGen(t *testing.T, seed uint64, cfg driver.Config) *ir.Module {
	t.Helper()
	mod, err := driver.Compile([]driver.Source{{Name: "main.c", Text: gen.Generate(seed).Source()}}, cfg)
	if err != nil {
		t.Fatalf("gen cell %d: %v", seed, err)
	}
	return mod
}

// requireEnginesAgree runs mod on both engines and returns the fast
// engine's result once exit code, trap and statistics match.
func requireEnginesAgree(t *testing.T, mod *ir.Module, cfg driver.Config) *driver.Result {
	t.Helper()
	cfg.StepLimit = 1 << 22
	cfg.Interp = vm.InterpRef
	ref := driver.Execute(mod, cfg)
	cfg.Interp = vm.InterpFast
	fast := driver.Execute(mod, cfg)
	if fast.ExitCode != ref.ExitCode || fast.TrapCode() != ref.TrapCode() || *fast.Stats != *ref.Stats {
		t.Fatalf("engines disagree: fast exit %d trap %q, ref exit %d trap %q\n  fast: %+v\n  ref:  %+v",
			fast.ExitCode, fast.TrapCode(), ref.ExitCode, ref.TrapCode(), *fast.Stats, *ref.Stats)
	}
	return fast
}

func configName(cfg driver.Config) string {
	if cfg.Mode == driver.ModeNone {
		return "baseline"
	}
	return cfg.Mode.String() + "/" + cfg.Meta.String()
}

// Two different gen cells under every configuration bind the very
// decoded libc functions of their libc unit's own decode; their user
// functions are decoded fresh, per module.
func TestLibcDecodeShared(t *testing.T) {
	for _, cfg := range decodeConfigs() {
		t.Run(configName(cfg), func(t *testing.T) {
			a, b := compileGen(t, 1, cfg), compileGen(t, 2, cfg)
			lib := a.Prefix()
			if lib == nil || b.Prefix() != lib {
				t.Fatalf("prefixes %p and %p, want one shared libc unit", a.Prefix(), b.Prefix())
			}
			for _, mod := range []*ir.Module{a, b} {
				for i, fn := range mod.Funcs {
					got, libc := vm.DecodedFunc(mod, fn), vm.DecodedFunc(lib, fn)
					switch {
					case got == nil:
						t.Fatalf("%s was not decoded", fn.Name)
					case i < len(lib.Funcs) && got != libc:
						t.Fatalf("libc function %s decoded again", fn.Name)
					case i >= len(lib.Funcs) && libc != nil:
						t.Fatalf("user function %s found in the libc decode", fn.Name)
					}
				}
				requireEnginesAgree(t, mod, cfg)
			}
			if vm.DecodedFunc(a, a.Funcs[len(lib.Funcs)]) == vm.DecodedFunc(b, b.Funcs[len(lib.Funcs)]) {
				t.Fatal("two modules share a user function's decode")
			}
		})
	}
}

// A module that defines a name libc calls without defining decodes in
// full: libc's strdup must bind the user's malloc, not the builtin one
// the shared decode bound. So must a module whose first functions are
// not its prefix's.
func TestLibcDecodeSharedFallback(t *testing.T) {
	const src = `
void* malloc(unsigned long n) { return 0; }
int main(void) { char* p = strdup("abc"); return p == 0; }
`
	for _, cfg := range decodeConfigs() {
		t.Run(configName(cfg), func(t *testing.T) {
			mod, err := driver.Compile([]driver.Source{{Name: "main.c", Text: src}}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lib := mod.Prefix()
			strdup := lib.Lookup("strdup")
			if vm.DecodedFunc(mod, strdup) == vm.DecodedFunc(lib, strdup) {
				t.Fatal("a module defining malloc reused the shared libc decode")
			}
			if res := requireEnginesAgree(t, mod, cfg); res.ExitCode != 1 || res.Err != nil {
				t.Fatalf("exit %d err %v, want 1: strdup did not call the user's malloc", res.ExitCode, res.Err)
			}

			// The same functions, with a copy of libc's first function
			// standing in for it.
			cell := compileGen(t, 3, cfg)
			swapped := ir.NewModule("swapped")
			if err := swapped.LinkPrefix(lib); err != nil {
				t.Fatal(err)
			}
			first := *lib.Funcs[0]
			swapped.Funcs[0] = &first
			swapped.Funcs = append(swapped.Funcs, cell.Funcs[len(lib.Funcs):]...)
			swapped.Globals = append(swapped.Globals, cell.Globals...)
			for _, fn := range lib.Funcs[1:] {
				if vm.DecodedFunc(swapped, fn) == vm.DecodedFunc(lib, fn) {
					t.Fatalf("%s: a module whose first function is not its prefix's reused the shared decode", fn.Name)
				}
			}
		})
	}
}

// Concurrent VMs over one libc unit, each running a different freshly
// compiled module, share the libc decode read-only (run under -race).
func TestLibcDecodeSharedConcurrent(t *testing.T) {
	cfg := driver.DefaultConfig(driver.ModeFull)
	cfg.Meta = meta.KindShadowCETS
	cfg.StepLimit = 1 << 22
	const cells = 8
	want := make([]int64, cells)
	for i := range want {
		want[i] = driver.Execute(compileGen(t, uint64(i+1), cfg), cfg).ExitCode
	}
	var wg sync.WaitGroup
	errs := make(chan error, cells)
	for i := 0; i < cells; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := []driver.Source{{Name: "main.c", Text: gen.Generate(uint64(i + 1)).Source()}}
			mod, err := driver.Compile(src, cfg)
			if err != nil {
				errs <- err
				return
			}
			if res := driver.Execute(mod, cfg); res.ExitCode != want[i] {
				errs <- fmt.Errorf("cell %d: exit %d (err %v), want %d", i+1, res.ExitCode, res.Err, want[i])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
