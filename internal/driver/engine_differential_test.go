package driver

import (
	"fmt"
	"testing"

	"softbound/internal/attacks"
	"softbound/internal/bugbench"
	"softbound/internal/meta"
	"softbound/internal/progs"
	"softbound/internal/vm"
)

// Engine differential gate: the fast pre-decoded interpreter must be
// observationally equal to the reference per-step interpreter on every
// real program — same output, same exit code, same violation fields, and
// the same modeled statistics, across schemes and protection modes. Each
// case compiles once and executes the module on both engines.

// describeWithStats extends describe with the full modeled-cost view:
// every Stats field is part of the engine contract.
func describeWithStats(r *Result) string {
	return fmt.Sprintf("%s trap=%q stats=%+v", describe(r), r.TrapCode(), *r.Stats)
}

func requireEngineAgreement(t *testing.T, name, src string, cfg Config) *Result {
	t.Helper()
	mod, counters, err := CompileWithStats([]Source{{Name: name + ".c", Text: src}}, cfg)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	fastCfg, refCfg := cfg, cfg
	fastCfg.Interp = vm.InterpFast
	refCfg.Interp = vm.InterpRef
	fast := Execute(mod, fastCfg)
	ref := Execute(mod, refCfg)
	fast.Stats.Opt = counters
	ref.Stats.Opt = counters
	if fd, rd := describeWithStats(fast), describeWithStats(ref); fd != rd {
		t.Fatalf("%s: engines diverged:\n  fast: %s\n  ref:  %s", name, fd, rd)
	}
	return fast
}

// engineConfigs is the mode × scheme matrix each program runs under —
// both spatial-only backends and both CETS temporal backends.
func engineConfigs() []Config {
	var cfgs []Config
	for _, mode := range []Mode{ModeStoreOnly, ModeFull} {
		for _, kind := range []meta.Kind{meta.KindShadowSpace, meta.KindHashTable,
			meta.KindShadowCETS, meta.KindHashTableCETS} {
			cfg := DefaultConfig(mode)
			cfg.Meta = kind
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

func TestEngineDifferentialBenchmarks(t *testing.T) {
	for _, b := range progs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			src := b.Source(suiteSmallScale[b.Name])
			for _, cfg := range engineConfigs() {
				res := requireEngineAgreement(t, b.Name, src, cfg)
				if res.Err != nil {
					t.Fatalf("benchmark errored: %v", res.Err)
				}
			}
		})
	}
}

func TestEngineDifferentialAttacks(t *testing.T) {
	for _, a := range attacks.Suite() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(ModeFull)
			res := requireEngineAgreement(t, a.Name, a.Source, cfg)
			if !res.Detected() {
				t.Fatalf("attack not intercepted on the fast engine: %s", describe(res))
			}
		})
	}
}

func TestEngineDifferentialBugBench(t *testing.T) {
	for _, p := range bugbench.Suite() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(ModeFull)
			res := requireEngineAgreement(t, p.Name, p.Source, cfg)
			if detected := res.Violation != nil; detected != p.Full {
				t.Fatalf("full-mode detection = %v, want %v (%s)",
					detected, p.Full, describe(res))
			}
		})
	}
}

// TestEngineDifferentialDanglingAttacks (ISSUE 7): the dangling-pointer
// suite must behave identically on both engines under every scheme —
// detected as a temporal violation under the CETS backends, undetected
// (attack corrupts and exits 66) under the spatial-only ones.
func TestEngineDifferentialDanglingAttacks(t *testing.T) {
	for _, a := range attacks.DanglingSuite() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range engineConfigs() {
				res := requireEngineAgreement(t, a.Name, a.Source, cfg)
				if cfg.Meta.Temporal() {
					if res.TemporalHit == nil {
						t.Fatalf("mode=%v meta=%v: dangling attack not caught: %s",
							cfg.Mode, cfg.Meta, describe(res))
					}
				} else if res.Detected() {
					t.Fatalf("mode=%v meta=%v: spatial-only scheme flagged a temporal attack: %s",
						cfg.Mode, cfg.Meta, describe(res))
				}
			}
		})
	}
}

// Step limits must trap at the identical instruction on both engines
// even with batched accounting; the sweep lands the budget across block
// boundaries and on checked accesses of a real program.
func TestEngineDifferentialStepLimit(t *testing.T) {
	src := progs.All()[0].Source(suiteSmallScale[progs.All()[0].Name])
	for _, limit := range []uint64{1, 2, 3, 5, 17, 100, 1000, 4095, 4096, 4097, 100_000} {
		cfg := DefaultConfig(ModeFull)
		cfg.StepLimit = limit
		res := requireEngineAgreement(t, fmt.Sprintf("limit%d", limit), src, cfg)
		if limit <= 1000 && res.TrapCode() == "" {
			t.Fatalf("limit %d did not trap", limit)
		}
	}
}

// TestEngineDifferentialIndirectSignatureMismatch (ISSUE 6): indirect
// calls whose static site signature and dynamic callee disagree must be
// handled identically — and detected — across scheme × mode × engine.
// The shadow-stack ABI routes each (base,bound) pair by argument
// position and fails closed (zero bounds) for parameters no slot
// reached, so none of these mismatches can launder wide metadata onto a
// narrow pointer.
func TestEngineDifferentialIndirectSignatureMismatch(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		// The tentpole scenario: same address, different bounds — the
		// callee's pointer param must get the shrunk field bounds.
		{"metadata-laundering", attacks.MetadataLaundering().Source},
		// Site passes more arguments than the dynamic callee declares:
		// the callee's single pointer param pops the slot for arg 0.
		{"site-passes-extra", `
typedef void (*two_ptr)(char *a, char *b);
typedef void (*one_ptr)(char *a);
char g[16];
char h[8];
void write12(char *a) {
    long i;
    for (i = 0; i < 12; i = i + 1)
        a[i] = 'B';
}
one_ptr table[1];
int main(void) {
    two_ptr f;
    table[0] = write12;
    f = *(two_ptr*)&table[0];
    f(h, g);
    printf("%c\n", h[0]);
    return 0;
}`},
		// Site passes fewer arguments than the dynamic callee declares:
		// the unseeded pointer param fails closed to zero bounds.
		{"site-passes-fewer", `
typedef void (*one)(char *a);
typedef void (*two)(char *a, char *b);
char g[8];
void copy2(char *a, char *b) {
    b[0] = a[0];
}
two table[1];
int main(void) {
    one f;
    table[0] = copy2;
    f = *(one*)&table[0];
    f(g);
    printf("ok\n");
    return 0;
}`},
		// A pointer passed both fixed and variadic in one call: the
		// va_arg'd copy carries its own positional slot, so the OOB
		// write through it is caught in the callee.
		{"vararg-fixed-and-variadic", `
char buf[8];
void sink(char *fixed, ...) {
    long ap;
    char *p;
    long i;
    fixed[0] = 'F';
    va_start(&ap, fixed);
    p = (char*)va_arg_ptr(&ap);
    for (i = 0; i < 12; i = i + 1)
        p[i] = 'C';
    va_end(&ap);
}
int main(void) {
    sink(buf, buf);
    printf("%c\n", buf[0]);
    return 0;
}`},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range engineConfigs() {
				res := requireEngineAgreement(t, c.name, c.src, cfg)
				if !res.Detected() {
					t.Fatalf("mode=%v meta=%v: mismatch not detected: %s",
						cfg.Mode, cfg.Meta, describe(res))
				}
			}
		})
	}
}
