package driver

import (
	"testing"

	"softbound/internal/vm"
)

// TestRefInterpAliasSelectsReference: the deprecated RefInterp field
// still selects the reference engine, and wins over Interp. Both engines
// then agree on every modeled stat.
func TestRefInterpAliasSelectsReference(t *testing.T) {
	const src = `
int a[4];
int *p[4];
int main(void) {
    int i;
    int s = 0;
    for (i = 0; i < 4; i++) { a[i] = i; p[i] = &a[i]; }
    for (i = 0; i < 4; i++) s = s + *p[i];
    return s;
}`
	mod, _, err := CompileWithStats([]Source{{Name: "alias.c", Text: src}}, DefaultConfig(ModeFull))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := DefaultConfig(ModeFull)
	if got := vmConfig(cfg, nil, nil).Interp; got != vm.InterpFast {
		t.Fatalf("default config runs %v, want fast", got)
	}
	fast := Execute(mod, cfg)
	cfg.Interp = vm.InterpFast
	cfg.RefInterp = true
	if got := vmConfig(cfg, nil, nil).Interp; got != vm.InterpRef {
		t.Fatalf("RefInterp runs %v, want ref", got)
	}
	ref := Execute(mod, cfg)
	if describe(fast) != describe(ref) || *fast.Stats != *ref.Stats {
		t.Fatalf("engines diverged:\n  fast: %s\n  ref:  %s", describeWithStats(fast), describeWithStats(ref))
	}
	if fast.Stats.MetaLoads == 0 {
		t.Fatalf("program made no metadata loads: %s", describeWithStats(fast))
	}
}
