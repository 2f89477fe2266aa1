package driver

import (
	"testing"

	"softbound/internal/vm"
)

// TestRefInterpAliasSelectsReference: the deprecated RefInterp field
// still selects the reference engine, and wins over Interp. The
// reference engine has no metadata lookaside, so its cache counters stay
// zero where the fast engine counts every metadata load.
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
	fast := Execute(mod, DefaultConfig(ModeFull))
	if fast.Stats.MetaCacheHits+fast.Stats.MetaCacheMisses == 0 {
		t.Fatalf("fast engine recorded no lookaside traffic: %s", describeWithStats(fast))
	}
	cfg := DefaultConfig(ModeFull)
	cfg.Interp = vm.InterpFast
	cfg.RefInterp = true
	ref := Execute(mod, cfg)
	if ref.Stats.MetaCacheHits+ref.Stats.MetaCacheMisses != 0 {
		t.Fatalf("RefInterp ran the fast engine: %s", describeWithStats(ref))
	}
	if fd, rd := describeWithStats(fast), describeWithStats(ref); fd != rd {
		t.Fatalf("engines diverged:\n  fast: %s\n  ref:  %s", fd, rd)
	}
}
