package driver

import (
	"fmt"
	"testing"

	"softbound/internal/meta"
	"softbound/internal/vm"
)

// Trap-classification tests for the deallocation paths (ISSUE 7
// satellites): free of a pointer that never came from the allocator is a
// typed memory-fault trap, a double free under the CETS schemes is a
// typed temporal violation, and both classes are non-retryable — on both
// engines.

const invalidFreeSrc = `
char g[8];
int main(void) {
    free(g);
    return 0;
}`

const doubleFreeSrc = `
int main(void) {
    char *p;
    p = malloc(16);
    free(p);
    free(p);
    return 0;
}`

// runBothEngines executes src under cfg on the fast and reference
// interpreters and hands each result to check.
func runBothEngines(t *testing.T, src string, cfg Config, check func(t *testing.T, res *Result)) {
	t.Helper()
	for _, engine := range []vm.InterpKind{vm.InterpFast, vm.InterpRef} {
		t.Run(engine.String(), func(t *testing.T) {
			ecfg := cfg
			ecfg.Interp = engine
			res, err := RunSource(src, ecfg)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			check(t, res)
		})
	}
}

// TestFreeInvalidPointerIsMemFault: free of an address that is not a live
// heap block (here a global) traps as a memory fault — typed, not a bare
// runtime error — under every scheme.
func TestFreeInvalidPointerIsMemFault(t *testing.T) {
	for _, kind := range []meta.Kind{meta.KindShadowSpace, meta.KindHashTable,
		meta.KindShadowCETS, meta.KindHashTableCETS} {
		kind := kind
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			cfg := DefaultConfig(ModeFull)
			cfg.Meta = kind
			runBothEngines(t, invalidFreeSrc, cfg, func(t *testing.T, res *Result) {
				if res.Err == nil {
					t.Fatal("invalid free did not trap")
				}
				code := vm.CodeOf(res.Err)
				if code != vm.TrapMemFault {
					t.Fatalf("trap code = %q, want %q (err=%v)", code, vm.TrapMemFault, res.Err)
				}
				if code.Retryable() {
					t.Fatal("memory-fault trap must not be retryable")
				}
			})
		})
	}
}

// TestDoubleFreeClassification: the second free of the same block is a
// temporal violation under the CETS schemes (the lock was revoked by the
// first free) and a memory fault under the spatial-only ones (the
// allocator no longer owns the block). Both are deterministic detections:
// non-retryable.
func TestDoubleFreeClassification(t *testing.T) {
	cases := []struct {
		kind meta.Kind
		want vm.TrapCode
	}{
		{meta.KindShadowSpace, vm.TrapMemFault},
		{meta.KindHashTable, vm.TrapMemFault},
		{meta.KindShadowCETS, vm.TrapTemporal},
		{meta.KindHashTableCETS, vm.TrapTemporal},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprint(c.kind), func(t *testing.T) {
			cfg := DefaultConfig(ModeFull)
			cfg.Meta = c.kind
			runBothEngines(t, doubleFreeSrc, cfg, func(t *testing.T, res *Result) {
				if res.Err == nil {
					t.Fatal("double free did not trap")
				}
				code := vm.CodeOf(res.Err)
				if code != c.want {
					t.Fatalf("trap code = %q, want %q (err=%v)", code, c.want, res.Err)
				}
				if code.Retryable() {
					t.Fatal("deallocation trap must not be retryable")
				}
				if c.want == vm.TrapTemporal && res.TemporalHit == nil {
					t.Fatal("temporal trap did not surface through Result.TemporalHit")
				}
			})
		})
	}
}
