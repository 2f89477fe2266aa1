package driver

import (
	"strings"
	"testing"

	"softbound/internal/vm"
)

// The VM backs its heap and stack on first touch, but maps them over
// their full extent from the start. These tests pin the behaviour that
// depends on the extent, not the backing.

// An unchecked write past the last heap block, but inside the heap
// segment, silently succeeds and reads back — the corruption the
// Wilander heap attacks rely on — even though nothing was ever allocated
// there.
func TestUncheckedWritePastLastHeapBlockSucceeds(t *testing.T) {
	src := `
int main(void) {
    char *p = malloc(16);
    p[1 << 20] = 42;
    p[(1 << 20) + 1] = 7;
    return p[1 << 20] + p[(1 << 20) + 2];
}`
	for _, kind := range []vm.InterpKind{vm.InterpFast, vm.InterpRef} {
		cfg := DefaultConfig(ModeNone)
		cfg.Interp = kind
		res := mustRun(t, src, cfg)
		if res.Err != nil || res.ExitCode != 42 {
			t.Fatalf("interp %v: exit %d err %v, want a silent write: exit 42", kind, res.ExitCode, res.Err)
		}
	}
}

// stackDepthSrc prints its recursion depth on every call until the stack
// segment runs out.
const stackDepthSrc = `
int deep(int n) {
    int pad[8];
    pad[0] = n;
    printf("%d\n", n);
    return deep(n + 1) + pad[0];
}
int main(void) {
    return deep(1);
}`

// stackOverflowDepth is the last depth stackDepthSrc reaches with a
// 16 KiB stack before the stack-overflow trap: 16384 bytes over 48-byte
// frames (32 bytes of locals, saved FP, return token). Fully backed
// segments trapped at the same depth on both engines in every mode; the
// trap fires at the bottom of the mapped extent, not of the backing.
const stackOverflowDepth = "341"

func TestStackOverflowDepthUnchanged(t *testing.T) {
	for _, mode := range []Mode{ModeNone, ModeStoreOnly, ModeFull} {
		for _, kind := range []vm.InterpKind{vm.InterpFast, vm.InterpRef} {
			cfg := DefaultConfig(mode)
			cfg.Interp = kind
			cfg.StackSize = 16 << 10
			res := mustRun(t, stackDepthSrc, cfg)
			if res.TrapCode() != vm.TrapStackOverflow {
				t.Fatalf("%v/%v: trap %q (err %v), want %q", mode, kind, res.TrapCode(), res.Err, vm.TrapStackOverflow)
			}
			lines := strings.Fields(res.Output)
			if last := lines[len(lines)-1]; last != stackOverflowDepth {
				t.Fatalf("%v/%v: overflow at depth %s, want %s", mode, kind, last, stackOverflowDepth)
			}
		}
	}
}
