package driver

import (
	"testing"

	"softbound/internal/meta"
	"softbound/internal/vm"
)

// The paper's §2.1 sub-object example: overflowing a char array inside a
// struct to reach the adjacent function pointer. Bounds shrinking at the
// field-address GEP is what detects it, and the optimizer must never
// discard the shrink marker (ConstFold once folded constant-operand
// shrinking GEPs into bare constants).
const subobjectSrc = `
int pwned;
void payload(void) { pwned = 1; exit(66); }
void greet(void)   { printf("hello\n"); }

struct node { char str[8]; void (*func)(void); };

int main(void) {
    struct node n;
    char* ptr = n.str;
    long target;
    char* tb;
    int i;
    n.func = greet;
    target = (long)payload;
    tb = (char*)&target;
    for (i = 0; i < 16; i++)
        ptr[i] = (i < 8) ? 'A' : tb[i - 8];
    n.func();
    return 0;
}`

func TestShrunkBoundsSurviveOptimizer(t *testing.T) {
	for i, cfg := range optVariants(ModeFull) {
		res, err := RunSource(subobjectSrc, cfg)
		if err != nil {
			t.Fatalf("variant %d: compile: %v", i, err)
		}
		if res.Violation == nil {
			t.Fatalf("variant %d: sub-object overflow not detected (exit=%d output=%q)",
				i, res.ExitCode, res.Output)
		}
		if res.ExitCode == 66 {
			t.Fatalf("variant %d: payload ran", i)
		}
	}
}

// requireSpatialTrapAllSchemes runs src in full mode under every
// metadata scheme on both engines (bit-equal stats). Each run must trap
// spatial, reporting bounds span bytes wide.
func requireSpatialTrapAllSchemes(t *testing.T, name, src string, span uint64) {
	t.Helper()
	for _, kind := range []meta.Kind{meta.KindShadowSpace, meta.KindHashTable,
		meta.KindShadowCETS, meta.KindHashTableCETS} {
		cfg := DefaultConfig(ModeFull)
		cfg.Meta = kind
		res := requireEngineAgreement(t, name, src, cfg)
		if res.Violation == nil || res.TrapCode() != vm.TrapSpatial {
			t.Fatalf("%s: trap = %q, want %q (%s)", kind, res.TrapCode(), vm.TrapSpatial, describe(res))
		}
		if v := res.Violation; v.Bound-v.Base != span {
			t.Fatalf("%s: violation bounds span %d bytes, want %d (%s)", kind, v.Bound-v.Base, span, describe(res))
		}
	}
}

// A field store through a pointer one past an array of structs. The
// field pointer is used only by that store, so it keeps the array's
// bounds and the check against them fires, reporting the array's 32
// bytes. Narrowing by replacement with the field extent let exactly
// this store through.
func TestFieldStorePastArrayOfStructsTraps(t *testing.T) {
	requireSpatialTrapAllSchemes(t, "pastend", `
struct pt { int x; int y; };
int main(void) {
    struct pt* a = malloc(4 * sizeof(struct pt));
    int n = 4;
    struct pt* p = a + n;   /* one past the end: legal to create */
    p->x = 1;
    return 0;
}`, 32)
}

// An escaped pointer into a struct's array field, overflowing into the
// next field in a callee: the escape keeps the field's bounds, so the
// write to the fifth element traps before it reaches secret, reporting
// the field's 16 bytes.
func TestEscapedFieldArrayOverflowTraps(t *testing.T) {
	requireSpatialTrapAllSchemes(t, "escaped", `
struct rec { int arr[4]; int secret; };
void fill(int* q, int n) { int i; for (i = 0; i < n; i++) q[i] = 7; }
int main(void) {
    struct rec* r = malloc(sizeof(struct rec));
    r->secret = 42;
    fill(&r->arr[0], 5);
    return r->secret;
}`, 16)
}
