package driver

import (
	"runtime"
	"testing"
)

// The fixed cost of one request: compile and execute the smallest
// program under the default configuration.

const trivialSrc = `int main(void) { return 0; }`

func runTrivial(tb testing.TB) {
	res, err := RunSource(trivialSrc, DefaultConfig(ModeFull))
	if err != nil || res.Err != nil {
		tb.Fatalf("trivial run: compile %v, run %v", err, res.Err)
	}
}

func BenchmarkTrivialRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runTrivial(b)
	}
}

// maxTrivialRunBytes bounds the bytes one trivial compile+execute may
// allocate. Either fixed cost coming back — recompiling libc per request
// or backing the 72 MiB of heap and stack eagerly — costs tens of MB.
const maxTrivialRunBytes = 2 << 20

func TestTrivialRunAllocationBound(t *testing.T) {
	runTrivial(t) // builds the cached libc unit
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runTrivial(t)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > maxTrivialRunBytes {
		t.Fatalf("trivial compile+execute allocates %d bytes per run, bound %d", per, maxTrivialRunBytes)
	}
}
