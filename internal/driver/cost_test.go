package driver

import (
	"runtime"
	"testing"

	"softbound/internal/gen"
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

// The allocation of one compile: generated cells compiled against a warm
// libc unit, under every configuration of libcConfigs.

// compileCells are the generated programs BenchmarkCompile compiles;
// the first is TestCompileAllocationBound's fixed program.
func compileCells() [][]Source {
	var cells [][]Source
	for seed := uint64(1); seed <= 3; seed++ {
		cells = append(cells, []Source{{Name: "main.c", Text: gen.Generate(seed).Source()}})
	}
	return cells
}

func compileCell(tb testing.TB, src []Source, cfg Config) {
	if _, err := Compile(src, cfg); err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkCompile(b *testing.B) {
	cells := compileCells()
	names, cfgs := sortedLibcConfigs()
	for i, name := range names {
		cfg := cfgs[i]
		b.Run(name, func(b *testing.B) {
			compileCell(b, cells[0], cfg) // builds the cached libc unit
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, src := range cells {
					compileCell(b, src, cfg)
				}
			}
		})
	}
}

// maxCompileBytes bounds the bytes one compile of gen cell 1 may
// allocate under any configuration, libc warm: 0.7–1.7 MB today. Passes
// that copy every instruction they keep take the instrumented, optimized
// configurations to 2–3.6 MB.
const maxCompileBytes = 2 << 20

func TestCompileAllocationBound(t *testing.T) {
	src := compileCells()[0]
	names, cfgs := sortedLibcConfigs()
	for i, name := range names {
		cfg := cfgs[i]
		compileCell(t, src, cfg) // builds the cached libc unit
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < runs; n++ {
			compileCell(t, src, cfg)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > maxCompileBytes {
			t.Errorf("%s: one compile allocates %d bytes, bound %d", name, per, maxCompileBytes)
		}
	}
}

// BenchmarkExecuteFresh executes a fresh compile of each gen cell, libc
// warm, timing only the execute: VM setup, the decode of the module's
// own functions (libc's decode is shared per libc unit) and the run.
// Every cell is compiled anew so nothing module-local is cached.
func BenchmarkExecuteFresh(b *testing.B) {
	cells := compileCells()
	cfgs := append([]Config{DefaultConfig(ModeNone)}, engineConfigs()...)
	for _, cfg := range cfgs {
		name := "baseline"
		if cfg.Mode != ModeNone {
			name = cfg.Mode.String() + "/" + cfg.Meta.String()
		}
		b.Run(name, func(b *testing.B) {
			compileCell(b, cells[0], cfg) // builds the cached libc unit
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, src := range cells {
					b.StopTimer()
					mod, err := Compile(src, cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if res := Execute(mod, cfg); res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
		})
	}
}
