package gen

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"softbound/internal/driver"
	"softbound/internal/meta"
)

// TestGeneratorDeterminism: same seed ⇒ byte-identical source, for the
// clean rendering, every planted rendering, and subset renderings.
func TestGeneratorDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.Source() != b.Source() {
			t.Fatalf("seed %d: clean source differs across generations", seed)
		}
		pa, pb := a.Plants(), b.Plants()
		if len(pa) != len(pb) {
			t.Fatalf("seed %d: plant count differs", seed)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("seed %d: plant %d differs: %+v vs %+v", seed, i, pa[i], pb[i])
			}
			if a.PlantedSource(pa[i]) != b.PlantedSource(pb[i]) {
				t.Fatalf("seed %d: planted source %d differs", seed, i)
			}
		}
		mask := a.KeepMask()
		for i := 1; i < len(mask); i += 2 {
			mask[i] = false
		}
		if a.Subset(mask).Source() != b.Subset(mask).Source() {
			t.Fatalf("seed %d: subset source differs", seed)
		}
	}
	if Generate(1).Source() == Generate(2).Source() {
		t.Fatal("different seeds produced identical programs")
	}
}

// TestGeneratorValidityUnchecked: 1000 clean cells compile and run to a
// clean exit (no trap, exit 0) with checking off — the generator's
// well-typedness and in-bounds-by-construction contract.
func TestGeneratorValidityUnchecked(t *testing.T) {
	const cells = 1000
	cfg := driver.DefaultConfig(driver.ModeNone)
	cfg.Timeout = 10 * time.Second
	cfg.StepLimit = 20_000_000

	seeds := make(chan uint64, cells)
	for s := uint64(1); s <= cells; s++ {
		seeds <- s
	}
	close(seeds)
	var wg sync.WaitGroup
	var mu sync.Mutex
	failed := 0
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				src := Generate(seed).Source()
				res, err := driver.RunSource(src, cfg)
				if err != nil {
					mu.Lock()
					failed++
					if failed <= 3 {
						t.Errorf("seed %d failed to compile/run: %v\n%s", seed, err, src)
					}
					mu.Unlock()
					continue
				}
				if res.Trap != nil || res.ExitCode != 0 {
					mu.Lock()
					failed++
					if failed <= 3 {
						t.Errorf("seed %d: exit=%d trap=%v\n%s", seed, res.ExitCode, res.TrapCode(), src)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if failed > 0 {
		t.Fatalf("%d/%d cells invalid", failed, cells)
	}
}

// TestGeneratorCleanUnderChecking: clean cells stay violation-free and
// output-identical under every checked scheme (the in-bounds and
// lock-live halves of the contract).
func TestGeneratorCleanUnderChecking(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		src := Generate(seed).Source()
		base, err := driver.RunSource(src, driver.DefaultConfig(driver.ModeNone))
		if err != nil || base.Trap != nil {
			t.Fatalf("seed %d baseline: %v %v", seed, err, base)
		}
		for _, k := range meta.Kinds() {
			for _, mode := range []driver.Mode{driver.ModeStoreOnly, driver.ModeFull} {
				cfg := driver.DefaultConfig(mode)
				cfg.Meta = k
				res, err := driver.RunSource(src, cfg)
				if err != nil {
					t.Fatalf("seed %d %s-%v: %v", seed, k, mode, err)
				}
				if res.Detected() || res.Trap != nil {
					t.Fatalf("seed %d %s-%v: clean cell detected something: trap=%v violation=%v",
						seed, k, mode, res.TrapCode(), res.Err)
				}
				if res.Output != base.Output || res.ExitCode != base.ExitCode {
					t.Fatalf("seed %d %s-%v: output diverged from baseline:\n%q\nvs\n%q",
						seed, k, mode, res.Output, base.Output)
				}
			}
		}
	}
}

// TestGeneratorPlantsDetected validates the Detected predicate against
// reality: each planted variant must trap exactly when the predicate
// says a (scheme, mode) cell checks that access, and never under the
// unchecked baseline.
func TestGeneratorPlantsDetected(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		prog := Generate(seed)
		for _, pl := range prog.Plants() {
			src := prog.PlantedSource(pl)
			// Unchecked: the plant must be structurally harmless — a
			// deterministic run, not a wild crash.
			base, err := driver.RunSource(src, driver.DefaultConfig(driver.ModeNone))
			if err != nil {
				t.Fatalf("seed %d plant %q baseline: %v", seed, pl.Site, err)
			}
			if base.Detected() {
				t.Fatalf("seed %d plant %q: baseline detected?", seed, pl.Site)
			}
			for _, k := range meta.Kinds() {
				for _, mode := range []driver.Mode{driver.ModeStoreOnly, driver.ModeFull} {
					cfg := driver.DefaultConfig(mode)
					cfg.Meta = k
					res, err := driver.RunSource(src, cfg)
					if err != nil {
						t.Fatalf("seed %d plant %q %s-%v: %v", seed, pl.Site, k, mode, err)
					}
					want := pl.Detected(mode == driver.ModeFull, k.Temporal())
					if got := res.Detected(); got != want {
						t.Errorf("seed %d plant %q under %s-%v: detected=%v, want %v (trap %v)",
							seed, pl.Site, k, mode, got, want, res.TrapCode())
						continue
					}
					if want {
						code := res.TrapCode()
						wantCode := "spatial-violation"
						if pl.Kind == PlantTemporal {
							wantCode = "temporal-violation"
						}
						if string(code) != wantCode {
							t.Errorf("seed %d plant %q under %s-%v: trap %q, want %q",
								seed, pl.Site, k, mode, code, wantCode)
						}
					}
				}
			}
		}
	}
}
