package soak

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"softbound/internal/gen"
	"softbound/internal/serve"
	"softbound/internal/vm"
)

// TestSoakCampaignClean: a small campaign over the full matrix must
// come back with zero divergences, zero unstructured traps, and every
// planted violation detected — the harness's CI contract in miniature.
func TestSoakCampaignClean(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Cells:   6,
		Seed:    42,
		Workers: runtime.NumCPU(),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Divergences != 0 || rep.Unstructured != 0 {
		t.Fatalf("divergences=%d unstructured=%d: %+v", rep.Divergences, rep.Unstructured, rep.DivergenceList)
	}
	if rep.Planted.Total == 0 || rep.Planted.Missed != 0 || rep.Planted.Detected != rep.Planted.Total {
		t.Fatalf("planted summary off: %+v", rep.Planted)
	}
	// 18 matrix runs per variant, 1 clean + up to 2 planted variants per
	// cell, no compile failures.
	if rep.Runs < rep.Cells*18 {
		t.Fatalf("only %d runs for %d cells", rep.Runs, rep.Cells)
	}
	// Planted variants trapped somewhere; the histogram must only ever
	// hold violation codes.
	total := 0
	for code, n := range rep.TrapHistogram {
		if code != string(vm.TrapSpatial) && code != string(vm.TrapTemporal) {
			t.Errorf("non-violation trap %q in histogram", code)
		}
		total += n
	}
	if total == 0 {
		t.Error("no traps recorded despite planted variants")
	}
	if len(rep.Schemes) < 4 || len(rep.Engines) != 2 || len(rep.Modes) != 2 {
		t.Fatalf("matrix description off: %+v", rep)
	}
}

// TestSoakDeterministicCellSeeds: the campaign's cell seeds are a pure
// function of the campaign seed (worker scheduling must not matter).
func TestSoakDeterministicCellSeeds(t *testing.T) {
	if cellSeed(1, 0) == cellSeed(1, 1) {
		t.Fatal("adjacent cells share a seed")
	}
	if cellSeed(1, 0) != cellSeed(1, 0) {
		t.Fatal("cell seed not deterministic")
	}
	if cellSeed(1, 0) == cellSeed(2, 0) {
		t.Fatal("campaign seed ignored")
	}
}

// TestShrinkMask: the mask-narrowing loop against synthetic predicates
// — it must reach the minimal subset, respect the pin, and honor the
// budget.
func TestShrinkMask(t *testing.T) {
	// Find a program with enough chunks to make shrinking interesting.
	var prog *gen.Program
	for seed := uint64(1); ; seed++ {
		if p := gen.Generate(seed); p.NumChunks() >= 5 {
			prog = p
			break
		}
	}
	target := 2 // the divergence "needs" only chunk 2

	min := shrinkMask(prog, -1, 100, func(p *gen.Program) bool {
		return p.KeepMask()[target]
	})
	if min.Kept() != 1 || !min.KeepMask()[target] {
		t.Fatalf("shrunk to %d chunks, mask %v; want only chunk %d", min.Kept(), min.KeepMask(), target)
	}

	// Pinning keeps the pinned chunk even when the predicate never
	// needs it.
	pinned := shrinkMask(prog, 0, 100, func(p *gen.Program) bool {
		return p.KeepMask()[target]
	})
	if !pinned.KeepMask()[0] || !pinned.KeepMask()[target] || pinned.Kept() != 2 {
		t.Fatalf("pin violated: mask %v", pinned.KeepMask())
	}

	// A zero budget returns the input untouched.
	if got := shrinkMask(prog, -1, 0, func(*gen.Program) bool { return true }); got.Kept() != prog.Kept() {
		t.Fatalf("budget 0 still shrank: %d -> %d", prog.Kept(), got.Kept())
	}
}

// TestSoakShrinksAndSpoolsInjectedDivergence drives the full
// record/shrink/spool path by checking a planted variant against a
// deliberately-wrong expectation: asking the battery about a plant in a
// chunk the program has — but with a fabricated site that the detection
// configs won't corroborate is impossible, so instead we reuse a real
// plant and corrupt the expected trap kind. The resulting wrong-trap
// divergences must be shrunk and spooled as replayable bundles.
func TestSoakShrinksAndSpoolsInjectedDivergence(t *testing.T) {
	var prog *gen.Program
	var pl gen.Plant
	found := false
	for seed := uint64(1); seed < 200 && !found; seed++ {
		p := gen.Generate(seed)
		for _, cand := range p.Plants() {
			if cand.Kind == gen.PlantSpatial && p.NumChunks() >= 4 {
				prog, pl, found = p, cand, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no spatial plant found in 200 seeds")
	}
	// Lie about the plant's kind: a spatial plant declared temporal
	// makes every CETS detection a "wrong trap" and every non-CETS
	// detection a "false positive".
	lie := pl
	lie.Kind = gen.PlantTemporal

	spool := t.TempDir()
	s := &soaker{
		cfg:   Config{Timeout: 10 * time.Second, StepLimit: 20_000_000, MaxShrinkRuns: 6, SpoolDir: spool}.withDefaults(),
		rep:   &Report{TrapHistogram: map[string]int{}},
		spool: spooler{dir: spool},
	}
	divs, runs, _ := s.battery(context.Background(), prog, &lie)
	if len(divs) == 0 || runs == 0 {
		t.Fatal("corrupted expectation produced no divergences")
	}
	s.record(context.Background(), prog, &lie, divs, runs, nil)

	if s.rep.Divergences != len(divs) || s.rep.Shrinks != 1 || s.rep.ShrinkRuns == 0 {
		t.Fatalf("report after record: %+v", s.rep)
	}
	first := s.rep.DivergenceList[0]
	if first.ShrunkFrom < first.ShrunkTo || first.ShrunkTo < 1 {
		t.Fatalf("shrink bookkeeping off: %+v", first)
	}
	if first.Bundle == "" || !strings.HasPrefix(first.Bundle, spool) {
		t.Fatalf("no spooled bundle: %+v", first)
	}
	data, err := os.ReadFile(first.Bundle)
	if err != nil {
		t.Fatalf("bundle unreadable: %v", err)
	}
	if !strings.Contains(string(data), "\"source\"") || !strings.Contains(string(data), "sb_sum") {
		t.Fatalf("bundle lacks replayable source: %s", data)
	}
	if files, _ := filepath.Glob(filepath.Join(spool, "soak-*.json")); len(files) != 1 {
		t.Fatalf("expected exactly one bundle, got %v", files)
	}
}

// TestSessionSoakLive: the session soak against an in-process sbserve —
// every response structured and baseline-identical, occupancy bounded,
// lookaside healthy.
func TestSessionSoakLive(t *testing.T) {
	srv := serve.New(serve.Options{Workers: 2, DefaultTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	rep, err := RunSession(context.Background(), SessionConfig{
		BaseURL:     ts.URL,
		Requests:    60,
		Programs:    6,
		Concurrency: 3,
		Seed:        7,
		// Generous but real bounds: the ftpd workload's live metadata
		// footprint is small and must stay that way across the stream.
		MaxLive:       1 << 20,
		MaxTableBytes: 1 << 30,
		MinHitRate:    0.10,
	})
	if err != nil {
		t.Fatalf("RunSession: %v", err)
	}
	if rep.Failed() {
		t.Fatalf("session soak failed: failures=%v bounds=%v", rep.FailureList, rep.BoundViolations)
	}
	if rep.MetaRuns == 0 || rep.MetaLiveMax == 0 || rep.MetaBytesMax == 0 {
		t.Fatalf("meta statz never moved: %+v", rep)
	}
	if rep.CacheHits == 0 {
		t.Error("compile cache never hit despite cycling 6 programs over 60 requests")
	}
	if rep.LookasideHitRate <= 0 {
		t.Errorf("lookaside hit rate %v", rep.LookasideHitRate)
	}
}
