package bench

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"softbound/internal/driver"
	"softbound/internal/meta"
)

const testScale = 3

func testConfig(workers int) Config {
	return Config{
		Workers:  workers,
		Scale:    testScale,
		Programs: []string{"compress", "treeadd"},
	}
}

func TestMatrixShape(t *testing.T) {
	specs, err := buildMatrix(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 15 programs × (1 baseline + every scheme × 2 modes).
	if want := 15 * (1 + len(meta.Kinds())*2); len(specs) != want {
		t.Fatalf("full matrix has %d cells, want %d", len(specs), want)
	}

	specs, err = buildMatrix(Config{
		Programs: []string{"treeadd"},
		Schemes:  []meta.Kind{meta.KindHashTable},
		Modes:    []driver.Mode{driver.ModeFull},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("restricted matrix has %d cells, want 2", len(specs))
	}
	if specs[0].configName() != "baseline" || specs[1].configName() != "hashtable-full" {
		t.Fatalf("matrix order: %s, %s", specs[0].configName(), specs[1].configName())
	}

	if _, err := buildMatrix(Config{Programs: []string{"nope"}}); err == nil {
		t.Fatal("unknown program accepted")
	}
}

// TestExecuteParallel runs a small matrix on several workers and checks
// the report invariants: complete, error-free, overheads computed against
// the right baselines, and valid JSON under the schema's key names.
func TestExecuteParallel(t *testing.T) {
	rep, err := Execute(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != SchemaVersion {
		t.Errorf("schema = %d", rep.Schema)
	}
	// 2 programs × (1 baseline + every scheme × 2 modes).
	if want := 2 * (1 + len(meta.Kinds())*2); len(rep.Runs) != want {
		t.Fatalf("got %d runs, want %d: %+v", len(rep.Runs), want, rep.Runs)
	}
	baselines := map[string]Run{}
	for _, r := range rep.Runs {
		if r.Error != "" {
			t.Fatalf("%s/%s failed: %s", r.Program, r.Config, r.Error)
		}
		if r.Stats.SimInsts == 0 {
			t.Errorf("%s/%s: no simulated instructions recorded", r.Program, r.Config)
		}
		if len(r.Phases) != 2 {
			t.Errorf("%s/%s: phases = %+v", r.Program, r.Config, r.Phases)
		}
		if r.Config == "baseline" {
			if r.OverheadSim != nil {
				t.Errorf("%s baseline has an overhead", r.Program)
			}
			baselines[r.Program] = r
		}
	}
	for _, r := range rep.Runs {
		if r.Config == "baseline" {
			continue
		}
		if r.OverheadSim == nil || r.OverheadWall == nil {
			t.Fatalf("%s/%s: overhead not computed", r.Program, r.Config)
		}
		b := baselines[r.Program]
		want := float64(r.Stats.SimInsts)/float64(b.Stats.SimInsts) - 1
		if *r.OverheadSim != want {
			t.Errorf("%s/%s: overhead %f, want %f", r.Program, r.Config, *r.OverheadSim, want)
		}
		// Instrumentation always executes extra simulated instructions.
		if *r.OverheadSim <= 0 {
			t.Errorf("%s/%s: non-positive sim overhead %f", r.Program, r.Config, *r.OverheadSim)
		}
	}
	if len(rep.Summary) != len(meta.Kinds())*2 {
		t.Errorf("summary has %d configs: %+v", len(rep.Summary), rep.Summary)
	}

	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Runs) != len(rep.Runs) || back.Runs[1].OverheadSim == nil {
		t.Errorf("JSON round trip lost runs: %d", len(back.Runs))
	}
}

// TestOrderStableAcrossWorkerCounts pins the report to matrix order so
// BENCH.json diffs cleanly regardless of parallelism.
func TestOrderStableAcrossWorkerCounts(t *testing.T) {
	serial, err := Execute(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Execute(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Runs) != len(parallel.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(serial.Runs), len(parallel.Runs))
	}
	for i := range serial.Runs {
		s, p := serial.Runs[i], parallel.Runs[i]
		if s.Program != p.Program || s.Config != p.Config {
			t.Errorf("run %d: serial %s/%s vs parallel %s/%s",
				i, s.Program, s.Config, p.Program, p.Config)
		}
		// The simulated instruction counts are deterministic; only wall
		// clock may differ between the two executions.
		if s.Stats.SimInsts != p.Stats.SimInsts {
			t.Errorf("run %d (%s/%s): sim insts differ: %d vs %d",
				i, s.Program, s.Config, s.Stats.SimInsts, p.Stats.SimInsts)
		}
	}
}

// TestPoolBoundsConcurrency proves the worker pool genuinely overlaps
// runs and never exceeds its bound — independent of the host's CPU count,
// which is what makes the harness faster than serial on multi-core
// runners.
func TestPoolBoundsConcurrency(t *testing.T) {
	old := runCell
	defer func() { runCell = old }()
	var mu sync.Mutex
	active, maxActive := 0, 0
	runCell = func(s spec) Run {
		mu.Lock()
		active++
		if active > maxActive {
			maxActive = active
		}
		mu.Unlock()
		time.Sleep(30 * time.Millisecond)
		mu.Lock()
		active--
		mu.Unlock()
		return Run{Program: s.bench.Name, Config: s.configName()}
	}
	const workers = 4
	if _, err := Execute(Config{Workers: workers, Scale: testScale}); err != nil {
		t.Fatal(err)
	}
	if maxActive > workers {
		t.Errorf("pool exceeded its bound: %d active > %d workers", maxActive, workers)
	}
	if maxActive < 2 {
		t.Errorf("pool never overlapped runs (max active = %d)", maxActive)
	}
}

func TestFormatMentionsEveryRun(t *testing.T) {
	rep, err := Execute(Config{
		Workers:  2,
		Scale:    testScale,
		Programs: []string{"treeadd"},
		Schemes:  []meta.Kind{meta.KindShadowSpace},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := Format(rep)
	for _, frag := range []string{"treeadd", "baseline", "shadowspace-full", "chk-elim", "mean overhead"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Format output missing %q:\n%s", frag, out)
		}
	}
	// Loop-invariant metadata-load hoisting is retired, so the table
	// has no column for its always-zero counter.
	if strings.Contains(out, "ml-hoist") {
		t.Errorf("Format output has the retired ml-hoist column:\n%s", out)
	}
}
