package bench

import (
	"strings"
	"testing"
	"time"

	"softbound/internal/driver"
	"softbound/internal/faults"
	"softbound/internal/meta"
	"softbound/internal/vm"
)

// TestPanickingSchemeIsContained is the regression test for the harness's
// original failure mode: one cell's panic killed the whole process and
// every other result with it. A scheme whose cells panic (stubbed
// runCell) must yield failed Runs for its cells (trap code "panic", both
// attempts recorded) while the rest of the matrix completes normally.
func TestPanickingSchemeIsContained(t *testing.T) {
	old := runCell
	defer func() { runCell = old }()
	runCell = func(s spec) Run {
		if s.mode != driver.ModeNone && s.scheme == meta.KindHashTable {
			panic("boom: deliberate cell panic")
		}
		return old(s)
	}
	rep, err := Execute(Config{
		Programs:    []string{"treeadd"},
		Scale:       2,
		Schemes:     []meta.Kind{meta.KindShadowSpace, meta.KindHashTable},
		Modes:       []driver.Mode{driver.ModeFull},
		CellTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Matrix: baseline + 2 schemes × 1 mode = 3 runs, all present.
	if len(rep.Runs) != 3 {
		t.Fatalf("report has %d runs, want 3 (matrix must complete)", len(rep.Runs))
	}
	var sawBoom, sawGood, sawBase bool
	for _, r := range rep.Runs {
		switch {
		case r.Scheme == "hashtable":
			sawBoom = true
			if r.TrapCode != string(vm.TrapPanic) {
				t.Errorf("panicking cell trap %q, want %q", r.TrapCode, vm.TrapPanic)
			}
			if r.Attempts != 2 {
				t.Errorf("panicking cell attempts = %d, want 2 (one bounded retry)", r.Attempts)
			}
			if !strings.Contains(r.Error, "boom") {
				t.Errorf("panicking cell error %q does not carry the panic value", r.Error)
			}
		case r.Scheme == "shadowspace":
			sawGood = true
			if r.Error != "" || r.TrapCode != "" {
				t.Errorf("healthy cell failed: trap %q error %q", r.TrapCode, r.Error)
			}
		case r.Config == baselineConfig:
			sawBase = true
			if r.Error != "" {
				t.Errorf("baseline failed: %v", r.Error)
			}
		}
	}
	if !sawBoom || !sawGood || !sawBase {
		t.Fatalf("missing cells: boom=%v good=%v baseline=%v", sawBoom, sawGood, sawBase)
	}
}

// TestHungCellBackstop: a cell that never returns (stubbed runCell) is
// abandoned at the wall-clock backstop with a deadline trap, and the
// harness still completes.
func TestHungCellBackstop(t *testing.T) {
	old := runCell
	defer func() { runCell = old }()
	runCell = func(s spec) Run {
		if s.mode != driver.ModeNone {
			select {} // hang forever: simulates a stuck compile/builtin
		}
		return newRun(s)
	}
	timeout := 200 * time.Millisecond
	start := time.Now()
	rep, err := Execute(Config{
		Programs:    []string{"treeadd"},
		Schemes:     []meta.Kind{meta.KindShadowSpace},
		Modes:       []driver.Mode{driver.ModeFull},
		CellTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(rep.Runs) != 2 {
		t.Fatalf("report has %d runs, want 2", len(rep.Runs))
	}
	var hung *Run
	for i := range rep.Runs {
		if rep.Runs[i].Mode == driver.ModeFull.String() {
			hung = &rep.Runs[i]
		}
	}
	if hung == nil {
		t.Fatal("hung cell missing from report")
	}
	if hung.TrapCode != string(vm.TrapDeadline) {
		t.Fatalf("hung cell trap %q, want %q", hung.TrapCode, vm.TrapDeadline)
	}
	if hung.Attempts != maxAttempts {
		t.Fatalf("hung cell attempts = %d, want %d", hung.Attempts, maxAttempts)
	}
	// Two abandoned attempts at 2×timeout+1s each, plus slack.
	if budget := 2 * (2*timeout + time.Second) * 3; elapsed > budget {
		t.Fatalf("harness took %v, want < %v", elapsed, budget)
	}
}

// TestDeadlineCellInMatrix runs real cells under an unmeetable deadline:
// the instrumented cell must record a VM-level deadline trap — with NO
// containment retry (the program genuinely ran out of time; rerunning
// would double the wall clock to the same answer) — and the matrix still
// completes with every cell present.
func TestDeadlineCellInMatrix(t *testing.T) {
	rep, err := Execute(Config{
		Programs:    []string{"treeadd"},
		Modes:       []driver.Mode{driver.ModeFull},
		CellTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(meta.Kinds()); len(rep.Runs) != want {
		t.Fatalf("report has %d runs, want %d", len(rep.Runs), want)
	}
	var deadlined bool
	for _, r := range rep.Runs {
		if r.TrapCode == string(vm.TrapDeadline) {
			deadlined = true
			if r.Attempts != 0 {
				t.Errorf("%s/%s: VM deadline trap was retried (attempts=%d)",
					r.Program, r.Config, r.Attempts)
			}
		}
	}
	if !deadlined {
		t.Fatal("no cell hit the 1ms deadline; guard not reaching the matrix")
	}
}

// TestStepLimitInMatrix: the per-cell step budget surfaces as a failed
// run with trap code "step-limit" in BENCH.json, overheads skip it, and
// the remaining cells complete.
func TestStepLimitInMatrix(t *testing.T) {
	rep, err := Execute(Config{
		Programs:  []string{"treeadd"},
		Modes:     []driver.Mode{driver.ModeFull},
		StepLimit: 500, // far below what any default-scale cell needs
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		if r.TrapCode != string(vm.TrapStepLimit) {
			t.Errorf("%s/%s: trap %q, want step-limit", r.Program, r.Config, r.TrapCode)
		}
		if r.Error == "" {
			t.Errorf("%s/%s: step-limited run has no error", r.Program, r.Config)
		}
		if r.OverheadSim != nil {
			t.Errorf("%s/%s: errored run has an overhead figure", r.Program, r.Config)
		}
		if r.Stats.TrapCode != r.TrapCode {
			t.Errorf("%s/%s: stats trap %q != run trap %q",
				r.Program, r.Config, r.Stats.TrapCode, r.TrapCode)
		}
	}
}

// TestFaultPlanInMatrix: a fault plan threads from Config through to each
// cell; checked cells either trap with a classified code or match their
// own fault-free behaviour, and the report carries the trap codes.
func TestFaultPlanInMatrix(t *testing.T) {
	plan := &faults.Plan{Seed: 1, DropEvery: 40}
	rep, err := Execute(Config{
		Programs: []string{"health"},
		Scale:    3,
		Modes:    []driver.Mode{driver.ModeFull},
		Faults:   plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	var instrumented int
	for _, r := range rep.Runs {
		if r.Config == baselineConfig {
			continue
		}
		instrumented++
		if r.Error != "" && r.TrapCode == "" {
			t.Errorf("%s/%s: error %q without a trap code", r.Program, r.Config, r.Error)
		}
	}
	if instrumented == 0 {
		t.Fatal("no instrumented cells ran")
	}
}
