package experiments

import (
	"strings"
	"testing"

	"softbound/internal/bench"
)

// The experiment tests assert the paper's claims (the shapes), not
// absolute numbers. They use a reduced problem size for speed.
const testScale = 3

func TestTable1SoftBoundDominates(t *testing.T) {
	rows := Table1()
	var sb *SchemeRow
	for i := range rows {
		if rows[i].Scheme == "SoftBound" {
			sb = &rows[i]
		}
	}
	if sb == nil {
		t.Fatal("no SoftBound row")
	}
	if !(sb.NoSrcChange && sb.Complete && sb.MemLayout && sb.ArbCasts && sb.DynLinkLib) {
		t.Fatalf("SoftBound row incomplete: %+v", sb)
	}
	// Every other scheme lacks at least one attribute (the paper's
	// Table 1 point).
	for _, r := range rows {
		if r.Scheme == "SoftBound" {
			continue
		}
		if r.NoSrcChange && r.Complete && r.MemLayout && r.ArbCasts && r.DynLinkLib {
			t.Errorf("%s matches SoftBound on all attributes", r.Scheme)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "SoftBound") {
		t.Error("format lost the SoftBound row")
	}
}

func TestTable3AllDetected(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("%d rows, want 18", len(rows))
	}
	for _, r := range rows {
		if !r.Succeeded {
			t.Errorf("%s: attack failed unprotected", r.Attack.Name)
		}
		if !r.DetectedFull || !r.DetectedStore {
			t.Errorf("%s: full=%v store=%v", r.Attack.Name, r.DetectedFull, r.DetectedStore)
		}
	}
	if s := FormatTable3(rows); !strings.Contains(s, "stack-direct-retaddr") {
		t.Error("format broken")
	}
}

func TestTable4MatchesPaperMatrix(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		p := r.Program
		if r.Valgrind != p.Valgrind || r.Mudflap != p.Mudflap ||
			r.Store != p.StoreOnly || r.Full != p.Full {
			t.Errorf("%s: got V=%v M=%v S=%v F=%v, paper says V=%v M=%v S=%v F=%v",
				p.Name, r.Valgrind, r.Mudflap, r.Store, r.Full,
				p.Valgrind, p.Mudflap, p.StoreOnly, p.Full)
		}
	}
	if s := FormatTable4(rows); !strings.Contains(s, "polymorph") {
		t.Error("format broken")
	}
}

// execute runs the cells a view reads and checks the report holds exactly
// the runs asked for.
func execute(t *testing.T, cfg bench.Config, runs int) *bench.Report {
	t.Helper()
	rep, err := bench.Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != runs {
		t.Fatalf("%d runs, want %d", len(rep.Runs), runs)
	}
	return rep
}

func TestFigure1SortedAndShaped(t *testing.T) {
	rows, err := Figure1(execute(t, Figure1Cells(testScale), 15))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].PtrFrac < rows[i-1].PtrFrac {
			t.Errorf("not sorted at %s", rows[i].Bench)
		}
	}
	// SPEC-style codes sit on the left, pointer codes on the right.
	if rows[0].PtrFrac > 0.05 {
		t.Errorf("leftmost %s has %f", rows[0].Bench, rows[0].PtrFrac)
	}
	if rows[len(rows)-1].PtrFrac < 0.3 {
		t.Errorf("rightmost %s has %f", rows[len(rows)-1].Bench, rows[len(rows)-1].PtrFrac)
	}
	if s := FormatFigure1(rows); !strings.Contains(s, "%") {
		t.Error("format broken")
	}
}

func TestFigure2Shape(t *testing.T) {
	rows, err := Figure2(execute(t, Figure2Cells(testScale), 135))
	if err != nil {
		t.Fatal(err)
	}
	avg := Averages(rows)
	// The paper's ordering: hash-full > shadow-full > hash-store >
	// shadow-store; all positive.
	hf, sf := avg["HashTable-Complete"], avg["ShadowSpace-Complete"]
	hs, ss := avg["HashTable-Stores"], avg["ShadowSpace-Stores"]
	if !(hf >= sf && sf > ss && hf >= hs && hs >= ss) {
		t.Errorf("overhead ordering violated: hf=%.2f sf=%.2f hs=%.2f ss=%.2f", hf, sf, hs, ss)
	}
	if ss <= 0 || hf <= 0 {
		t.Error("non-positive overheads")
	}
	// Pointer-heavy benchmarks must separate hash from shadow (the
	// metadata encoding matters only where metadata traffic exists).
	var ptrHeavy, scalar *OverheadResult
	for i := range rows {
		if rows[i].Bench == "treeadd" {
			ptrHeavy = &rows[i]
		}
		if rows[i].Bench == "lbm" {
			scalar = &rows[i]
		}
	}
	dPtr := ptrHeavy.Overheads["HashTable-Complete"] - ptrHeavy.Overheads["ShadowSpace-Complete"]
	dScalar := scalar.Overheads["HashTable-Complete"] - scalar.Overheads["ShadowSpace-Complete"]
	if dPtr <= dScalar {
		t.Errorf("hash-vs-shadow gap should grow with pointer intensity: treeadd %.3f vs lbm %.3f",
			dPtr, dScalar)
	}
	if s := FormatFigure2(rows); !strings.Contains(s, "average") {
		t.Error("format broken")
	}
}

func TestCompatCaseStudy(t *testing.T) {
	rs, err := Compat()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("expected both daemons, got %d", len(rs))
	}
	for _, r := range rs {
		for mode, fp := range r.FalsePositives {
			if fp {
				t.Errorf("%s mode %s produced a false positive", r.Daemon, mode)
			}
		}
		if !r.OutputsMatch {
			t.Errorf("%s: instrumentation changed program behaviour", r.Daemon)
		}
	}
	if !strings.Contains(rs[0].Output, "served 200") {
		t.Errorf("http output: %q", rs[0].Output)
	}
	if !strings.Contains(rs[1].Output, "ftpd codes") {
		t.Errorf("ftp output: %q", rs[1].Output)
	}
	if s := FormatCompat(rs); !strings.Contains(s, "separate compilation") {
		t.Error("format broken")
	}
}

func TestRelatedMSCCUniformlyHigher(t *testing.T) {
	rows, err := Related(execute(t, RelatedCells(testScale), 12))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MSCC <= r.SoftBound {
			t.Errorf("%s: MSCC %.3f not above SoftBound %.3f (paper §6.5 shape)",
				r.Bench, r.MSCC, r.SoftBound)
		}
	}
	if s := FormatRelated(rows); !strings.Contains(s, "MSCC") {
		t.Error("format broken")
	}
}
