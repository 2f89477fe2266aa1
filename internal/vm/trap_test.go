package vm

import (
	"context"
	"errors"
	"testing"
	"time"

	"softbound/internal/ir"
)

// infiniteLoop builds a module whose main spins forever.
func infiniteLoop() *ir.Module {
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KBr, Target: 0},
	}}}
	return buildModule(f)
}

func TestTrapClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		code TrapCode
	}{
		{"spatial", &SpatialViolation{Kind: ir.CheckLoad}, TrapSpatial},
		{"temporal", &TemporalViolation{Kind: ir.CheckStore}, TrapTemporal},
		{"baseline", &BaselineViolation{Tool: "bounds", Msg: "oob"}, TrapBaseline},
		{"fault", &FaultError{Addr: 0x10}, TrapMemFault},
		{"runtime", &RuntimeError{Msg: "division by zero"}, TrapRuntime},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Classify(tc.err)
			var trap *Trap
			if !errors.As(got, &trap) {
				t.Fatalf("Classify(%v) = %v, not a *Trap", tc.err, got)
			}
			if trap.Code != tc.code {
				t.Fatalf("code = %q, want %q", trap.Code, tc.code)
			}
			if CodeOf(got) != tc.code {
				t.Fatalf("CodeOf = %q, want %q", CodeOf(got), tc.code)
			}
			// The original error must stay reachable through the chain.
			if !errors.Is(got, tc.err) && got.(*Trap).Cause != tc.err {
				t.Fatalf("cause %v lost from trap chain %v", tc.err, got)
			}
		})
	}
}

func TestTrapClassifyNilAndIdempotent(t *testing.T) {
	if Classify(nil) != nil {
		t.Fatal("Classify(nil) must be nil")
	}
	if CodeOf(nil) != "" {
		t.Fatal(`CodeOf(nil) must be ""`)
	}
	once := Classify(&RuntimeError{Msg: "x"})
	twice := Classify(once)
	if once != twice {
		t.Fatalf("Classify is not idempotent: %v vs %v", once, twice)
	}
}

// Typed errors must survive double-wrapping for callers using errors.As.
func TestTrapPreservesErrorsAs(t *testing.T) {
	sv := &SpatialViolation{Kind: ir.CheckStore, Ptr: 64}
	wrapped := Classify(sv)
	var got *SpatialViolation
	if !errors.As(wrapped, &got) || got != sv {
		t.Fatalf("errors.As lost *SpatialViolation through %v", wrapped)
	}
}

func TestStepLimitTrapCode(t *testing.T) {
	v, err := New(infiniteLoop(), Config{StepLimit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := v.Run()
	if CodeOf(runErr) != TrapStepLimit {
		t.Fatalf("runaway loop: got %v (code %q), want step-limit trap", runErr, CodeOf(runErr))
	}
}

func TestDeadlineTrap(t *testing.T) {
	v, err := New(infiniteLoop(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	limit := 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	start := time.Now()
	_, runErr := v.RunContext(ctx)
	elapsed := time.Since(start)
	if CodeOf(runErr) != TrapDeadline {
		t.Fatalf("hung program: got %v (code %q), want deadline trap", runErr, CodeOf(runErr))
	}
	if elapsed >= 2*limit {
		t.Fatalf("deadline fired after %v, want < 2×%v", elapsed, limit)
	}
}

func TestStackDepthTrap(t *testing.T) {
	// main calls itself forever: unbounded recursion.
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	f.NewReg(ir.ClassInt)
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KCall, Callee: ir.FV("main"), Dst: 0},
		{Kind: ir.KRet, HasVal: true, A: ir.R(0)},
	}}}
	v, err := New(buildModule(f), Config{MaxStackDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := v.Run()
	if CodeOf(runErr) != TrapStackOverflow {
		t.Fatalf("unbounded recursion: got %v (code %q), want stack-overflow trap",
			runErr, CodeOf(runErr))
	}
}
