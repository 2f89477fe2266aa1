package perf

import (
	"context"
	"errors"
	"testing"

	"softbound/internal/driver"
	"softbound/internal/progs"
)

// The traced replay must build byte-identical modules and run them to
// bit-equal results, or the per-layer numbers would describe a different
// program from the one the driver builds. A change to the driver's
// pipeline that the replay does not follow fails here.
func TestReplayMatchesDriver(t *testing.T) {
	var entries []*entry
	for _, b := range progs.All() {
		entries = append(entries, progEntry(b, smallScale[b.Name]))
	}
	entries = append(entries, newPool(DefaultSeed, 8)...) // entries 3 and 7 are planted
	ctx := context.Background()
	for _, e := range entries {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			for _, c := range configs() {
				cfg := c.driverConfig()
				src := []driver.Source{{Name: "main.c", Text: e.src}}
				want, wantCounters, err := driver.CompileWithStats(src, cfg)
				if err != nil {
					t.Fatalf("%s: driver: %v", c.name, err)
				}
				tr := newTracer()
				ot := opTrace{tr: tr, op: 0, parent: -1}
				got, gotCounters, counts, err := compileTraced(ot, src, cfg)
				if err != nil {
					t.Fatalf("%s: replay: %v", c.name, err)
				}
				if got.String() != want.String() {
					t.Fatalf("%s: replayed module text differs from driver.CompileWithStats", c.name)
				}
				if gotCounters != wantCounters {
					t.Fatalf("%s: optimizer counters %+v, driver %+v", c.name, gotCounters, wantCounters)
				}
				if counts.final != countInsts(want) || counts.linked < counts.final {
					t.Fatalf("%s: instruction counts %+v, final module has %d", c.name, counts, countInsts(want))
				}

				wantRes := driver.ExecuteContext(ctx, want, cfg)
				gotRes := executeTraced(ctx, ot, got, cfg)
				if gotRes.ExitCode != wantRes.ExitCode || gotRes.Output != wantRes.Output ||
					gotRes.TrapCode() != wantRes.TrapCode() {
					t.Fatalf("%s: replay exit %d trap %q, driver exit %d trap %q (outputs equal: %v)", c.name,
						gotRes.ExitCode, gotRes.TrapCode(), wantRes.ExitCode, wantRes.TrapCode(), gotRes.Output == wantRes.Output)
				}
				if g, w := gotRes.Stats.Report(), wantRes.Stats.Report(); g != w {
					t.Fatalf("%s: replay stats %+v\ndriver stats %+v", c.name, g, w)
				}
				if (gotRes.Violation != nil) != (wantRes.Violation != nil) || (gotRes.TemporalHit != nil) != (wantRes.TemporalHit != nil) {
					t.Fatalf("%s: violation classification differs", c.name)
				}

				stages := map[string]bool{}
				for _, s := range tr.snapshot() {
					if s.End < s.Start {
						t.Fatalf("%s: span %s left open", c.name, s.Name)
					}
					stages[s.Name] = true
				}
				for _, name := range []string{"cparser.parse", "sema.typecheck", "irgen.lower", "opt.pre",
					"ir.link", "opt.post", "meta.new", "vm.new_cold", "vm.run"} {
					if !stages[name] {
						t.Fatalf("%s: no %s span", c.name, name)
					}
				}
				if stages["core.instrument"] != c.checked() {
					t.Fatalf("%s: instrument span present = %v", c.name, stages["core.instrument"])
				}
			}
		})
	}
}

func TestReplayReportsCompileErrorsLikeDriver(t *testing.T) {
	for _, src := range []string{
		"int main(void) { return 0 }",           // parse
		"int main(void) { return undeclared; }", // typecheck
	} {
		cfg := driver.DefaultConfig(driver.ModeFull)
		units := []driver.Source{{Name: "main.c", Text: src}}
		_, _, want := driver.CompileWithStats(units, cfg)
		_, _, _, got := compileTraced(opTrace{}, units, cfg)
		var we, ge *driver.CompileError
		if !errors.As(want, &we) || !errors.As(got, &ge) {
			t.Fatalf("%q: driver %v, replay %v: want CompileErrors", src, want, got)
		}
		if we.Error() != ge.Error() || we.Stage != ge.Stage || we.Unit != ge.Unit {
			t.Errorf("%q: replay %q, driver %q", src, ge, we)
		}
	}
}
