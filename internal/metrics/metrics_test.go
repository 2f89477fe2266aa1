package metrics

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestDerivedQuantities(t *testing.T) {
	s := &Stats{
		Loads: 60, Stores: 40,
		PtrLoads: 20, PtrStores: 5,
		SimInsts: 150,
	}
	if s.MemOps() != 100 {
		t.Errorf("MemOps = %d", s.MemOps())
	}
	if s.PtrMemOps() != 25 {
		t.Errorf("PtrMemOps = %d", s.PtrMemOps())
	}
	if got := s.PtrMemFrac(); got != 0.25 {
		t.Errorf("PtrMemFrac = %f", got)
	}
	base := &Stats{SimInsts: 100}
	if got := s.Overhead(base); got != 0.5 {
		t.Errorf("Overhead = %f", got)
	}
}

func TestZeroSafety(t *testing.T) {
	s := &Stats{}
	if s.PtrMemFrac() != 0 {
		t.Error("PtrMemFrac on empty stats")
	}
	if s.Overhead(&Stats{}) != 0 {
		t.Error("Overhead against zero baseline")
	}
}

func TestReportRoundTrip(t *testing.T) {
	s := &Stats{
		Insts: 100, SimInsts: 180, Loads: 60, Stores: 40,
		PtrLoads: 20, PtrStores: 5, Checks: 30, MetaLoads: 25,
		MetaStores: 7, Mallocs: 3, MetaBytes: 4096,
		Opt: OptCounters{ChecksRemovedLocal: 2, ChecksRemovedGlobal: 3},
	}
	r := s.Report()
	if r.Insts != 100 || r.SimInsts != 180 || r.MetaBytes != 4096 {
		t.Errorf("Report dropped counters: %+v", r)
	}
	if r.CheckElims != 5 {
		t.Errorf("Report.CheckElims = %d, want local+global 5", r.CheckElims)
	}
	if r.PtrMemFrac != 0.25 {
		t.Errorf("Report.PtrMemFrac = %f", r.PtrMemFrac)
	}
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Errorf("JSON round trip changed report: %+v != %+v", back, r)
	}
	// The wire names are part of the BENCH.json schema contract.
	for _, key := range []string{`"sim_insts"`, `"ptr_mem_frac"`, `"meta_bytes"`} {
		if !strings.Contains(string(blob), key) {
			t.Errorf("schema key %s missing from %s", key, blob)
		}
	}
	if strings.Contains(string(blob), "meta_cache") {
		t.Errorf("deprecated meta_cache_* keys written: %s", blob)
	}
}

func TestPhaseTimer(t *testing.T) {
	var pt PhaseTimer
	done := pt.Start("compile")
	time.Sleep(time.Millisecond)
	done()
	pt.Time("execute", func() { time.Sleep(time.Millisecond) })
	phases := pt.Phases()
	if len(phases) != 2 || phases[0].Phase != "compile" || phases[1].Phase != "execute" {
		t.Fatalf("phases = %+v", phases)
	}
	for _, p := range phases {
		if p.Nanos <= 0 {
			t.Errorf("phase %s has non-positive duration %d", p.Phase, p.Nanos)
		}
	}
	if pt.Total() < phases[0].Duration() {
		t.Errorf("Total %v < first phase %v", pt.Total(), phases[0].Duration())
	}
}

func TestStringIncludesHeadlines(t *testing.T) {
	s := &Stats{Insts: 5, SimInsts: 9, Loads: 2, PtrLoads: 1, Checks: 3}
	out := s.String()
	for _, frag := range []string{"insts=5", "sim=9", "checks=3"} {
		if !strings.Contains(out, frag) {
			t.Errorf("String() missing %q: %s", frag, out)
		}
	}
}
