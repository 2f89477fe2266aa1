package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"softbound/internal/bench"
	"softbound/internal/driver"
	"softbound/internal/meta"
	"softbound/internal/metrics"
	"softbound/internal/progs"
)

// msccPinned holds the simulated instruction counts of real MSCC-model
// runs: full checking over the hash table, with the facility's lookup and
// update recharged at 14 instructions and each check at 6. They were
// measured by running that model in the VM, before the model was replaced
// by msccSimInsts. When direct-only field accesses stopped paying the
// bounds intersection, each pin fell by exactly its program's drop in
// hashtable-full SimInsts; the check and metadata terms did not move.
var msccPinned = map[int]map[string]uint64{
	1: {
		"go": 5213, "lbm": 901492, "hmmer": 504613, "compress": 318258,
		"ijpeg": 3023351, "bh": 4429, "tsp": 620, "libquantum": 1711752,
		"perimeter": 2312, "health": 98009, "bisort": 818, "mst": 980,
		"li": 660790, "em3d": 15224, "treeadd": 874,
	},
	3: {
		"go": 18129, "lbm": 2368446, "hmmer": 1503942, "compress": 958999,
		"ijpeg": 8843745, "bh": 39938, "tsp": 5384, "libquantum": 4895420,
		"perimeter": 56530, "health": 200008, "bisort": 10228, "mst": 4998,
		"li": 3424024, "em3d": 44207, "treeadd": 4715,
	},
}

// strdupSrc copies a 52-byte string through libc's strdup, whose memcpy
// carries 6 words of metadata: no Figure 2 program reaches that term.
const strdupSrc = `
char* strdup(char* s);
int main(void) {
	char* s = strdup("a string long enough to span several pointer slots");
	return s[0] != 'a';
}
`

// strdupPinned is strdupSrc's pinned MSCC-model count.
const strdupPinned = 1168

// hashFull runs src under full checking over the hash table.
func hashFull(t *testing.T, name, src string) metrics.Report {
	t.Helper()
	cfg := driver.DefaultConfig(driver.ModeFull)
	cfg.Meta = meta.KindHashTable
	res, err := driver.RunSource(src, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Err != nil {
		t.Fatalf("%s: %v", name, res.Err)
	}
	return res.Stats.Report()
}

// TestMSCCDerivationMatchesPinned: the MSCC column derived from a
// hashtable-full run's counters equals the real MSCC-model run on every
// pinned cell, including one where memcpy carries metadata.
func TestMSCCDerivationMatchesPinned(t *testing.T) {
	for _, scale := range []int{1, 3} {
		for _, b := range progs.All() {
			want, ok := msccPinned[scale][b.Name]
			if !ok {
				t.Fatalf("no pin for %s at scale %d", b.Name, scale)
			}
			name := fmt.Sprintf("%s@%d", b.Name, scale)
			if got := msccSimInsts(hashFull(t, name, b.Source(scale))); got != want {
				t.Errorf("%s: derived MSCC sim_insts %d, pinned %d", name, got, want)
			}
		}
	}
	ht := hashFull(t, "strdup", strdupSrc)
	if ht.MetaCopyWords == 0 {
		t.Fatal("strdup: meta_copy_words is 0; the copy-word term is untested")
	}
	if got := msccSimInsts(ht); got != strdupPinned {
		t.Errorf("strdup: derived MSCC sim_insts %d, pinned %d", got, strdupPinned)
	}
}

// syntheticReport hand-builds a healthy report holding every cell the
// views read for the §6.5 programs.
func syntheticReport() *bench.Report {
	rep := &bench.Report{Programs: relatedPrograms}
	for i, p := range relatedPrograms {
		rep.Runs = append(rep.Runs, bench.Run{Program: p, Config: "baseline",
			Stats: metrics.Report{SimInsts: 100, PtrMemFrac: float64(i) / 10}})
		for _, cfg := range Figure2Configs() {
			oh := 0.5
			rep.Runs = append(rep.Runs, bench.Run{Program: p, Config: cfg.benchName(),
				Stats: metrics.Report{SimInsts: 150}, OverheadSim: &oh})
		}
	}
	return rep
}

// TestViewsNameBadCells: a view that reads an errored or missing cell
// returns an error naming the program and config instead of a row; a
// view that does not read the cell is unaffected.
func TestViewsNameBadCells(t *testing.T) {
	views := map[string]func(*bench.Report) error{
		"figure1": func(r *bench.Report) error { _, err := Figure1(r); return err },
		"figure2": func(r *bench.Report) error { _, err := Figure2(r); return err },
		"related": func(r *bench.Report) error { _, err := Related(r); return err },
	}
	for name, view := range views {
		if err := view(syntheticReport()); err != nil {
			t.Fatalf("%s over a healthy report: %v", name, err)
		}
	}
	for _, tc := range []struct {
		prog, config string
		missing      bool
		readers      []string
	}{
		{"go", "baseline", false, []string{"figure1", "figure2", "related"}},
		{"em3d", "baseline", true, []string{"figure1", "figure2", "related"}},
		{"bisort", "hashtable-full", false, []string{"figure2", "related"}},
		{"compress", "shadow-cets-store-only", true, []string{"figure2"}},
	} {
		rep := syntheticReport()
		for i, r := range rep.Runs {
			if r.Program == tc.prog && r.Config == tc.config {
				if tc.missing {
					rep.Runs = append(rep.Runs[:i], rep.Runs[i+1:]...)
				} else {
					rep.Runs[i].Error = "compile: boom"
					rep.Runs[i].OverheadSim = nil
				}
				break
			}
		}
		bad := tc.prog + "/" + tc.config
		for name, view := range views {
			reads := slices.Contains(tc.readers, name)
			err := view(rep)
			switch {
			case reads && (err == nil || !strings.Contains(err.Error(), bad)):
				t.Errorf("%s with %s bad (missing=%v): error %v, want one naming %s", name, bad, tc.missing, err, bad)
			case !reads && err != nil:
				t.Errorf("%s does not read %s, but failed: %v", name, bad, err)
			}
		}
	}
}
