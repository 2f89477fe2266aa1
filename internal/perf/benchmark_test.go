package perf

import (
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"testing"
)

// benchmarkFile is the layout of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

// BENCHMARK.json is what runs the benchmark and judges its results; the
// harness computes and reports from its own tables. They must agree.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end\n%+v\nharness\n%+v", b.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, PerLayer) {
		t.Errorf("per_layer\n%+v\nharness\n%+v", b.PerLayer, PerLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("workloads %v, harness %v", names, Workloads)
	}
	if b.RunSeconds != DefaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", b.RunSeconds, DefaultSeconds)
	}
	rate := ""
	for i, arg := range b.Command {
		if arg == "-rate" && i+1 < len(b.Command) {
			rate = b.Command[i+1]
		}
	}
	if r, err := strconv.ParseFloat(rate, 64); err != nil || r != DefaultRate {
		t.Errorf("command %v commits rate %q, harness default %g", b.Command, rate, float64(DefaultRate))
	}
	// setup_s is not held to a spread, only to its bound: it gets the
	// largest one.
	setup, _ := metricByName("setup_s")
	for _, m := range EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup.Bound {
			t.Errorf("%s: bound %g outside (0, setup_s's %g]", m.Name, m.Bound, setup.Bound)
		}
	}
}
