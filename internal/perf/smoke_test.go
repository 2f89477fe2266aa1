package perf

import (
	"context"
	"testing"
	"time"
)

var stageLayers = []string{
	"cparser.parse_ms", "sema.typecheck_ms", "irgen.lower_ms", "opt.pre_ms", "core.instrument_ms",
	"opt.post_ms", "libc.frontend_share", "ir.insts_linked", "ir.insts_final", "meta.new_ms",
	"vm.new_cold_ms", "vm.new_warm_ms", "vm.alloc_mb_per_run", "vm.run_ms", "vm.ns_per_inst",
	"vm.insts", "meta.table_bytes", "runtime.peak_rss_mb", "trace.overhead_ratio",
}

var observed = map[string][]string{
	"figure2":     stageLayers,
	"gen-oneshot": stageLayers,
	"serve-mixed": {"serve.hit_rtt_ms", "serve.miss_rtt_ms", "serve.compile_ms", "serve.execute_ms",
		"serve.wait_ms", "serve.cache_hit_ratio", "load.lag_p99_ms", "vm.insts", "runtime.peak_rss_mb",
		"trace.overhead_ratio"},
}

var bypassed = map[string]string{
	"figure2":     "serve.hit_rtt_ms",
	"gen-oneshot": "load.lag_p99_ms",
	"serve-mixed": "cparser.parse_ms",
}

// TestSmoke runs every workload end to end on small inputs, untraced and
// traced, the same path sbperf -smoke takes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for seconds")
	}
	for _, wl := range Workloads {
		for _, traced := range []bool{false, true} {
			rep, err := Run(context.Background(), Options{
				Workload: wl, Seed: DefaultSeed, Seconds: 2 * time.Second, Trace: traced, Smoke: true,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			res := rep.Result
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: %+v, failures %v", wl, traced, res, rep.Failures)
			}
			table := EndToEnd
			if traced {
				table = PerLayer
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, traced, len(res.Metrics), len(table))
			}
			for _, m := range table {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, traced, m.Name, v, m.Unit)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", wl, m.Name, v.Value)
				}
			}
			if traced {
				if len(rep.Spans()) == 0 {
					t.Errorf("%s: traced run recorded no spans", wl)
				}
				// Every layer the workload goes through must read above
				// zero; the ones it bypasses read zero.
				for _, name := range observed[wl] {
					if v := res.Metrics[name].Value; !(v > 0) {
						t.Errorf("%s: %s = %g, want > 0", wl, name, v)
					}
				}
				if v := res.Metrics[bypassed[wl]].Value; v != 0 {
					t.Errorf("%s: %s = %g, want 0", wl, bypassed[wl], v)
				}
			}
			if e := rep.Env; e.NProc == 0 || e.GOMAXPROCS == 0 || e.GoVersion == "" || rep.Seed != DefaultSeed {
				t.Errorf("%s: run does not record its machine and seed: %+v seed %d", wl, e, rep.Seed)
			}
		}
	}
}
