package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"softbound/internal/progs"
	"softbound/internal/serve"
	"softbound/internal/vm"
)

// serveMixed sends HTTP /run requests to an in-process serve.Server with
// sbserve's default options. Even-numbered requests come from a hot set
// (16 clean pool programs and four paper programs at small scale, all at
// the server's default configuration) visited round robin, so after
// set-up they always hit the compile cache. Odd-numbered requests cycle
// through the other pool programs under every configuration, 10% of them
// planted; the cycle is far longer than the cache's 128 entries, so
// under LRU they always miss. Hits only look up and misses insert and
// evict, so a cache change that helps one and hurts the other shows.
//
// A measurement runs a closed loop with one connection per CPU for a
// third of its time (capacity), then an open loop at a fixed rate for the
// rest (latency, timed from each request's due time). This is the only
// workload that exercises admission, JSON and the compile cache.
type serveMixed struct {
	o    Options
	hot  []*entry
	cold []coldKey
	next int // next op-stream index; cold keys never repeat within a set-up

	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	client  *http.Client
	url     string
	spool   string
}

// coldKey is one always-miss request: a program under a configuration.
type coldKey struct {
	e *entry
	c config
}

// hotPrograms are the paper programs in the hot set, at small scale.
var hotPrograms = []string{"treeadd", "em3d", "bisort", "health"}

func hotEntries() []*entry {
	var out []*entry
	for _, name := range hotPrograms {
		b, _ := progs.Get(name) // registered by package progs
		out = append(out, progEntry(b, smallScale[name]))
	}
	return out
}

func (s *serveMixed) setup(ctx context.Context) error {
	s.close()
	n := poolSize
	if s.o.Smoke {
		n = smokePoolSize
	}
	pool := newPool(s.o.Seed, n)
	hotProgs := hotEntries()
	if err := runOracles(ctx, append(append([]*entry(nil), pool...), hotProgs...), clients()); err != nil {
		return err
	}
	s.hot, s.cold = splitHotCold(s.o.Seed, pool, hotProgs, configs())
	s.next = 0

	spool, err := os.MkdirTemp("", "sbperf-spool-")
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = os.RemoveAll(spool) // nothing was spooled yet
		return err
	}
	s.spool = spool
	// sbserve's defaults: NumCPU workers, a 128-entry cache, 2 attempts,
	// breaker threshold 3, bundles spooled. Its per-request log lines are
	// formatted and dropped.
	s.srv = serve.New(serve.Options{SpoolDir: spool, Log: io.Discard})
	s.httpSrv = serve.NewHTTPServer(ln.Addr().String(), s.srv.Handler())
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String() + "/run"
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clients(), MaxIdleConnsPerHost: clients()},
		Timeout:   time.Minute,
	}
	// Fill the cache with the hot set so hot requests hit from the start.
	for i := range s.hot {
		if op := s.send(ctx, nil, 2*i); op.err != nil {
			return op.err
		}
	}
	return nil
}

// splitHotCold builds the hot set (up to 16 clean pool programs, at most
// half of the clean ones, plus the paper programs) in a seeded order, and
// the seeded cold cycle: every other clean program under every
// configuration, plus planted programs making up a tenth of the cycle.
func splitHotCold(seed uint64, pool, hotProgs []*entry, cfgs []config) ([]*entry, []coldKey) {
	var clean, planted []*entry
	for _, e := range pool {
		if e.plant == nil {
			clean = append(clean, e)
		} else {
			planted = append(planted, e)
		}
	}
	nh := min(16, len(clean)/2)
	hotSet := append(append([]*entry(nil), clean[:nh]...), hotProgs...)
	hot := make([]*entry, len(hotSet))
	for i, j := range permutation(mix(seed, 1), len(hotSet)) {
		hot[i] = hotSet[j]
	}

	var keys, plantedKeys []coldKey
	for _, e := range clean[nh:] {
		for _, c := range cfgs {
			keys = append(keys, coldKey{e, c})
		}
	}
	for _, e := range planted {
		for _, c := range cfgs {
			plantedKeys = append(plantedKeys, coldKey{e, c})
		}
	}
	np := min(len(keys)/9, len(plantedKeys))
	for _, j := range permutation(mix(seed, 2), len(plantedKeys))[:np] {
		keys = append(keys, plantedKeys[j])
	}
	cold := make([]coldKey, len(keys))
	for i, j := range permutation(mix(seed, 3), len(keys)) {
		cold[i] = keys[j]
	}
	return hot, cold
}

// request is the k-th request of the op stream, with the program it runs
// and, for a cold request, the configuration it names (nil: the server's
// default).
func (s *serveMixed) request(k int) (*entry, *config, serve.Request) {
	if k%2 == 0 {
		e := s.hot[(k/2)%len(s.hot)]
		return e, nil, serve.Request{Source: e.src}
	}
	ck := s.cold[(k/2)%len(s.cold)]
	req := serve.Request{Source: ck.e.src, Mode: ck.c.mode.String()}
	if ck.c.checked() {
		req.Scheme = ck.c.scheme.Name
	}
	return ck.e, &ck.c, req
}

// send posts request k and checks the response.
func (s *serveMixed) send(ctx context.Context, tr *tracer, k int) opStat {
	e, want, req := s.request(k)
	st := opStat{cell: e.name}
	body, err := json.Marshal(req)
	if err != nil {
		st.err = err
		return st
	}
	sent := time.Now()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		st.err = err
		return st
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(httpReq)
	if err != nil {
		st.err = fmt.Errorf("%s: %w", e.name, err)
		return st
	}
	var r serve.Response
	decodeErr := json.NewDecoder(resp.Body).Decode(&r)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	done := time.Now()
	st.rtt = done.Sub(sent)
	st.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		st.err = fmt.Errorf("%s: HTTP %d", e.name, resp.StatusCode)
		return st
	}
	if decodeErr != nil || r.Program == "" {
		st.err = fmt.Errorf("%s: unstructured response: %v", e.name, decodeErr)
		return st
	}
	c, ok := configByName(r.Config)
	if !ok || (want != nil && want.name != r.Config) {
		st.err = fmt.Errorf("%s: ran under %q", e.name, r.Config)
		return st
	}
	for _, p := range r.Phases {
		switch p.Phase {
		case "compile":
			st.compile += p.Duration()
		case "execute":
			st.execute += p.Duration()
		}
	}
	st.hit = r.CacheHit
	got := outcome{exit: r.ExitCode, output: r.Output, trap: vm.TrapCode(r.TrapCode)}
	if r.Stats != nil {
		got.sim = r.Stats.SimInsts
		st.insts = r.Stats.Insts
		st.metaLoads = r.Stats.MetaLoads
		st.lookHits = r.Stats.MetaCacheHits
		st.lookMisses = r.Stats.MetaCacheMisses
		st.metaBytes = r.Stats.MetaBytes
	}
	st.err = e.check(c, got)
	st.sim = e.simRatio(c, got)
	if tr != nil {
		// The server reports its phases as durations; they are placed at
		// the end of the round trip (execute ending as the response
		// arrives, compile just before it), leaving HTTP, JSON and
		// admission queueing as the round trip's self time.
		end := int64(done.Sub(tr.t0))
		id := tr.add(Span{Name: "op", Op: int64(k), Parent: -1, Start: int64(sent.Sub(tr.t0)), End: end})
		exStart := end - int64(st.execute)
		tr.add(Span{Name: "serve.execute", Op: int64(k), Parent: id, Start: exStart, End: end})
		tr.add(Span{Name: "serve.compile", Op: int64(k), Parent: id, Start: exStart - int64(st.compile), End: exStart})
	}
	return st
}

func (s *serveMixed) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	n := clients()
	do := func(k int) opStat { return s.send(ctx, tr, k) }
	u0 := readUsage()
	closed, span := closedLoop(ctx, d/3, n, s.next, do)
	s.next += len(closed)
	open, _ := openLoop(ctx, s.o.Rate, d-d/3, n, s.next, do)
	s.next += len(open)

	win := &window{use: readUsage().sub(u0), span: span}
	for _, smp := range closed {
		op := smp.r
		op.latency = smp.latency()
		win.ops = append(win.ops, op)
		if op.err == nil {
			win.done++
		}
	}
	var openOps []opStat
	for _, smp := range open {
		op := smp.r
		op.latency = smp.latency()
		win.ops = append(win.ops, op)
		openOps = append(openOps, op)
		win.lags = append(win.lags, ms(smp.lag()))
	}
	win.lat = latencies(openOps)
	return win, ctx.Err()
}

func (s *serveMixed) endToEnd(w *window) (map[string]float64, map[string]string) {
	var exec, comp, sims []float64
	for _, op := range w.ops {
		if op.status != http.StatusOK {
			continue
		}
		exec = append(exec, ms(op.execute))
		if !op.hit {
			comp = append(comp, ms(op.compile))
		}
		if op.sim > 0 {
			sims = append(sims, op.sim)
		}
	}
	n := float64(len(w.ops))
	values := map[string]float64{
		"exec_geomean_ms":      geomean(exec),
		"compile_geomean_ms":   geomean(comp),
		"sim_overhead_geomean": geomean(sims),
		"throughput_ops_s":     float64(w.done) / w.span.Seconds(),
		"cpu_ms_per_op":        ms(w.use.cpu) / n,
		"alloc_mb_per_op":      float64(w.use.alloc) / 1e6 / n,
	}
	notes := map[string]string{
		"exec_geomean_ms":    "server-side execute phase, all requests",
		"compile_geomean_ms": fmt.Sprintf("server-side compile phase, %d cache misses", len(comp)),
		"throughput_ops_s":   fmt.Sprintf("closed loop, %d connections, %d requests", clients(), w.done),
		"cpu_ms_per_op":      "client and server, one process",
	}
	addLatency(values, notes, w.lat, fmt.Sprintf("open-loop requests at %g/s", s.o.Rate))
	return values, notes
}

func (s *serveMixed) perLayer(w *window, spans []Span) map[string]float64 {
	values := zeroLayers()
	self := selfTimes(spans)
	var waitNs int64
	for i, sp := range spans {
		if sp.Name == "op" {
			waitNs += self[i]
		}
	}
	var hitRTT, missRTT, missCompile, exec []float64
	var ok, hits, shed int
	var insts, loads, lookHits, lookMisses, metaBytes float64
	for _, op := range w.ops {
		if op.status == http.StatusTooManyRequests {
			shed++
		}
		if op.status != http.StatusOK {
			continue
		}
		ok++
		exec = append(exec, ms(op.execute))
		if op.hit {
			hits++
			hitRTT = append(hitRTT, ms(op.rtt))
		} else {
			missRTT = append(missRTT, ms(op.rtt))
			missCompile = append(missCompile, ms(op.compile))
		}
		insts += float64(op.insts)
		loads += float64(op.metaLoads)
		lookHits += float64(op.lookHits)
		lookMisses += float64(op.lookMisses)
		metaBytes += float64(op.metaBytes)
	}
	if ok == 0 {
		return values
	}
	n := float64(ok)
	values["serve.hit_rtt_ms"] = median(hitRTT)
	values["serve.miss_rtt_ms"] = median(missRTT)
	values["serve.compile_ms"] = mean(missCompile)
	values["serve.execute_ms"] = mean(exec)
	values["serve.wait_ms"] = float64(waitNs) / n / 1e6
	values["serve.cache_hit_ratio"] = float64(hits) / n
	values["serve.shed"] = float64(shed)
	values["load.lag_p99_ms"] = percentile(w.lags, 0.99)
	values["vm.insts"] = insts / n
	values["meta.lookups"] = loads / n
	if lookHits+lookMisses > 0 {
		values["meta.lookaside_hit_ratio"] = lookHits / (lookHits + lookMisses)
	}
	values["meta.table_bytes"] = metaBytes / n
	values["runtime.gc_cycles_per_op"] = float64(w.use.gcs) / float64(len(w.ops))
	return values
}

// close drains and stops the server the way sbserve does on SIGTERM, and
// waits for its goroutines.
func (s *serveMixed) close() {
	if s.srv == nil {
		return
	}
	s.srv.BeginDrain()
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		_ = s.httpSrv.Close() // the deadline passed; drop remaining connections
	}
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf(s.o.Log, "sbperf: serve: %v", err)
	}
	s.client.CloseIdleConnections()
	_ = os.RemoveAll(s.spool) // the spool is scratch space
	s.srv = nil
}
