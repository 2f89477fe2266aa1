// Command sbserve is the resilient execution service: a long-running
// HTTP/JSON server that compiles and executes C programs under any
// metadata scheme and protection mode, with a bounded worker pool,
// admission control (429 shedding), per-program circuit breakers,
// a singleflight compile cache, and crash-replay bundles for every trap.
//
// Usage:
//
//	sbserve [-addr :8080] [-workers N] [-queue N] [-timeout 5s]
//	        [-max-timeout 30s] [-steps N] [-spool DIR] [-cache N]
//	        [-breaker-threshold N] [-breaker-cooldown 5s] [-retries N]
//	sbserve -replay BUNDLE.json
//
// Serve mode runs until SIGTERM/SIGINT, then drains gracefully: /readyz
// flips to 503, new /run work is rejected, admitted work finishes, and
// the process exits 0.
//
// Replay mode re-executes a spooled crash bundle offline under its
// recorded configuration and reports whether the trap reproduced
// (exit 0: identical trap code; exit 1: diverged; exit 2: bad bundle).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"softbound/internal/retry"
	"softbound/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "execution worker pool size (0 = NumCPU)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 2×workers); full queue sheds with 429")
	timeout := flag.Duration("timeout", 5*time.Second, "default per-request VM deadline")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "cap on client-requested deadlines")
	steps := flag.Uint64("steps", 0, "default per-request VM instruction budget (0 = driver default)")
	maxSteps := flag.Uint64("max-steps", 0, "cap on client-requested instruction budgets (0 = uncapped)")
	spool := flag.String("spool", "crash-spool", "crash-replay bundle directory (\"\" disables spooling)")
	cache := flag.Int("cache", 128, "compile cache entries")
	brThreshold := flag.Int("breaker-threshold", 3,
		"consecutive contained crashes / step-limit traps that open a program's circuit breaker (<= 0 disables)")
	brCooldown := flag.Duration("breaker-cooldown", 5*time.Second,
		"how long an open breaker fast-fails before a half-open probe")
	retries := flag.Int("retries", 2,
		"total attempts for contained non-deterministic crashes (1 = no retry); deterministic traps never retry")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget after SIGTERM")
	replay := flag.String("replay", "", "replay a spooled crash bundle instead of serving")
	restarts := flag.Uint64("restarts", 0,
		"supervisor-reported respawn count, surfaced as /statz restarts_observed (sbrouter sets this)")
	addrFile := flag.String("addr-file", "",
		"write the bound listen address to this file once listening (for supervisors using -addr with port 0)")
	flag.Parse()

	if *replay != "" {
		os.Exit(runReplay(*replay))
	}

	srv := serve.New(serve.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		StepLimit:      *steps,
		MaxSteps:       *maxSteps,
		SpoolDir:       *spool,
		CacheEntries:   *cache,
		Breaker:        serve.BreakerConfig{Threshold: *brThreshold, Cooldown: *brCooldown},
		Retry:          retry.Policy{MaxAttempts: *retries, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second},
		Restarts:       *restarts,
		Log:            os.Stderr,
	})
	// Hardened listener: header/read deadlines and an idle cap, so slow
	// clients cannot pin connections (see serve.NewHTTPServer).
	httpSrv := serve.NewHTTPServer(*addr, srv.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// Listen explicitly so -addr may use port 0 and a supervisor can
	// learn the bound address through -addr-file.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbserve: %v\n", err)
		os.Exit(1)
	}
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, ln.Addr().String()); err != nil {
			fmt.Fprintf(os.Stderr, "sbserve: %v\n", err)
			os.Exit(1)
		}
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "sbserve: listening on %s\n", ln.Addr())

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "sbserve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: readiness flips first so load balancers stop
	// routing here, the execution pool finishes admitted work, then the
	// HTTP server closes out remaining connections.
	fmt.Fprintln(os.Stderr, "sbserve: signal received, draining")
	srv.BeginDrain()
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "sbserve: shutdown: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "sbserve: drained, exiting")
}

// writeAddrFile publishes the bound address atomically (write-to-temp +
// rename), so a supervisor polling the file never reads a half-written
// address.
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runReplay re-executes one spooled bundle and compares trap codes.
func runReplay(path string) int {
	b, err := serve.ReadBundle(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbserve: %v\n", err)
		return 2
	}
	res, err := serve.Replay(b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbserve: replay: %v\n", err)
		return 2
	}
	got := string(res.TrapCode())
	fmt.Printf("bundle:   %s\nprogram:  %s\nconfig:   %s %s\nrecorded: %s\nreplayed: %s\n",
		path, b.ProgramHash[:12], b.Scheme, b.Mode, b.TrapCode, got)
	if res.Err != nil {
		fmt.Printf("error:    %v\n", res.Err)
	}
	if got != b.TrapCode {
		fmt.Println("DIVERGED: replay did not reproduce the recorded trap")
		return 1
	}
	fmt.Println("REPRODUCED: identical trap code")
	return 0
}
