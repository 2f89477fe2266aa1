// Command sbsoak is the differential soak harness for the generated
// corpus. In its default (matrix) mode it draws seeded programs from
// the internal generator and runs each across every metadata scheme ×
// protection mode × engine, demanding bit-equal behavior on clean cells
// and exact detection on planted ones; every divergence is shrunk to a
// minimal repro and spooled. In -session mode it becomes a workload
// client: a stream of generated FTP-daemon request programs POSTed
// through a live sbserve, asserting structured responses,
// baseline-identical outputs and bounded metadata-table occupancy.
//
// Usage:
//
//	sbsoak [-cells=N] [-seed=N] [-workers=N] [-plants=N]
//	       [-timeout=10s] [-steps=N] [-shrink-budget=N]
//	       [-spool=DIR] [-json=SOAK.json] [-v]
//	sbsoak -session -addr=http://127.0.0.1:8080 [-requests=N]
//	       [-programs=N] [-concurrency=N] [-seed=N] [-commands=N]
//	       [-sessions-per-run=N] [-scheme=NAME] [-mode=full]
//	       [-max-live=N] [-max-meta-bytes=N]
//	       [-json=SOAK_SESSION.json] [-v]
//
// Exit status is 0 only when every invariant held: zero divergences and
// zero unstructured traps (matrix), or zero failures and zero bound
// violations (session).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"softbound/internal/soak"
)

func main() {
	session := flag.Bool("session", false, "run the session soak client against a live sbserve")
	jsonOut := flag.String("json", "", "write the report (SOAK.json / SOAK_SESSION.json schema) to this file")
	verbose := flag.Bool("v", false, "log progress to stderr")
	seed := flag.Uint64("seed", 1, "campaign seed (the campaign is a pure function of seed and size)")

	// Matrix mode.
	cells := flag.Int("cells", 100, "number of generated programs to soak")
	workers := flag.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS)")
	plants := flag.Int("plants", 2, "planted variants exercised per cell")
	timeout := flag.Duration("timeout", 10*time.Second, "per-run VM deadline")
	steps := flag.Uint64("steps", 20_000_000, "per-run VM instruction budget")
	shrinkBudget := flag.Int("shrink-budget", 24, "max re-runs while shrinking one divergence")
	spool := flag.String("spool", "", "directory for shrunk repro bundles")

	// Session mode.
	addr := flag.String("addr", "http://127.0.0.1:8080", "sbserve base URL (session mode)")
	requests := flag.Int("requests", 1000, "total /run requests (session mode)")
	programs := flag.Int("programs", 32, "distinct generated programs to cycle (session mode)")
	concurrency := flag.Int("concurrency", 4, "client workers (session mode)")
	commands := flag.Int("commands", 20, "FTP commands per generated script (session mode)")
	sessionsPerRun := flag.Int("sessions-per-run", 2, "daemon sessions per request program (session mode)")
	scheme := flag.String("scheme", "shadowspace", "metadata scheme for session requests")
	mode := flag.String("mode", "full", "protection mode for session requests")
	maxLive := flag.Int64("max-live", 0, "bound on the server's live metadata entries high-water (0 = unchecked)")
	maxMetaBytes := flag.Int64("max-meta-bytes", 0, "bound on the server's metadata table bytes high-water (0 = unchecked)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var logw io.Writer
	if *verbose {
		logw = os.Stderr
	}

	if *session {
		rep, err := soak.RunSession(ctx, soak.SessionConfig{
			BaseURL:       *addr,
			Requests:      *requests,
			Programs:      *programs,
			Concurrency:   *concurrency,
			Seed:          *seed,
			Commands:      *commands,
			Sessions:      *sessionsPerRun,
			Scheme:        *scheme,
			Mode:          *mode,
			MaxLive:       *maxLive,
			MaxTableBytes: *maxMetaBytes,
			Log:           logw,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbsoak: %v\n", err)
			os.Exit(2)
		}
		writeReport(*jsonOut, rep)
		fmt.Printf("session soak: %d requests (%d cache hits), %d failures; meta live max %d, %d table bytes max\n",
			rep.Requests, rep.CacheHits, rep.Failures, rep.MetaLiveMax, rep.MetaBytesMax)
		for _, v := range rep.BoundViolations {
			fmt.Printf("  bound violated: %s\n", v)
		}
		if rep.Failed() {
			os.Exit(1)
		}
		return
	}

	rep, err := soak.Run(ctx, soak.Config{
		Cells:         *cells,
		Seed:          *seed,
		Workers:       *workers,
		PlantsPerCell: *plants,
		Timeout:       *timeout,
		StepLimit:     *steps,
		SpoolDir:      *spool,
		MaxShrinkRuns: *shrinkBudget,
		Log:           logw,
	})
	if err != nil {
		writeReport(*jsonOut, rep)
		fmt.Fprintf(os.Stderr, "sbsoak: %v\n", err)
		os.Exit(2)
	}
	writeReport(*jsonOut, rep)
	fmt.Printf("soak: %d cells, %d runs; planted %d/%d detected; %d divergences (%d unstructured), %d shrunk\n",
		rep.Cells, rep.Runs, rep.Planted.Detected, rep.Planted.Total,
		rep.Divergences, rep.Unstructured, rep.Shrinks)
	for i, d := range rep.DivergenceList {
		if i == 10 {
			fmt.Printf("  ... %d more\n", len(rep.DivergenceList)-10)
			break
		}
		fmt.Printf("  seed=%d %s %s [%s]: %s\n", d.Seed, d.Variant, d.Check, d.Config, d.Detail)
	}
	if rep.Divergences > 0 || rep.Unstructured > 0 || rep.Planted.Missed > 0 {
		os.Exit(1)
	}
}

func writeReport(path string, rep any) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbsoak: writing %s: %v\n", path, err)
		os.Exit(2)
	}
}
