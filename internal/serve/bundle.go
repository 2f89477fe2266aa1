package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"softbound/internal/driver"
	"softbound/internal/faults"
)

// BundleSchema identifies the replay-bundle layout on disk.
const BundleSchema = 1

// Bundle is a deterministic crash-replay capsule: everything needed to
// re-execute a trapped request offline — the exact source, configuration,
// budgets, and seeded fault plan — plus what the service observed, so a
// replay can be checked against the original trap. The VM and fault
// injector are deterministic functions of these fields, which is what
// makes "reproduces to the identical TrapCode" a testable contract
// (wall-clock deadline traps are the one class that can legitimately
// diverge on a differently-loaded machine).
type Bundle struct {
	Schema int `json:"schema"`
	// ProgramHash is the hex SHA-256 of Source (the breaker/cache key).
	ProgramHash string `json:"program_hash"`
	Source      string `json:"source"`
	Scheme      string `json:"scheme,omitempty"` // "" = uninstrumented baseline
	Mode        string `json:"mode"`
	Optimize    bool   `json:"optimize"`
	// Faults is the seeded fault plan in faults.ParsePlan syntax ("" =
	// none); the seed makes the injected schedule replay bit-identically.
	Faults string `json:"faults,omitempty"`
	// StepLimit and TimeoutNanos are the budgets the run executed under.
	StepLimit    uint64   `json:"step_limit,omitempty"`
	TimeoutNanos int64    `json:"timeout_nanos,omitempty"`
	Args         []string `json:"args,omitempty"`

	// What the service observed (replay compares against these).
	TrapCode string `json:"trap_code"`
	Error    string `json:"error,omitempty"`
}

// WriteBundle spools a bundle as pretty-printed JSON and returns its
// path. name should be unique per bundle (the server derives it from the
// program hash, trap code, and a sequence number).
func WriteBundle(dir, name string, b Bundle) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	blob, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadBundle loads a spooled bundle.
func ReadBundle(path string) (Bundle, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Bundle{}, err
	}
	var b Bundle
	if err := json.Unmarshal(blob, &b); err != nil {
		return Bundle{}, fmt.Errorf("serve: bad bundle %s: %w", path, err)
	}
	if b.Schema != BundleSchema {
		return Bundle{}, fmt.Errorf("serve: bundle %s has schema %d, want %d", path, b.Schema, BundleSchema)
	}
	return b, nil
}

// Replay re-executes a bundle under its recorded configuration and
// returns the result. The caller compares the result's TrapCode against
// bundle.TrapCode to confirm reproduction.
func Replay(b Bundle) (*driver.Result, error) {
	cfg, err := bundleConfig(b)
	if err != nil {
		return nil, err
	}
	return driver.Run([]driver.Source{{Name: "replay.c", Text: b.Source}}, cfg)
}

// bundleConfig rebuilds the driver configuration a bundle ran under.
func bundleConfig(b Bundle) (driver.Config, error) {
	mode, err := parseMode(b.Mode)
	if err != nil {
		return driver.Config{}, err
	}
	cfg := driver.DefaultConfig(mode)
	cfg.Optimize = b.Optimize
	if mode != driver.ModeNone {
		if cfg.Meta, err = parseScheme(b.Scheme); err != nil {
			return driver.Config{}, err
		}
	}
	cfg.StepLimit = b.StepLimit
	if b.TimeoutNanos > 0 {
		cfg.Timeout = time.Duration(b.TimeoutNanos)
	}
	cfg.Args = b.Args
	if b.Faults != "" {
		plan, err := faults.ParsePlan(b.Faults)
		if err != nil {
			return driver.Config{}, fmt.Errorf("serve: bundle fault plan: %w", err)
		}
		if plan.Enabled() {
			cfg.Faults = faults.NewInjector(plan)
		}
	}
	return cfg, nil
}
