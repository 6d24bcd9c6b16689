// Command chaosgate runs a sweep of seeded chaos runs (internal/chaos)
// and turns their reports into a CI gate: every run must uphold the
// global safety invariants and meet the availability/latency SLO
// committed in CHAOS_SLO.json. On failure it exits non-zero and names
// the offending seed together with a one-command reproduction line —
// the schedule is a pure function of the seed, so the line replays the
// exact fault sequence.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/chaos"
	"repro/internal/persist"
)

// SLO holds the gate's thresholds. Violations of the global invariants
// are always fatal up to MaxViolations (normally 0); availability and
// tail latency guard against the harness silently degenerating into a
// run where every op fails fast and nothing is actually exercised.
type SLO struct {
	// MinAvailability is the floor on ok-ops / total-ops per run. Chaos
	// runs legitimately fail many ops (cuts, crashes), so this is a
	// liveness floor, not a service target.
	MinAvailability float64 `json:"min_availability"`
	// MaxP99Ms caps the p99 op latency per run.
	MaxP99Ms float64 `json:"max_p99_ms"`
	// MaxViolations caps invariant violations per run (normally 0).
	MaxViolations int `json:"max_violations"`
	// MinOKOps is the floor on successful ops per run — proof the run
	// did real work.
	MinOKOps int64 `json:"min_ok_ops"`
	// MaxBackstopFirings caps ErrAdmissionTimeout occurrences per run.
	// With edge-chasing deadlock detection live every injected cycle must
	// resolve by probe, so this is normally 0: one firing is one
	// availability incident the detector failed to prevent.
	MaxBackstopFirings int64 `json:"max_backstop_firings"`
	// MinDeadlocksResolved is a sweep-wide floor on probe-resolved
	// injected cycles — proof the deadlock churn actually exercised the
	// detector. It is summed across the sweep (individual seeds may
	// legitimately draw schedules whose pairs are all skipped for
	// overlapping faults) and not enforced on single-seed reproductions.
	MinDeadlocksResolved int64 `json:"min_deadlocks_resolved"`
}

func loadSLO(path string) (SLO, error) {
	var slo SLO
	raw, err := os.ReadFile(path)
	if err != nil {
		return slo, err
	}
	if err := json.Unmarshal(raw, &slo); err != nil {
		return slo, fmt.Errorf("%s: %w", path, err)
	}
	return slo, nil
}

// evaluate checks one run's report against the SLO and returns the list
// of breaches (empty: the run passes the gate).
func evaluate(rep *chaos.Report, slo SLO) []string {
	var breaches []string
	if n := len(rep.Violations); n > slo.MaxViolations {
		breaches = append(breaches, fmt.Sprintf(
			"%d invariant violations (max %d)", n, slo.MaxViolations))
	}
	if len(rep.OrphanedMigrations) > 0 {
		breaches = append(breaches, fmt.Sprintf(
			"%d orphaned migrations", len(rep.OrphanedMigrations)))
	}
	if rep.Availability < slo.MinAvailability {
		breaches = append(breaches, fmt.Sprintf(
			"availability %.3f below floor %.3f", rep.Availability, slo.MinAvailability))
	}
	if slo.MaxP99Ms > 0 && rep.P99Ms > slo.MaxP99Ms {
		breaches = append(breaches, fmt.Sprintf(
			"p99 %.1fms above cap %.1fms", rep.P99Ms, slo.MaxP99Ms))
	}
	if rep.OKOps < slo.MinOKOps {
		breaches = append(breaches, fmt.Sprintf(
			"only %d ok ops (min %d) — the run did no real work", rep.OKOps, slo.MinOKOps))
	}
	if rep.BackstopFirings > slo.MaxBackstopFirings {
		breaches = append(breaches, fmt.Sprintf(
			"%d admission-timeout backstop firings (max %d) — deadlock detection failed",
			rep.BackstopFirings, slo.MaxBackstopFirings))
	}
	return breaches
}

// sweep holds the gate's aggregate output (written to -out as JSON).
type sweep struct {
	Passed bool            `json:"passed"`
	Runs   []*chaos.Report `json:"runs"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaosgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds     = fs.Int("seeds", 5, "number of consecutive seeds to sweep")
		seedBase  = fs.Int64("seed-base", 1, "first seed of the sweep")
		seed      = fs.Int64("seed", -1, "run this single seed instead of a sweep")
		sites     = fs.Int("sites", 5, "mesh size")
		epochs    = fs.Int("epochs", 3, "churn epochs per run")
		clients   = fs.Int("clients", 3, "concurrent invoker goroutines")
		ops       = fs.Int("ops", 10, "counter increments per client per epoch")
		agents    = fs.Int("agents", 4, "migrating agent fleet size")
		hops      = fs.Int("hops", 2, "max intermediate hops per journey")
		sloPath   = fs.String("slo", "CHAOS_SLO.json", "SLO thresholds file")
		outPath   = fs.String("out", "", "write the sweep report JSON here")
		storeKind = fs.String("store", "mem", "persistence backend per site: mem or wal")
		storeDir  = fs.String("storedir", "", "directory for the wal backend (required for it)")
		verbose   = fs.Bool("v", false, "stream schedule and verdict lines")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// storeFlags is what the reproduce line must carry: a failure that only
	// a restart over a real log shows does not reproduce on MemStore.
	storeFlags := ""
	switch *storeKind {
	case "mem":
		// chaos.Run defaults to a MemStore per site.
	case "wal":
		if *storeDir == "" {
			fmt.Fprintf(stderr, "chaosgate: -store wal requires -storedir\n")
			return 2
		}
		storeFlags = fmt.Sprintf(" -store wal -storedir %s", *storeDir)
	default:
		fmt.Fprintf(stderr, "chaosgate: unknown -store %q (want mem or wal)\n", *storeKind)
		return 2
	}
	slo, err := loadSLO(*sloPath)
	if err != nil {
		fmt.Fprintf(stderr, "chaosgate: %v\n", err)
		return 2
	}
	seedList := make([]int64, 0, *seeds)
	if *seed >= 0 {
		seedList = append(seedList, *seed)
	} else {
		for i := 0; i < *seeds; i++ {
			seedList = append(seedList, *seedBase+int64(i))
		}
	}

	agg := sweep{Passed: true}
	failed := make([]int64, 0)
	var deadlocksResolved int64
	for _, sd := range seedList {
		cfg := chaos.Config{
			Seed:         sd,
			Sites:        *sites,
			Epochs:       *epochs,
			Clients:      *clients,
			OpsPerClient: *ops,
			Agents:       *agents,
			MaxHops:      *hops,
		}
		if *verbose {
			cfg.Transcript = stdout
		}
		if *storeKind == "wal" {
			base := filepath.Join(*storeDir, fmt.Sprintf("seed%d", sd))
			if err := os.RemoveAll(base); err != nil {
				fmt.Fprintf(stderr, "chaosgate: clear %s: %v\n", base, err)
				return 2
			}
			cfg.Store = func(site string) (persist.Backend, error) {
				return persist.NewWALStore(filepath.Join(base, site))
			}
		}
		rep, err := chaos.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "chaosgate: seed %d: harness error: %v\n", sd, err)
			return 2
		}
		agg.Runs = append(agg.Runs, rep)
		deadlocksResolved += rep.DeadlocksResolved
		breaches := evaluate(rep, slo)
		if len(breaches) == 0 {
			fmt.Fprintf(stdout, "chaosgate: seed %d PASS (ops=%d avail=%.3f p99=%.1fms deadlocks=%d/%d)\n",
				sd, rep.Ops, rep.Availability, rep.P99Ms, rep.DeadlocksResolved, rep.DeadlocksInjected)
			continue
		}
		agg.Passed = false
		failed = append(failed, sd)
		fmt.Fprintf(stdout, "chaosgate: seed %d FAIL\n", sd)
		for _, b := range breaches {
			fmt.Fprintf(stdout, "  - %s\n", b)
		}
		for _, v := range rep.Violations {
			fmt.Fprintf(stdout, "  %s\n", v)
		}
	}
	// The deadlock-churn floor is sweep-wide: any one seed may skip all
	// its drawn pairs (overlapping faults), but a sweep that never
	// resolved a single injected cycle proved nothing about the detector.
	// Single-seed reproduction runs are exempt.
	if *seed < 0 && deadlocksResolved < slo.MinDeadlocksResolved {
		agg.Passed = false
		fmt.Fprintf(stdout, "chaosgate: sweep resolved %d injected deadlocks (min %d) — churn never exercised the detector\n",
			deadlocksResolved, slo.MinDeadlocksResolved)
	}
	if *outPath != "" {
		raw, err := json.MarshalIndent(agg, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "chaosgate: write %s: %v\n", *outPath, err)
			return 2
		}
	}
	if !agg.Passed {
		if len(failed) > 0 {
			fmt.Fprintf(stdout, "chaosgate: FAILED seeds %v\n", failed)
			fmt.Fprintf(stdout, "reproduce: go run ./cmd/chaosgate -seed %d -sites %d -epochs %d -clients %d -ops %d -agents %d -hops %d%s -v\n",
				failed[0], *sites, *epochs, *clients, *ops, *agents, *hops, storeFlags)
		}
		return 1
	}
	fmt.Fprintf(stdout, "chaosgate: all %d seeds passed\n", len(seedList))
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
