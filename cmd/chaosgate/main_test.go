package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
)

func slo() SLO {
	return SLO{MinAvailability: 0.25, MaxP99Ms: 5000, MaxViolations: 0, MinOKOps: 1,
		MaxBackstopFirings: 0, MinDeadlocksResolved: 1}
}

func healthyReport() *chaos.Report {
	return &chaos.Report{
		Seed: 1, Ops: 100, OKOps: 80, Availability: 0.8,
		P99Ms: 120, Violations: nil, OrphanedMigrations: []string{},
		DeadlocksInjected: 2, DeadlocksResolved: 2, BackstopFirings: 0,
	}
}

func TestEvaluatePasses(t *testing.T) {
	if b := evaluate(healthyReport(), slo()); len(b) != 0 {
		t.Fatalf("healthy report breached: %v", b)
	}
}

func TestEvaluateFlagsViolations(t *testing.T) {
	rep := healthyReport()
	rep.Violations = []string{"epoch 1: VIOLATION: agent-0 has 2 live copies (want exactly 1)"}
	b := evaluate(rep, slo())
	if len(b) == 0 || !strings.Contains(b[0], "invariant violations") {
		t.Fatalf("breaches = %v, want invariant violation", b)
	}
}

func TestEvaluateFlagsOrphans(t *testing.T) {
	rep := healthyReport()
	rep.OrphanedMigrations = []string{"s0: agent-1→s2 (indoubt)"}
	if b := evaluate(rep, slo()); len(b) != 1 || !strings.Contains(b[0], "orphaned") {
		t.Fatalf("breaches = %v, want orphan breach", b)
	}
}

func TestEvaluateFlagsAvailabilityFloor(t *testing.T) {
	rep := healthyReport()
	rep.Availability = 0.1
	if b := evaluate(rep, slo()); len(b) != 1 || !strings.Contains(b[0], "availability") {
		t.Fatalf("breaches = %v, want availability breach", b)
	}
}

func TestEvaluateFlagsTailLatency(t *testing.T) {
	rep := healthyReport()
	rep.P99Ms = 9000
	if b := evaluate(rep, slo()); len(b) != 1 || !strings.Contains(b[0], "p99") {
		t.Fatalf("breaches = %v, want p99 breach", b)
	}
}

func TestEvaluateFlagsIdleRun(t *testing.T) {
	rep := healthyReport()
	rep.OKOps = 0
	rep.Availability = 1 // degenerate: 0/0 runs report availability 0, but guard anyway
	if b := evaluate(rep, slo()); len(b) == 0 {
		t.Fatal("idle run passed the gate")
	}
}

// TestEvaluateFlagsBackstopFiring: any admission-timeout backstop firing
// is a deadlock the probes failed to detect — a per-run breach.
func TestEvaluateFlagsBackstopFiring(t *testing.T) {
	rep := healthyReport()
	rep.BackstopFirings = 1
	if b := evaluate(rep, slo()); len(b) != 1 || !strings.Contains(b[0], "backstop") {
		t.Fatalf("breaches = %v, want backstop breach", b)
	}
}

// TestGateEndToEnd runs the real gate binary path over one seed and
// checks the exit code, the pass line, and the JSON sweep artifact.
func TestGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	sloPath := filepath.Join(dir, "slo.json")
	if err := os.WriteFile(sloPath, []byte(`{"min_availability":0.25,"max_p99_ms":5000,"max_violations":0,"min_ok_ops":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "sweep.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-seed", "1", "-sites", "5", "-epochs", "2", "-clients", "2",
		"-ops", "5", "-agents", "3", "-hops", "2",
		"-slo", sloPath, "-out", outPath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("gate exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "seed 1 PASS") {
		t.Fatalf("stdout missing pass line:\n%s", stdout.String())
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"passed": true`) {
		t.Fatalf("sweep artifact not passed:\n%s", raw)
	}
}

// TestGateNamesOffendingSeed: with an impossible SLO the gate must exit
// non-zero, name the failing seed, and print a reproduction line that
// carries the store flags in force — fed back to the gate, the line runs
// the same seed over the same kind of store, not over MemStore.
func TestGateNamesOffendingSeed(t *testing.T) {
	dir := t.TempDir()
	sloPath := filepath.Join(dir, "slo.json")
	// An availability floor of 1.01 cannot be met: every run fails.
	if err := os.WriteFile(sloPath, []byte(`{"min_availability":1.01,"max_p99_ms":5000,"max_violations":0,"min_ok_ops":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "wal")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-seed", "4", "-sites", "5", "-epochs", "2", "-clients", "2",
		"-ops", "5", "-agents", "3", "-hops", "2", "-slo", sloPath,
		"-store", "wal", "-storedir", storeDir,
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("gate exit %d, want 1\nstdout:\n%s", code, stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "seed 4 FAIL") || !strings.Contains(out, "FAILED seeds [4]") {
		t.Fatalf("gate did not name the offending seed:\n%s", out)
	}
	const prefix = "reproduce: go run ./cmd/chaosgate "
	at := strings.Index(out, prefix+"-seed 4 ")
	if at < 0 {
		t.Fatalf("gate did not print a reproduction line:\n%s", out)
	}
	line, _, _ := strings.Cut(out[at+len(prefix):], "\n")
	if !strings.Contains(line, " -store wal -storedir "+storeDir+" ") {
		t.Fatalf("reproduction line dropped the store flags: %q", line)
	}

	// Round trip: the printed flags (plus the SLO file, which the line
	// leaves at its default) replay the seed over a fresh WAL.
	if err := os.RemoveAll(storeDir); err != nil {
		t.Fatal(err)
	}
	args := append(strings.Fields(line), "-slo", sloPath)
	if code := run(args, io.Discard, &stderr); code != 1 {
		t.Fatalf("replayed gate exit %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	if _, err := os.Stat(filepath.Join(storeDir, "seed4")); err != nil {
		t.Errorf("replay did not run over the WAL directory: %v", err)
	}
}
