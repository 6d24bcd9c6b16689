package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
BenchmarkE3_DirectGoCall-8     	1000000000	         0.2512 ns/op
BenchmarkE3_MROMFixedMethod-8  	 4519918	       265.3 ns/op	      48 B/op	       2 allocs/op
BenchmarkE5_ACLScan-8          	12000000	        99.81 ns/op
PASS
ok  	repro	3.511s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"E3_DirectGoCall":    0.2512,
		"E3_MROMFixedMethod": 265.3,
		"E5_ACLScan":         99.81,
	}
	if len(got.ns) != len(want) {
		t.Fatalf("parsed %v, want %v", got.ns, want)
	}
	for name, v := range want {
		if got.ns[name] != v {
			t.Errorf("%s = %v, want %v", name, got.ns[name], v)
		}
	}
	// The one -benchmem line contributes allocation metrics.
	if got.allocs["E3_MROMFixedMethod"] != 2 || got.bytes["E3_MROMFixedMethod"] != 48 {
		t.Errorf("allocs/bytes = %v/%v, want 2/48",
			got.allocs["E3_MROMFixedMethod"], got.bytes["E3_MROMFixedMethod"])
	}
	if len(got.allocs) != 1 {
		t.Errorf("allocs parsed for %d benchmarks, want 1", len(got.allocs))
	}
}

func TestParseBenchKeepsMinOfRepetitions(t *testing.T) {
	in := `BenchmarkE5_ACLScan-8  1000  150.0 ns/op  24 B/op  1 allocs/op
BenchmarkE5_ACLScan-8  1000  99.5 ns/op  0 B/op  0 allocs/op
BenchmarkE5_ACLScan-8  1000  210.0 ns/op  24 B/op  1 allocs/op
`
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.ns["E5_ACLScan"] != 99.5 {
		t.Errorf("E5_ACLScan = %v, want min 99.5", got.ns["E5_ACLScan"])
	}
	if got.allocs["E5_ACLScan"] != 0 {
		t.Errorf("E5_ACLScan allocs = %v, want min 0", got.allocs["E5_ACLScan"])
	}
}

func TestAllocRegressions(t *testing.T) {
	base := map[string]float64{"A": 0, "B": 2, "Gone": 0, "Wavers": 608, "Grew": 608, "Big": 10119, "BigGrew": 10119}
	cur := map[string]float64{"A": 1, "B": 2, "New": 7, "Wavers": 609, "Grew": 612, "Big": 10121, "BigGrew": 10171}
	fails, warns := allocRegressions(base, cur)
	if len(fails) != 3 || !strings.HasPrefix(fails[0], "A:") ||
		!strings.HasPrefix(fails[1], "BigGrew:") || !strings.HasPrefix(fails[2], "Grew:") {
		t.Errorf("fails = %v, want A (any increase from 0), BigGrew and Grew", fails)
	}
	if len(warns) != 2 || !strings.HasPrefix(warns[0], "Big:") || !strings.HasPrefix(warns[1], "Wavers:") {
		t.Errorf("warns = %v, want Big and Wavers (within the count's resolution)", warns)
	}
}

func TestCheckFlagsAllocIncrease(t *testing.T) {
	file := filepath.Join(t.TempDir(), "BENCH_PR.json")
	var out strings.Builder
	if err := run("record", file, "seed", 0.20, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	// Same speed, one extra allocation on a non-zero count: a warning.
	leaky := strings.Replace(sampleBench, "2 allocs/op", "3 allocs/op", 1)
	out.Reset()
	if err := run("check", file, "", 0.20, strings.NewReader(leaky), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WARNING") || !strings.Contains(out.String(), "allocs/op") {
		t.Errorf("alloc-regressed check output = %q", out.String())
	}
	// Two more: the check fails.
	leaky = strings.Replace(sampleBench, "2 allocs/op", "4 allocs/op", 1)
	out.Reset()
	if err := run("check", file, "", 0.20, strings.NewReader(leaky), &out); !errors.Is(err, errAllocRegression) {
		t.Fatalf("check with an allocation increase = %v, want errAllocRegression", err)
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), "4 allocs/op vs 2 recorded") {
		t.Errorf("failed check output = %q", out.String())
	}
}

func TestRegressions(t *testing.T) {
	base := map[string]float64{"A": 100, "B": 100, "C": 100, "Gone": 50}
	cur := map[string]float64{"A": 115, "B": 130, "C": 95, "New": 500}
	warns := regressions(base, cur, 0.20)
	if len(warns) != 1 || !strings.HasPrefix(warns[0], "B:") {
		t.Fatalf("warns = %v, want exactly one for B", warns)
	}
	if !strings.Contains(warns[0], "30% slower") {
		t.Errorf("warn = %q, want 30%% slower", warns[0])
	}
}

func TestRecordThenCheckRoundTrip(t *testing.T) {
	file := filepath.Join(t.TempDir(), "BENCH_PR.json")

	var out strings.Builder
	if err := run("record", file, "seed", 0.20, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "recorded 3 benchmarks") {
		t.Errorf("record output = %q", out.String())
	}

	// Unchanged numbers: clean check.
	out.Reset()
	if err := run("check", file, "", 0.20, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no regression") {
		t.Errorf("clean check output = %q", out.String())
	}

	// A 2x slowdown on one benchmark: warned, but not an error (warn-only).
	slower := strings.Replace(sampleBench, "265.3 ns/op", "530.6 ns/op", 1)
	out.Reset()
	if err := run("check", file, "", 0.20, strings.NewReader(slower), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WARNING") || !strings.Contains(out.String(), "E3_MROMFixedMethod") {
		t.Errorf("regressed check output = %q", out.String())
	}

	// Second record appends rather than overwrites.
	if err := run("record", file, "second", 0.20, strings.NewReader(slower), &out); err != nil {
		t.Fatal(err)
	}
	h, err := loadHistory(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) != 2 || h.Records[0].Label != "seed" || h.Records[1].Label != "second" {
		t.Fatalf("history = %+v", h.Records)
	}
}

func TestCheckWithoutBaseline(t *testing.T) {
	file := filepath.Join(t.TempDir(), "BENCH_PR.json")
	var out strings.Builder
	if err := run("check", file, "", 0.20, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no baseline") {
		t.Errorf("output = %q", out.String())
	}
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Error("check mode created the history file")
	}
}

// TestFailedRunIsAnError: the Makefile pipes go test into benchguard, so go
// test's exit status is lost; a run that failed part-way must fail the
// check and must not be recorded as the next baseline.
func TestFailedRunIsAnError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "BENCH_PR.json")
	var out strings.Builder
	if err := run("record", file, "seed", 0.20, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	passing := strings.TrimSuffix(sampleBench, "PASS\nok  \trepro\t3.511s\n")
	for name, tail := range map[string]string{
		"b.Fatal":      "--- FAIL: BenchmarkE8_QueryDuringUpdates\n    bench_test.go:417: hard failures must never happen\nFAIL\nexit status 1\nFAIL\trepro\t1.2s\n",
		"sub-bench":    "    --- FAIL: BenchmarkE15_BootstrapRecovery/slots=100\n",
		"panic":        "panic: runtime error: index out of range [recovered]\n",
		"build failed": "FAIL\trepro [build failed]\n",
		"bare FAIL":    "FAIL\n",
	} {
		for _, mode := range []string{"check", "record"} {
			err := run(mode, file, "partial", 0.20, strings.NewReader(passing+tail), &out)
			if !errors.Is(err, errBenchFailed) {
				t.Errorf("%s, -mode %s: err = %v, want errBenchFailed", name, mode, err)
			}
		}
	}
	if after, err := os.ReadFile(file); err != nil || string(after) != string(before) {
		t.Errorf("a failed run changed the history file (err %v):\n%s", err, after)
	}
	// A benchmark whose name merely contains the word is not a failure.
	ok := "BenchmarkAblation_FAILover-8  1000  150.0 ns/op\nPASS\n"
	if err := run("check", file, "", 0.20, strings.NewReader(ok), &out); err != nil {
		t.Errorf("passing run rejected: %v", err)
	}
}
