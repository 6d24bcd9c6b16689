// benchguard tracks benchmark results across PRs and flags regressions.
//
// It reads `go test -bench` output on stdin and runs in one of two modes:
//
//	record — append a snapshot of the parsed ns/op numbers to the history
//	         file (BENCH_PR.json), labeled with -label (default: the
//	         current git revision if available, else "local").
//	check  — compare the parsed numbers against the most recent snapshot.
//	         A benchmark slower by more than -threshold (default 20%) is
//	         a warning only: ns/op is noisy on shared machines and must
//	         not block merges. A benchmark allocating more per op than
//	         recorded fails the check (exit status 1) — record a new
//	         snapshot if the increase is intended — unless the increase
//	         is within the resolution of a non-zero count (see
//	         allocRegressions), which is a warning too.
//
// In both modes a benchmark run that failed — a FAIL, --- FAIL, panic: or
// [build failed] line on stdin — is an error, and record writes nothing:
// the pipe hides go test's exit status, and a partial run must neither
// pass the gate nor become the next baseline.
//
// Usage:
//
//	go test -run='^$' -bench='E3|E5' . | benchguard -mode record
//	go test -run='^$' -bench='E3|E5' . | benchguard -mode check
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// snapshot is one recorded benchmark run. The allocation maps are present
// only for runs recorded with -benchmem output (older snapshots omit them,
// and checks against such a baseline skip the allocation comparison).
type snapshot struct {
	Label    string             `json:"label"`
	When     string             `json:"when"`
	NsOp     map[string]float64 `json:"ns_op"`
	AllocsOp map[string]float64 `json:"allocs_op,omitempty"`
	BytesOp  map[string]float64 `json:"bytes_op,omitempty"`
}

// history is the on-disk format of BENCH_PR.json.
type history struct {
	Records []snapshot `json:"records"`
}

// benchRun holds the numbers parsed from one `go test -bench` output:
// ns/op always, allocs/op and B/op when the run used -benchmem.
type benchRun struct {
	ns     map[string]float64
	allocs map[string]float64
	bytes  map[string]float64
}

// parseBench extracts per-benchmark numbers from `go test -bench` output.
// Lines look like:
//
//	BenchmarkE3_DirectGoCall-8   1000000000   0.25 ns/op   48 B/op   2 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so records compare across machines.
// A benchmark appearing more than once (`-count=N`) keeps the minimum of
// each metric — the repetition least disturbed by scheduler noise.
//
// A line go test prints only for a failed run (a build failure, a b.Fatal,
// a panic, a timeout) makes the whole input errBenchFailed.
func parseBench(r io.Reader) (benchRun, error) {
	run := benchRun{
		ns:     make(map[string]float64),
		allocs: make(map[string]float64),
		bytes:  make(map[string]float64),
	}
	keepMin := func(m map[string]float64, name string, v float64) {
		if prev, seen := m[name]; !seen || v < prev {
			m[name] = v
		}
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "FAIL" || strings.HasPrefix(line, "FAIL\t") || strings.HasPrefix(line, "--- FAIL") ||
			strings.HasPrefix(line, "panic:") || strings.Contains(line, "[build failed]") {
			return run, fmt.Errorf("%w: %q", errBenchFailed, line)
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 2; i+1 < len(fields); i++ {
			var m map[string]float64
			switch fields[i+1] {
			case "ns/op":
				m = run.ns
			case "B/op":
				m = run.bytes
			case "allocs/op":
				m = run.allocs
			default:
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return run, fmt.Errorf("benchmark %s: bad %s %q", name, fields[i+1], fields[i])
			}
			keepMin(m, name, v)
			i++
		}
	}
	return run, sc.Err()
}

// regressions compares a run against a baseline: benchmarks slower by more
// than threshold (0.20 = 20%) are returned as warning strings, sorted.
// Benchmarks present on only one side are ignored — adding or retiring a
// benchmark is not a regression.
func regressions(base, cur map[string]float64, threshold float64) []string {
	var warns []string
	for name, now := range cur {
		was, ok := base[name]
		if !ok || was <= 0 {
			continue
		}
		if ratio := now / was; ratio > 1+threshold {
			warns = append(warns, fmt.Sprintf(
				"%s: %.4g ns/op vs %.4g recorded (%.0f%% slower)",
				name, now, was, (ratio-1)*100))
		}
	}
	sort.Strings(warns)
	return warns
}

// errBenchFailed reports that the benchmark run on stdin did not complete.
var errBenchFailed = errors.New("benchguard: the benchmark run failed")

// errAllocRegression is check mode's failure: some benchmark allocates
// more per op than the recorded snapshot.
var errAllocRegression = errors.New("benchguard: allocs/op increased over the recorded snapshot")

// allocRegressions sorts the benchmarks allocating more per op than the
// baseline into failures and warnings. On the single-goroutine paths the
// count repeats exactly — most warm paths assert 0, and any increase from
// 0 fails. A non-zero count on a path with background goroutines and
// pools does not: go test prints the truncated mean, pool refills follow
// the GC, and between whole runs of one binary E14 at 8 sites reads 608 or
// 609 and E15 at 1e4 slots 10 119 to 10 121. An increase of one count, or
// of under 0.5 %, is therefore below what the number resolves: it is
// printed as a warning, and only a larger one fails.
func allocRegressions(base, cur map[string]float64) (fails, warns []string) {
	for name, now := range cur {
		was, ok := base[name]
		if !ok || now <= was {
			continue
		}
		msg := fmt.Sprintf("%s: %g allocs/op vs %g recorded", name, now, was)
		if was > 0 && now-was <= max(1, was/200) {
			warns = append(warns, msg)
		} else {
			fails = append(fails, msg)
		}
	}
	sort.Strings(fails)
	sort.Strings(warns)
	return fails, warns
}

func loadHistory(path string) (history, error) {
	var h history
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return h, nil
	}
	if err != nil {
		return h, err
	}
	if err := json.Unmarshal(raw, &h); err != nil {
		return h, fmt.Errorf("%s: %w", path, err)
	}
	return h, nil
}

func defaultLabel() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "local"
	}
	return strings.TrimSpace(string(out))
}

func run(mode, file, label string, threshold float64, in io.Reader, out io.Writer) error {
	cur, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(cur.ns) == 0 {
		fmt.Fprintln(out, "benchguard: no benchmark lines on stdin")
		return nil
	}
	h, err := loadHistory(file)
	if err != nil {
		return err
	}
	switch mode {
	case "record":
		if label == "" {
			label = defaultLabel()
		}
		snap := snapshot{
			Label: label,
			When:  time.Now().UTC().Format(time.RFC3339),
			NsOp:  cur.ns,
		}
		if len(cur.allocs) > 0 {
			snap.AllocsOp = cur.allocs
			snap.BytesOp = cur.bytes
		}
		h.Records = append(h.Records, snap)
		raw, err := json.MarshalIndent(h, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(file, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "benchguard: recorded %d benchmarks as %q (%d records in %s)\n",
			len(cur.ns), label, len(h.Records), file)
	case "check":
		if len(h.Records) == 0 {
			fmt.Fprintf(out, "benchguard: no baseline in %s; run `make bench-record` first\n", file)
			return nil
		}
		base := h.Records[len(h.Records)-1]
		fails, allocWarns := allocRegressions(base.AllocsOp, cur.allocs)
		warns := append(regressions(base.NsOp, cur.ns, threshold), allocWarns...)
		if len(warns)+len(fails) == 0 {
			fmt.Fprintf(out, "benchguard: no regression >%.0f%% vs %q\n", threshold*100, base.Label)
			return nil
		}
		fmt.Fprintf(out, "benchguard: WARNING — regressions vs %q (%s):\n", base.Label, base.When)
		for _, w := range warns {
			fmt.Fprintf(out, "  %s\n", w)
		}
		if len(fails) > 0 {
			fmt.Fprintln(out, "benchguard: FAIL — more allocations per op than recorded:")
			for _, f := range fails {
				fmt.Fprintf(out, "  %s\n", f)
			}
			return errAllocRegression
		}
	default:
		return fmt.Errorf("benchguard: unknown -mode %q (want record or check)", mode)
	}
	return nil
}

func main() {
	var (
		mode      = flag.String("mode", "check", "record (append snapshot) or check (warn on slowdowns, fail on allocation increases)")
		file      = flag.String("file", "BENCH_PR.json", "benchmark history file")
		label     = flag.String("label", "", "snapshot label for record mode (default: git revision)")
		threshold = flag.Float64("threshold", 0.20, "relative slowdown that triggers a warning")
	)
	flag.Parse()
	if err := run(*mode, *file, *label, *threshold, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
