package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// manifest is the part of BENCHMARK.json the harness reads back.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(benchDir string) (manifest, error) {
	var m manifest
	err := readJSON(filepath.Join(benchDir, "..", "BENCHMARK.json"), &m)
	return m, err
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// agreeRuns compares two sets of the same commit, workload by workload and
// metric by metric, against the bounds in BENCHMARK.json. A pair whose
// medians differ by more than the bound disagrees; a pair where either
// set's own inter-quartile range exceeds the bound is unresolved, because
// a bound narrower than the noise decides nothing.
func agreeRuns(dirA, dirB string) error {
	dir, err := benchDir()
	if err != nil {
		return err
	}
	man, err := readManifest(dir)
	if err != nil {
		return err
	}
	var a, b setResults
	if err := readJSON(filepath.Join(dirA, "results.json"), &a); err != nil {
		return err
	}
	if err := readJSON(filepath.Join(dirB, "results.json"), &b); err != nil {
		return err
	}
	fmt.Printf("%-14s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "diff", "bound", "verdict")
	disagree, unresolved := 0, 0
	for _, w := range man.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s is missing from one of the sets", w.Name)
		}
		for _, d := range man.EndToEnd {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			diff := (mb.Median - ma.Median) / ma.Median
			verdict := "agree"
			switch {
			case ma.IQRFrac > d.Bound || mb.IQRFrac > d.Bound:
				verdict = fmt.Sprintf("unresolved (iqr %.1f%% / %.1f%%)", 100*ma.IQRFrac, 100*mb.IQRFrac)
				unresolved++
			case math.Abs(diff) > d.Bound:
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Printf("%-14s %-20s %14.4f %14.4f %+7.2f%% %5.0f%%  %s\n", w.Name, d.Name, ma.Median, mb.Median, 100*diff, 100*d.Bound, verdict)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Printf("%-14s failed ops: %d of %d and %d of %d\n", w.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			disagree++
		}
	}
	fmt.Printf("%d disagree, %d unresolved\n", disagree, unresolved)
	if disagree > 0 {
		return fmt.Errorf("the two sets disagree on %d pairs", disagree)
	}
	return nil
}
