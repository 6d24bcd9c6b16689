// Command bench is the repository's benchmark: six closed-loop workloads
// against real hadas.Sites, seven end-to-end metrics each, and a separate
// traced run that attributes an op's time to the layers under internal/.
// It calls only public functions of the packages it measures.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one repetition, JSON on the last line
//	bench [-reps R] [-seconds S] [-trace 1]            a set: every workload, R interleaved reps (default 7)
//	bench -agree RUN_A RUN_B                           do two sets agree within the bounds?
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	reps     int
	quick    bool
	agree    bool
	args     []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one repetition of this workload and print its result as JSON (default: a set of all workloads)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 12, "length of the measured section of one repetition")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
	flag.IntVar(&o.reps, "reps", 7, "repetitions of each workload in a set")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: populations cut to 256, one episode, short warm-up")
	flag.BoolVar(&o.agree, "agree", false, "compare the two run directories given as arguments against the bounds in BENCHMARK.json")
	flag.Parse()
	o.args = flag.Args()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.agree {
		if len(o.args) != 2 {
			return fmt.Errorf("-agree needs two run directories")
		}
		return agreeRuns(o.args[0], o.args[1])
	}
	if len(o.args) > 0 {
		return fmt.Errorf("unexpected arguments %q", o.args)
	}
	if o.seconds <= 0 || o.reps < 1 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("need -seconds > 0, -reps >= 1, -trace 0 or 1")
	}
	if err := checkProcs(); err != nil {
		return err
	}
	dir, err := benchDir()
	if err != nil {
		return err
	}
	work := filepath.Join(dir, ".work")
	workFS, err := onRealDisk(work)
	if err != nil {
		return err
	}
	defer os.Remove(work) // stays only while another run is using it

	cfg := runConfig{seed: o.seed, seconds: o.seconds, warm: 1, episodes: 3, quick: o.quick, workDir: work}
	if o.quick {
		cfg.warm, cfg.episodes = 0.1, 1
	}
	if o.workload != "" {
		sp, ok := findSpec(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(specNames(), ", "))
		}
		return runOne(sp, cfg, o.trace == 1)
	}
	return runSet(cfg, o.reps, o.trace == 1, filepath.Join(dir, "runs"), workFS)
}

// benchDir finds the benchmark's own directory from a checkout root or
// from inside it, so stores and run records never land anywhere else.
func benchDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module repro/bench\n") {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repository root or from bench/")
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return names
}

// result is the last line of output of a one-repetition invocation.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runEither makes the traced or the untraced run; only the traced one
// has a tracer to return.
func runEither(sp spec, cfg runConfig, traced bool) (*repResult, *tracer, error) {
	if traced {
		return runTraced(sp, cfg)
	}
	res, err := runRep(sp, cfg)
	return res, nil, err
}

// runOne is what the driver invokes: one repetition of one workload.
func runOne(sp spec, cfg runConfig, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res, _, err := runEither(sp, cfg, traced)
	if err != nil {
		return err
	}
	if res.Error != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", sp.name, res.Error)
	}
	out := result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]valueUnit{}}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		fmt.Printf("%-14s %-34s %16.4f %s\n", sp.name, d.Name, v, d.Unit)
		out.Metrics[d.Name] = valueUnit{v, d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// ---- sets ----

// metricSummary is one workload × metric over the reps of a set.
type metricSummary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	IQRFrac float64   `json:"iqr_frac"` // (q3-q1)/median
	Reps    []float64 `json:"reps"`
}

type workloadSummary struct {
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Correct   bool                     `json:"correct"`
	Metrics   map[string]metricSummary `json:"metrics"`
}

// setResults is results.json (and, for a traced set, layers.json).
type setResults struct {
	Workloads map[string]*workloadSummary `json:"workloads"`
}

func summarize(defs []metricDef, reps map[string][]*repResult) setResults {
	out := setResults{Workloads: map[string]*workloadSummary{}}
	for name, rs := range reps {
		ws := &workloadSummary{Correct: true, Metrics: map[string]metricSummary{}}
		for _, r := range rs {
			ws.Attempted += r.Attempted
			ws.Failed += r.Failed
			ws.Correct = ws.Correct && r.Correct
		}
		for _, d := range defs {
			vals := make([]float64, len(rs))
			for i, r := range rs {
				vals[i] = r.Metrics[d.Name]
			}
			q1, q3 := quartiles(vals)
			s := metricSummary{Unit: d.Unit, Median: median(vals), Q1: q1, Q3: q3, Reps: vals}
			if s.Median != 0 {
				s.IQRFrac = (q3 - q1) / s.Median
			}
			ws.Metrics[d.Name] = s
		}
		out.Workloads[name] = ws
	}
	return out
}

// runSet runs every workload reps times, interleaved round-robin so that a
// noisy period costs one rep of each workload rather than all reps of one,
// and records the set under runs/<UTC timestamp>/.
func runSet(cfg runConfig, reps int, traced bool, runsDir, workFS string) error {
	if traced {
		reps = 1
	}
	out := filepath.Join(runsDir, time.Now().UTC().Format("20060102T150405Z"))
	if err := writeJSON(filepath.Join(out, "config.json"), newRunInfo(cfg, reps, traced, workFS)); err != nil {
		return err
	}
	defs, file := endToEnd, "results.json"
	if traced {
		defs, file = perLayer, "layers.json"
	}
	all := map[string][]*repResult{}
	for k := 0; k < reps; k++ {
		for _, sp := range specs {
			rcfg := cfg
			rcfg.seed = cfg.seed + int64(k) // same inputs for the same rep of every set
			res, tr, err := runEither(sp, rcfg, traced)
			if err == nil && tr != nil {
				err = writeJSON(filepath.Join(out, sp.name, "trace.json"), tr.spans)
			}
			if err != nil {
				return err
			}
			if err := writeJSON(filepath.Join(out, sp.name, fmt.Sprintf("rep%d.json", k+1)), res); err != nil {
				return err
			}
			all[sp.name] = append(all[sp.name], res)
			fmt.Fprintf(os.Stderr, "rep %d/%d %-14s ok=%v attempted=%d failed=%d %s\n",
				k+1, reps, sp.name, res.Correct, res.Attempted, res.Failed, res.Error)
		}
	}
	sum := summarize(defs, all)
	if err := writeJSON(filepath.Join(out, file), sum); err != nil {
		return err
	}
	printSet(defs, sum)
	fmt.Println("recorded in", out)
	for _, ws := range sum.Workloads {
		if !ws.Correct {
			return fmt.Errorf("at least one workload failed ops or its end-state check (see above)")
		}
	}
	return nil
}

func printSet(defs []metricDef, sum setResults) {
	fmt.Printf("%-14s %-34s %16s %-6s %8s  %s\n", "workload", "metric", "median", "unit", "iqr/med", "failed/attempted")
	for _, sp := range specs {
		ws := sum.Workloads[sp.name]
		for _, d := range defs {
			m := ws.Metrics[d.Name]
			fmt.Printf("%-14s %-34s %16.4f %-6s %7.2f%%  %d/%d\n", sp.name, d.Name, m.Median, m.Unit, 100*m.IQRFrac, ws.Failed, ws.Attempted)
		}
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
