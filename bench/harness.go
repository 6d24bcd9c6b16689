package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runConfig is one invocation's knobs.
type runConfig struct {
	seed     int64
	seconds  float64 // measured section
	warm     float64 // warm-up before it
	episodes int     // fresh topologies per rep; setup_s is the median of their set-ups
	quick    bool    // populations cut to quickPop
	workDir  string  // parent of per-rep store directories
}

// repResult is one repetition of one workload.
type repResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Correct   bool               `json:"correct"`
	Error     string             `json:"error,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Slices    []sliceStat        `json:"slices,omitempty"`
	SetupS    []float64          `json:"setup_s_each,omitempty"`
}

// note keeps the first thing that went wrong in a repetition.
func (r *repResult) note(err error) {
	if err != nil && r.Error == "" {
		r.Error = err.Error()
	}
}

// fold adds a timed section's ops and failures to the repetition.
func (r *repResult) fold(m *measured) *measured {
	r.Attempted += m.attempted
	r.Failed += m.failed
	r.note(m.err)
	return m
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// client is one closed-loop caller. ops is read by the sampling goroutine
// while the client runs; everything else is the client's own until it is
// joined. Padded so two clients' counters never share a cache line.
type client struct {
	rng    *rand.Rand
	ops    atomic.Int64
	failed int64
	err    error
	hists  []hist // one per slice
	_      [64]byte
}

func newClients(n int, seed int64) []*client {
	cs := make([]*client, n)
	for c := range cs {
		cs[c] = &client{rng: rand.New(rand.NewSource(seed*7919 + int64(c)))}
	}
	return cs
}

// sample is the process's counters at one instant.
type sample struct {
	at             time.Time
	ops            int64
	cpu            time.Duration
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
}

func takeSample(cs []*client, ms *runtime.MemStats) sample {
	s := sample{at: time.Now()}
	for _, c := range cs {
		s.ops += c.ops.Load()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(ms)
	s.mallocs, s.bytes = ms.Mallocs, ms.TotalAlloc
	s.gcCycles, s.gcPauseNs = ms.NumGC, ms.PauseTotalNs
	return s
}

// sliceStat is one slice of a measured section. A metric's value for the
// rep is the median over slices, so a noisy-neighbour second costs one
// slice rather than shifting the whole rep.
type sliceStat struct {
	Seconds   float64 `json:"seconds"`
	Ops       int64   `json:"ops"`
	OpsPerSec float64 `json:"throughput_ops_s"`
	P50Us     float64 `json:"latency_p50_us"`
	CPUUs     float64 `json:"cpu_us_per_op"`
	Allocs    float64 `json:"allocs_per_op"`
	Bytes     float64 `json:"alloc_bytes_per_op"`
}

// measured is what one timed section yields.
type measured struct {
	slices            []sliceStat
	all               hist // every op of the section
	attempted, failed int64
	err               error // first op failure
	first, last       sample
}

// runLoad drives w with the given clients for dur, split into nslices
// equal slices. Clients are closed loops: each issues its next op when the
// previous one returns, and an op's latency runs from that return.
func runLoad(w workload, cs []*client, dur time.Duration, nslices int) *measured {
	for _, c := range cs {
		c.hists = make([]hist, nslices)
		c.failed, c.err = 0, nil
		c.ops.Store(0)
	}
	samples := make([]sample, nslices+1)
	var (
		ms    runtime.MemStats
		stop  atomic.Bool
		wg    sync.WaitGroup
		gate  = make(chan struct{})
		start time.Time
	)
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			<-gate
			prev := start
			for !stop.Load() {
				err := w.op(ci, c.rng)
				now := time.Now()
				k := int(now.Sub(start) * time.Duration(nslices) / dur)
				c.hists[min(k, nslices-1)].record(int64(now.Sub(prev)))
				prev = now
				if err != nil {
					c.failed++
					if c.err == nil {
						c.err = err
					}
				}
				c.ops.Add(1)
			}
		}(ci, c)
	}
	samples[0] = takeSample(cs, &ms)
	start = samples[0].at
	close(gate)
	for k := 1; k <= nslices; k++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(k) / time.Duration(nslices))))
		samples[k] = takeSample(cs, &ms)
	}
	stop.Store(true)
	wg.Wait()

	m := &measured{first: samples[0], last: samples[nslices]}
	for k := 1; k <= nslices; k++ {
		a, b := samples[k-1], samples[k]
		var h hist
		for _, c := range cs {
			h.merge(&c.hists[k-1])
		}
		m.all.merge(&h)
		ops := b.ops - a.ops
		if ops == 0 {
			continue
		}
		secs := b.at.Sub(a.at).Seconds()
		m.slices = append(m.slices, sliceStat{
			Seconds:   secs,
			Ops:       ops,
			OpsPerSec: float64(ops) / secs,
			P50Us:     h.quantile(0.5) / 1e3,
			CPUUs:     float64(b.cpu-a.cpu) / 1e3 / float64(ops),
			Allocs:    float64(b.mallocs-a.mallocs) / float64(ops),
			Bytes:     float64(b.bytes-a.bytes) / float64(ops),
		})
	}
	for _, c := range cs {
		m.attempted += c.ops.Load()
		m.failed += c.failed
		if m.err == nil {
			m.err = c.err
		}
	}
	return m
}

func (m *measured) median(f func(sliceStat) float64) float64 {
	xs := make([]float64, len(m.slices))
	for i, s := range m.slices {
		xs[i] = f(s)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is how the
// spread of a metric is judged against its bound.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// topology is a workload set up and ready, with what building it cost.
type topology struct {
	w       workload
	e       *env
	dir     string
	seconds float64
}

func (t *topology) close() {
	t.w.close()
	os.RemoveAll(t.dir)
}

// build sets a workload up once: from "start building the topology" to
// "first verified op", which is what setup_s times.
func build(sp spec, cfg runConfig, tr *tracer, first *client) (*topology, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, sp.name+"-")
	if err != nil {
		return nil, err
	}
	t := &topology{w: sp.new(), e: &env{seed: cfg.seed, quick: cfg.quick, workDir: dir, tr: tr}, dir: dir}
	runtime.GC() // every timed set-up starts from a collected heap
	start := time.Now()
	if err := t.w.setup(t.e); err != nil {
		t.close()
		return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	if err := t.w.op(0, first.rng); err != nil {
		t.close()
		return nil, fmt.Errorf("%s: first op: %w", sp.name, err)
	}
	t.seconds = time.Since(start).Seconds()
	if err := t.w.prefill(); err != nil {
		t.close()
		return nil, fmt.Errorf("%s: prefill: %w", sp.name, err)
	}
	return t, nil
}

// runRep is one untraced repetition. It is made of cfg.episodes episodes,
// each a fresh topology: timed set-up, warm-up, forced GC, an equal share
// of the measured section, the end-state check. A metric's value is the
// median over the slices (or episodes) of all of them. Which goroutine
// lands on which P, and where the heap puts the population, is settled
// when a topology is built and then sticks, so one topology measured for
// longer repeats its own luck; several give the median something to reject.
func runRep(sp spec, cfg runConfig) (*repResult, error) {
	cs := newClients(sp.clients, cfg.seed)
	res := &repResult{Workload: sp.name, Seed: cfg.seed}
	share := seconds(cfg.seconds / float64(cfg.episodes))
	nslices := max(3, int(share.Seconds()+0.5))
	var heaps []float64
	for i := 0; i < cfg.episodes; i++ {
		top, err := build(sp, cfg, nil, cs[0])
		if err != nil {
			return nil, err
		}
		res.Attempted++ // the set-up's first op
		res.fold(runLoad(top.w, cs, seconds(cfg.warm), 1))
		runtime.GC()
		m := res.fold(runLoad(top.w, cs, share, nslices))

		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms) // topology still alive: population plus what the caches kept
		heaps = append(heaps, float64(ms.HeapAlloc)/(1<<20))
		if err := top.w.check(); err != nil {
			res.note(fmt.Errorf("end state: %w", err))
		}
		top.close()

		res.SetupS = append(res.SetupS, top.seconds)
		res.Slices = append(res.Slices, m.slices...)
	}
	all := measured{slices: res.Slices}
	res.Metrics = map[string]float64{
		"throughput_ops_s":   all.median(func(s sliceStat) float64 { return s.OpsPerSec }),
		"latency_p50_us":     all.median(func(s sliceStat) float64 { return s.P50Us }),
		"cpu_us_per_op":      all.median(func(s sliceStat) float64 { return s.CPUUs }),
		"allocs_per_op":      all.median(func(s sliceStat) float64 { return s.Allocs }),
		"alloc_bytes_per_op": all.median(func(s sliceStat) float64 { return s.Bytes }),
		"heap_live_mb":       median(heaps),
		"setup_s":            median(res.SetupS),
	}
	res.Correct = res.Failed == 0 && res.Error == ""
	return res, nil
}
