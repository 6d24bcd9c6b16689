package chaos

import (
	"sort"
	"time"
)

// Report is one run's machine-readable outcome: the safety verdict for
// the invariant checker, and per-op availability and latency for the SLO
// gate. Schedule and Transcript are the determinism contract — two runs
// of the same seed and knobs must produce them byte-identically.
type Report struct {
	Seed   int64 `json:"seed"`
	Sites  int   `json:"sites"`
	Epochs int   `json:"epochs"`
	Agents int   `json:"agents"`

	Ops          int64            `json:"ops"`
	OKOps        int64            `json:"ok_ops"`
	Availability float64          `json:"availability"`
	OpClasses    map[string]int64 `json:"op_classes"`

	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`

	// DeadlocksInjected counts the cross-site admission cycles the run
	// deliberately formed; DeadlocksResolved the ones the edge-chasing
	// probes broke cleanly (exactly one ErrDeadlock victim, one
	// survivor). BackstopFirings counts ErrAdmissionTimeout anywhere in
	// the run — with the detector live it must be zero (the SLO gates it).
	DeadlocksInjected int64 `json:"deadlocks_injected"`
	DeadlocksResolved int64 `json:"deadlocks_resolved"`
	BackstopFirings   int64 `json:"backstop_firings"`

	Violations         []string `json:"violations"`
	OrphanedMigrations []string `json:"orphaned_migrations"`
	Passed             bool     `json:"passed"`

	ElapsedMs  float64  `json:"elapsed_ms"`
	Schedule   []string `json:"schedule"`
	Transcript []string `json:"transcript"`
}

func (h *harness) report(started time.Time, sched *schedule) *Report {
	r := &Report{
		Seed:               h.cfg.Seed,
		Sites:              h.cfg.Sites,
		Epochs:             h.cfg.Epochs,
		Agents:             h.cfg.Agents,
		OpClasses:          make(map[string]int64, len(h.classes)),
		Violations:         append([]string(nil), h.violations...),
		OrphanedMigrations: []string{},
		ElapsedMs:          float64(time.Since(started)) / float64(time.Millisecond),
		Schedule:           sched.render(),
		Transcript:         append([]string(nil), h.transcript...),
	}
	for class, n := range h.classes {
		r.OpClasses[class] = n
		r.Ops += n
	}
	r.OKOps = h.classes["ok"]
	r.DeadlocksInjected = h.dlocksInjected
	r.DeadlocksResolved = h.dlocksResolved
	r.BackstopFirings = h.classes["admission_timeout"]
	if r.Ops > 0 {
		r.Availability = float64(r.OKOps) / float64(r.Ops)
	}
	lats := append([]time.Duration(nil), h.lats...)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	r.P50Ms = percentileMs(lats, 0.50)
	r.P95Ms = percentileMs(lats, 0.95)
	r.P99Ms = percentileMs(lats, 0.99)
	for i, s := range h.sites {
		for _, info := range s.OrphanedMigrations() {
			r.OrphanedMigrations = append(r.OrphanedMigrations,
				h.names[i]+": "+info.Name+"→"+info.Dest+" ("+info.State+")")
		}
	}
	r.Passed = len(r.Violations) == 0
	return r
}

// percentileMs reads the q-quantile of an ascending latency slice, in
// milliseconds (nearest-rank on the lower side; 0 when empty).
func percentileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}
