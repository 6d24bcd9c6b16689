package repro

// The parallel benchmark tier (DESIGN.md §11): invocation throughput under
// concurrency, swept over P goroutines and container population. Where
// bench_test.go measures single-caller latency, these measure what the
// lock-free Home container buys — many clients resolving and invoking at
// once must not serialize behind one container lock.
//
// P is swept by setting GOMAXPROCS before b.RunParallel (RunParallel
// spawns GOMAXPROCS workers). On a single-core machine the sweep measures
// oversubscription — lock hand-off cost, not parallel speedup; the P>1
// numbers show what contention *costs*, and multi-core speedup claims must
// come from a multi-core run. The 1e6-object tier is skipped under -short
// (its site takes seconds to populate); `make bench-parallel` runs the
// full sweep and records it in BENCH_PR.json.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/security"
	"repro/internal/value"
)

// pSweep is the goroutine counts the tier sweeps. NumCPU is included even
// when it falls inside the fixed ladder so multi-core machines always
// measure their full width.
func pSweep() []int {
	ps := []int{1, 2, 4, 8}
	n := runtime.NumCPU()
	for _, p := range ps {
		if p == n {
			return ps
		}
	}
	return append(ps, n)
}

// populations is the resident-object sweep: 1e2, 1e4, and (full runs only)
// 1e6. Resolving a name costs more as the container deepens (DESIGN.md
// §16 g); the sweep is where that shows.
func populations(b *testing.B) []int {
	if testing.Short() {
		return []int{100, 10_000}
	}
	return []int{100, 10_000, 1_000_000}
}

// runAtP runs one RunParallel benchmark at p workers, restoring
// GOMAXPROCS afterwards.
func runAtP(b *testing.B, p int, body func(pb *testing.PB)) {
	b.Helper()
	prev := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(prev)
	b.ResetTimer()
	b.RunParallel(body)
}

// BenchmarkP_LocalDispatch: concurrent clients resolving and invoking
// resident APOs at one site — the pure ResolveObject → Invoke path,
// spread across the name space.
func BenchmarkP_LocalDispatch(b *testing.B) {
	for _, objs := range populations(b) {
		b.Run(fmt.Sprintf("objs=%d", objs), func(b *testing.B) {
			_, origin, names, cleanup, err := experiments.LoadedSites(objs, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer cleanup()
			caller := origin.IOO().Principal()
			arg := value.NewInt(1)
			var next atomic.Uint64
			for _, p := range pSweep() {
				b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
					runAtP(b, p, func(pb *testing.PB) {
						// Each worker walks the name space from its own
						// offset so concurrent workers hit different names.
						i := int(next.Add(9973))
						for pb.Next() {
							obj, err := origin.ResolveObject(names[i%len(names)])
							if err != nil {
								b.Error(err)
								return
							}
							if _, err := obj.Invoke(caller, "work", arg); err != nil {
								b.Error(err)
								return
							}
							i++
						}
					})
				})
			}
		})
	}
}

// BenchmarkP_RemoteInvoke: concurrent clients at the host driving
// hadas.invoke over the in-process transport against the origin's
// residents — the full handleInvoke fast path (peer auth, resolve,
// dispatch) under parallel load.
func BenchmarkP_RemoteInvoke(b *testing.B) {
	for _, objs := range populations(b) {
		b.Run(fmt.Sprintf("objs=%d", objs), func(b *testing.B) {
			host, _, names, cleanup, err := experiments.LoadedSites(objs, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer cleanup()
			client := security.Principal{Object: host.Generator().New(), Domain: host.Domain()}
			arg := value.NewInt(1)
			var next atomic.Uint64
			for _, p := range pSweep() {
				b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
					runAtP(b, p, func(pb *testing.PB) {
						i := int(next.Add(9973))
						for pb.Next() {
							if _, err := host.InvokeRemote("bench-origin", client,
								names[i%len(names)], "work", arg); err != nil {
								b.Error(err)
								return
							}
							i++
						}
					})
				})
			}
		})
	}
}

// BenchmarkP_ContendedDispatch: P distinct callers hammering ONE object,
// alternating between two methods so every call misses the monomorphic L1
// and is served from the object's shared decision table. Before the table
// moved behind an atomic pointer this path serialized every reader on the
// object's cache RWMutex; this tier pins the contention profile of the
// lock-free read path.
func BenchmarkP_ContendedDispatch(b *testing.B) {
	obj := experiments.BenchObject(4, 4)
	arg := value.NewInt(1)
	for _, p := range pSweep() {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			runAtP(b, p, func(pb *testing.PB) {
				// Each worker is its own principal, so the table serves P
				// distinct caller × method keys concurrently.
				caller := security.Principal{Object: experiments.Gen.New(), Domain: "bench"}
				toggle := false
				for pb.Next() {
					name := "work"
					if toggle {
						name = "workExt"
					}
					toggle = !toggle
					if _, err := obj.Invoke(caller, name, arg); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkP_CoalescedRemoteInvoke: concurrent clients sharing ONE real
// TCP connection to a peer site. Every worker's request frame funnels
// through the connection's writer goroutine, so this tier measures what
// write coalescing buys: concurrent small frames batch into single
// socket writes instead of serializing on a per-call write lock.
func BenchmarkP_CoalescedRemoteInvoke(b *testing.B) {
	origin, peers, cleanup, err := experiments.FanOutSites(1)
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	peer := peers[0]
	client := security.Principal{Object: origin.Generator().New(), Domain: origin.Domain()}
	arg := value.NewString("bob")
	if _, err := origin.InvokeRemote(peer, client, "payroll", "salaryOf", arg); err != nil {
		b.Fatal(err)
	}
	for _, p := range pSweep() {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			runAtP(b, p, func(pb *testing.PB) {
				for pb.Next() {
					if _, err := origin.InvokeRemote(peer, client, "payroll", "salaryOf", arg); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// churnPeriod is how many invocations each mixed-tier worker performs
// between agent hops.
const churnPeriod = 128

// BenchmarkP_MixedChurn: invocation traffic with migration churn riding on
// it — every worker owns one agent it bounces between the sites every
// churnPeriod invocations, so arrivals and departures mutate the Home
// container while the invoke path reads it.
func BenchmarkP_MixedChurn(b *testing.B) {
	for _, objs := range populations(b) {
		b.Run(fmt.Sprintf("objs=%d", objs), func(b *testing.B) {
			const agents = 16 // ≥ max worker count of the sweep
			host, origin, names, cleanup, err := experiments.LoadedSites(objs, agents)
			if err != nil {
				b.Fatal(err)
			}
			defer cleanup()
			caller := origin.IOO().Principal()
			arg := value.NewInt(1)
			var next atomic.Uint64
			var agentSeq atomic.Uint64
			for _, p := range pSweep() {
				if p > agents {
					continue
				}
				b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
					runAtP(b, p, func(pb *testing.PB) {
						agent := experiments.ChurnAgentName(int(agentSeq.Add(1)-1) % agents)
						// The agent may sit at either site from a previous
						// sub-benchmark; find it.
						at, back := origin, host
						if _, err := origin.APO(agent); err != nil {
							at, back = host, origin
						}
						i := int(next.Add(9973))
						for pb.Next() {
							if i%churnPeriod == 0 {
								if _, err := at.DispatchAgent(agent, back.Name()); err != nil {
									b.Error(err)
									return
								}
								at, back = back, at
							} else {
								obj, err := origin.ResolveObject(names[i%len(names)])
								if err != nil {
									b.Error(err)
									return
								}
								if _, err := obj.Invoke(caller, "work", arg); err != nil {
									b.Error(err)
									return
								}
							}
							i++
						}
					})
				})
			}
		})
	}
}
