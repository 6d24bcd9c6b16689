package core

// The two budgets the repository benchmark enforces on the dispatch cache,
// as unit tests that fail in a second instead of after six workloads: the
// memory a warm object holds (local-reflect's heap_live_mb) and what a cold
// call allocates (local-mutate's alloc_bytes_per_op and allocs_per_op).

import (
	"runtime"
	"testing"

	"repro/internal/security"
	"repro/internal/value"
)

// reflectObject is the population member of the benchmark's local
// workloads: a fixed and an extensible native method, one behind a 17-entry
// ACL, a script method writing a data item, a shared policy and auditor.
func reflectObject(pol *security.Policy, aud *security.Auditor, i int) *Object {
	entries := make([]security.Entry, 0, 17)
	for k := 0; k < 16; k++ {
		entries = append(entries, security.DenyObject(gen.New())) // never matches a caller
	}
	entries = append(entries, security.AllowDomain("elsewhere"))
	echo := NewNativeBody("budget.echo", func(_ *Invocation, args []value.Value) (value.Value, error) {
		return argAt(args, 0), nil
	})
	b := NewBuilder(gen, "Reflective", WithPolicy(pol), WithAuditor(aud))
	b.FixedData("idx", value.NewInt(int64(i)))
	b.ExtData("n", value.NewInt(0))
	b.FixedMethod("work", echo)
	b.ExtMethod("workExt", echo)
	b.FixedMethod("guarded", echo, WithACL(security.NewACL(entries...)))
	b.FixedScriptMethod("bump", `fn(d) { self.n = self.n + d; return self.n; }`)
	return b.MustBuild()
}

// readSet is every read of local-reflect, made once by caller.
func readSet(t *testing.T, obj *Object, caller security.Principal) {
	t.Helper()
	zero := value.NewInt(0)
	for _, m := range []string{"work", "workExt", "guarded", "bump"} {
		if _, err := obj.Invoke(caller, m, zero); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := obj.Invoke(caller, "invoke", value.NewString("work"), value.NewListOf(zero)); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Get(caller, "n"); err != nil {
		t.Fatal(err)
	}
}

func liveHeap() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// TestDispatchCacheFootprint bounds the decision-cache state one object
// holds once 8 callers have each made every read twice (the second pass is
// the first warm hit, which builds the L1 references). Storing every
// decision a second time with its snapshot attached held 27.4 KB here.
func TestDispatchCacheFootprint(t *testing.T) {
	const objects, budget = 4096, 20_000
	pol, aud := allowAllPolicy(), security.NewAuditor(128)
	objs := make([]*Object, objects)
	for i := range objs {
		objs[i] = reflectObject(pol, aud, i)
	}
	callers := make([]security.Principal, 8)
	for i := range callers {
		callers[i] = callerFor("elsewhere")
	}
	before := liveHeap()
	for pass := 0; pass < 2; pass++ {
		for _, obj := range objs {
			for _, c := range callers {
				readSet(t, obj, c)
			}
		}
	}
	perObject := (liveHeap() - before) / objects
	runtime.KeepAlive(objs)
	t.Logf("decision-cache state per object: %.1f KB", perObject/1000)
	if perObject > budget {
		t.Errorf("a warm object holds %.0f B of dispatch-cache state, budget %d B", perObject, budget)
	}
}

// TestColdFillBudget bounds what the first dispatch after a flush
// allocates: a table, a method snapshot, a decision entry and their map
// cells. It enters at dispatchBase with a frame of its own, because under
// the race detector the frame pool drops a share of its frames and a
// budget of single bytes cannot absorb that.
func TestColdFillBudget(t *testing.T) {
	const calls, maxBytes, maxMallocs = 2000, 848, 9
	obj := reflectObject(allowAllPolicy(), nil, 0)
	caller := callerFor("elsewhere")
	args := []value.Value{value.NewInt(1)}
	inv := new(Invocation)
	cold := func() {
		obj.FlushDispatchCache()
		*inv = Invocation{self: obj, caller: caller}
		if _, err := obj.dispatchBase(inv, "work", args); err != nil {
			t.Fatal(err)
		}
	}
	cold()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		cold()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / calls
	mallocs := float64(after.Mallocs-before.Mallocs) / calls
	t.Logf("cold dispatch: %.0f B, %.1f allocations", bytes, mallocs)
	if bytes > maxBytes+0.5 || mallocs > maxMallocs+0.5 {
		t.Errorf("a cold dispatch allocates %.0f B in %.1f allocations, budget %d B in %d", bytes, mallocs, maxBytes, maxMallocs)
	}
}
