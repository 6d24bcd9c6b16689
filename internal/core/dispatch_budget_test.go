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

// TestDispatchCacheFootprint bounds the dispatch state one object holds
// once 8 callers have each made every read twice: its snapshots, and its
// share of the policy's verdicts — the 8 on its own 17-entry ACL, and the
// ones every object's empty ACLs share. It reads 3.9 KB; a table of
// decisions per object held 17.8 KB here.
func TestDispatchCacheFootprint(t *testing.T) {
	const objects, budget = 4096, 4_500
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
// allocates: a table, a method snapshot, a verdict and their map cells
// (640 B in 8 allocations; 832 B in 9 with a table of decisions per
// object). It enters at dispatchBase with a frame of its own, because under
// the race detector the frame pool drops a share of its frames and a
// budget of single bytes cannot absorb that.
func TestColdFillBudget(t *testing.T) {
	const calls, maxBytes, maxMallocs = 2000, 656, 8
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

// TestVerdictTableChurn: 10^5 distinct callers on one object ask 3×10^5
// questions, past security.MaxVerdicts. The policy's table never holds more
// than its bound, and every verdict, served cold or remembered, is right.
func TestVerdictTableChurn(t *testing.T) {
	const callers = 100_000
	pol := security.NewPolicy()
	pol.GradeDomain("friends", security.Trusted)
	obj := reflectObject(pol, nil, 0) // guarded lets "elsewhere" in, nobody else
	zero := value.NewInt(0)
	// friends pass on the policy, elsewhere only through guarded's ACL.
	check := func(c security.Principal) {
		t.Helper()
		friend := c.Domain == "friends"
		if _, err := obj.Invoke(c, "work", zero); (err == nil) != friend {
			t.Fatalf("%v: work = %v", c, err)
		}
		if _, err := obj.Invoke(c, "guarded", zero); err != nil {
			t.Fatalf("%v: guarded = %v", c, err)
		}
		if _, err := obj.Get(c, "n"); (err == nil) != friend {
			t.Fatalf("%v: get n = %v", c, err)
		}
	}
	seen := make([]security.Principal, callers)
	dropped := false
	for i := range seen {
		seen[i] = callerFor([]string{"friends", "elsewhere"}[i%2])
		before := pol.Verdicts()
		check(seen[i])
		if n := pol.Verdicts(); n > security.MaxVerdicts {
			t.Fatalf("caller %d: the table holds %d verdicts, bound %d", i, n, security.MaxVerdicts)
		} else if n < before {
			dropped = true
		}
	}
	if !dropped {
		t.Fatalf("%d questions never reached the bound of %d", 3*callers, security.MaxVerdicts)
	}
	for _, c := range append(seen[:1000:1000], seen[callers-1000:]...) {
		check(c) // the first callers' verdicts were dropped, the last ones' are remembered
	}
}
