package repro

// Allocation-freedom assertions for the warm invocation paths. The pooled
// invocation frames and per-entry cache validation are supposed to make a
// repeat invocation allocate nothing at all; testing.AllocsPerRun pins
// that in plain `go test`, so a reintroduced allocation fails tier-1
// instead of only nudging a benchmark number.

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/security"
	"repro/internal/value"
)

func assertAllocFree(t *testing.T, what string, f func()) {
	t.Helper()
	f() // fill the dispatch cache before measuring
	if n := testing.AllocsPerRun(200, f); n != 0 {
		t.Errorf("%s: %v allocs/op on the warm path, want 0", what, n)
	}
}

func TestWarmInvocationPathsAllocFree(t *testing.T) {
	arg := value.NewInt(1)

	obj := experiments.BenchObject(4, 4)
	caller := experiments.Stranger()
	assertAllocFree(t, "fixed method", func() {
		if _, err := obj.Invoke(caller, "work", arg); err != nil {
			t.Fatal(err)
		}
	})
	assertAllocFree(t, "extensible method", func() {
		if _, err := obj.Invoke(caller, "workExt", arg); err != nil {
			t.Fatal(err)
		}
	})
	assertAllocFree(t, "warm get", func() {
		if _, err := obj.Get(caller, "f0001"); err != nil {
			t.Fatal(err)
		}
	})
	assertAllocFree(t, "self invocation", func() {
		if _, err := obj.InvokeSelf("work", arg); err != nil {
			t.Fatal(err)
		}
	})

	// Two callers alternating on one object never hit the one-entry L1:
	// every call is a table hit that republishes the entry's reference.
	pair, turn := [2]security.Principal{caller, experiments.Stranger()}, 0
	alternate := func() {
		turn++
		if _, err := obj.Invoke(pair[turn%2], "work", arg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		alternate() // each caller's fill, then the hit that builds its reference
	}
	assertAllocFree(t, "alternating callers", alternate)

	aclCaller := experiments.Stranger()
	aclObj := experiments.ACLObject(1024, security.AllowObject(aclCaller.Object))
	assertAllocFree(t, "warm ACL allow", func() {
		if _, err := aclObj.Invoke(aclCaller, "work", arg); err != nil {
			t.Fatal(err)
		}
	})

	denyObj := experiments.ACLObject(0, security.DenyAll())
	denyCaller := experiments.Stranger()
	assertAllocFree(t, "warm denial", func() {
		if _, err := denyObj.Invoke(denyCaller, "work", arg); err == nil {
			t.Fatal("denied call succeeded")
		}
	})
}
