package repro

// Allocation-freedom assertions for the warm invocation paths. The pooled
// invocation frames and per-entry cache validation are supposed to make a
// repeat invocation allocate nothing at all; testing.AllocsPerRun pins
// that in plain `go test`, so a reintroduced allocation fails tier-1
// instead of only nudging a benchmark number.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hadas"
	"repro/internal/security"
	"repro/internal/value"
)

// raceBuild is set by race_test.go in a -race build.
var raceBuild bool

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
	// every call is served by the policy's verdict table.
	pair, turn := [2]security.Principal{caller, experiments.Stranger()}, 0
	alternate := func() {
		turn++
		if _, err := obj.Invoke(pair[turn%2], "work", arg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		alternate() // each caller's fill, then its first table hit
	}
	assertAllocFree(t, "alternating callers", alternate)

	// Eight callers rotating over a method and a data item of one object,
	// the shape of the repository benchmark's local-reflect: no call finds
	// its caller in the item's L1, so every one is served by the policy's
	// verdict table.
	var ring [8]security.Principal
	for i := range ring {
		ring[i] = experiments.Stranger()
	}
	name := value.NewString("f0001")
	// One call per run, like every shape here: under -race the frame pool
	// drops some frames, and two calls a run would round that up to one.
	rotate := func() {
		turn++
		method, args := "work", []value.Value{arg}
		if turn%2 == 1 {
			method, args = "get", []value.Value{name}
		}
		if _, err := obj.Invoke(ring[turn/2%8], method, args...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		rotate() // each caller's fills
	}
	assertAllocFree(t, "8-principal rotation", rotate)

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

// A remote invocation over the in-process transport, which has no socket
// and no frame: the request and the reply are typed records, so what is
// left is the two payload copies the transport makes, the reply's encode
// buffer (the request's is pooled), and the strings and argument list the
// handler decodes. The call's deadline is the site's, shared by every call
// of its window. The bound is the measured count.
func TestRemoteInvokeAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under the race detector")
	}
	host, _, names, cleanup, err := experiments.LoadedSites(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	client := security.Principal{Object: host.Generator().New(), Domain: host.Domain()}
	arg := value.NewInt(1)
	call := func() {
		if _, err := host.InvokeRemote("bench-origin", client, names[0], "work", arg); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if n := testing.AllocsPerRun(200, call); n > 7 {
		t.Errorf("remote invoke: %v allocs/op, want <= 7", n)
	}
}

// The same round trip between two sites over loopback TCP, echoing its
// argument. What is left per call: the payload the frame reader reads on
// each end, the reply's encode buffer, the target and method strings and
// the argument list the handler decodes and the request's context on the
// server. The call record, the deadline, the request buffer, a repeated
// verb and the server's handler goroutine are reused. The least of several
// runs, because a run that meets a collection refills a pool; the bound
// is the measured count.
func TestRemoteInvokeAllocsTCP(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under the race detector")
	}
	site := func(name string) *hadas.Site {
		s, err := hadas.NewSite(hadas.Config{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	origin, host := site("origin"), site("host")
	origin.Behaviors().Register("echo", func(_ *core.Invocation, args []value.Value) (value.Value, error) {
		return args[0], nil
	})
	echo, err := origin.Behaviors().Lookup("echo")
	if err != nil {
		t.Fatal(err)
	}
	b := origin.NewAPOBuilder("Echo")
	b.FixedMethod("work", echo)
	if err := origin.AddAPO("echo", b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	addr, err := origin.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := host.Link(addr); err != nil {
		t.Fatal(err)
	}
	client := security.Principal{Object: host.Generator().New(), Domain: host.Domain()}
	arg := value.NewInt(7)
	call := func() {
		v, err := host.InvokeRemote("origin", client, "echo", "work", arg)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := v.Int(); n != 7 {
			t.Fatalf("echo = %v, want 7", v)
		}
	}
	call()
	least := testing.AllocsPerRun(100, call)
	for i := 0; i < 4; i++ {
		least = min(least, testing.AllocsPerRun(100, call))
	}
	if least > 8 {
		t.Errorf("remote invoke over tcp: %v allocs/op, want <= 8", least)
	}
}

// An interpreted body runs on slot frames and an operand stack the pooled
// interpreter owns: scopes, loop turns, calls and builtin calls allocate
// nothing, and a host binding is built only for a body that mentions it.
func TestScriptBodyAllocations(t *testing.T) {
	caller := experiments.Stranger()
	warm := func(obj *core.Object, method string, arg value.Value) float64 {
		t.Helper()
		call := func() {
			if _, err := obj.Invoke(caller, method, arg); err != nil {
				t.Fatal(err)
			}
		}
		// The least of many single runs: under the race detector
		// sync.Pool drops a quarter of what it is handed, and a run that
		// has to rebuild the pooled interpreter is not the warm path.
		least := testing.AllocsPerRun(1, call)
		for i := 0; i < 50; i++ {
			if n := testing.AllocsPerRun(1, call); n < least {
				least = n
			}
		}
		return least
	}
	script := func(src string) *core.Object {
		b := core.NewBuilder(experiments.Gen, "ScriptAllocs", core.WithPolicy(experiments.OpenPolicy()))
		b.FixedScriptMethod("work", src)
		return b.MustBuild()
	}
	one := value.NewInt(1)

	if n := warm(script(`fn(x) { return x; }`), "work", one); n > 5 {
		t.Errorf("identity body: %v allocs/op, want <= 5", n)
	}

	few, fewKeys := experiments.CatalogObject(64, 4)
	many, manyKeys := experiments.CatalogObject(64, 16)
	if a, b := warm(few, "quote", fewKeys), warm(many, "quote", manyKeys); a != b || a > 15 {
		t.Errorf("quote: %v allocs/op over 4 keys, %v over 16; want the same count, <= 15", a, b)
	}

	plain := warm(script(`fn(x) { let a = 0; let c = 0; return x; }`), "work", one)
	bound := warm(script(`fn(x) { let a = args; let c = ctx; return x; }`), "work", one)
	if plain >= bound {
		t.Errorf("a body without args and ctx allocates %v, one with both %v; want fewer", plain, bound)
	}
}
