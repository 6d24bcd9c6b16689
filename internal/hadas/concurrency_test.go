package hadas

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/value"
)

// This file holds the regression tests for the lifecycle races the
// concurrent-Home work exposed (ISSUE 6) and the -race contention tests
// over the Home container. Each race has a deterministic reproduction —
// the tests failed before their fixes — plus a stress test that lets the
// race detector patrol the full surface.

// TestServeRefusedAfterClose: binding a listener on a closed site must
// fail with transport.ErrClosed and release the address. Before the fix,
// Serve stored the listener unconditionally: a Serve racing (or plainly
// following) Close left a live listener on a dead site, leaking its
// goroutine and keeping the address bound forever.
func TestServeRefusedAfterClose(t *testing.T) {
	net := transport.NewInProcNet()
	s, err := NewSite(Config{
		Name: "late",
		Dial: func(addr string) (transport.Conn, error) { return net.Dial(addr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.ServeInProc(net); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("serve after close = %v, want transport.ErrClosed", err)
	}
	// The refused listener was released: a successor site can take the name.
	s2 := newTestSite(t, net, "late")
	if s2.Name() != "late" {
		t.Fatalf("successor site = %q", s2.Name())
	}
}

// TestServeCloseRace races Serve against Close repeatedly. Whichever order
// the lock serializes them into, the listener must end up closed — the
// address is free afterwards. (Run with -race; before the fix this leaked
// the listener whenever Close read s.listener before Serve stored it.)
func TestServeCloseRace(t *testing.T) {
	net := transport.NewInProcNet()
	for i := 0; i < 100; i++ {
		s, err := NewSite(Config{
			Name: "flap",
			Dial: func(addr string) (transport.Conn, error) { return net.Dial(addr) },
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); _ = s.ServeInProc(net) }()
		go func() { defer wg.Done(); _ = s.Close() }()
		wg.Wait()
		lis, err := net.Listen("flap", nil)
		if err != nil {
			t.Fatalf("iteration %d leaked the listener: %v", i, err)
		}
		lis.Close()
	}
}

// TestIOOViewsMatchContainers is the differential test for the IOO's
// computed container items: installs, departures, arrivals, links and
// program edits run concurrently with view readers, and at every quiescent
// point `home`, `vicinity` and `interop` equal what APONames, PeerNames and
// ProgramNames report.
func TestIOOViewsMatchContainers(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", persist.NewMemStore())
	c := newMigSite(t, net, "c", persist.NewMemStore())
	link(t, a, "b")
	inertAgent(t, a, "walker")

	check := func(s *Site) {
		t.Helper()
		for item, names := range map[string][]string{
			"home":     s.APONames(),
			"vicinity": s.PeerNames(),
			"interop":  s.ProgramNames(),
		} {
			got, err := s.IOO().Get(s.IOO().Principal(), item)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(stringList(names)) {
				t.Fatalf("site %s: %s = %v, container holds %v", s.Name(), item, got, names)
			}
		}
	}
	read := func(s *Site) {
		for _, item := range []string{"home", "vicinity", "interop"} {
			if _, err := s.IOO().Get(s.IOO().Principal(), item); err != nil {
				t.Errorf("read %s mid-mutation: %v", item, err)
			}
		}
	}

	at, other := a, b
	for round := 0; round < 12; round++ {
		var wg sync.WaitGroup
		mutate := func(f func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := f(); err != nil {
					t.Errorf("round %d: %v", round, err)
				}
			}()
		}
		from, to := at, other
		mutate(func() error { // a departure at one site, an arrival at the other
			_, err := from.DispatchAgent("walker", to.Name())
			return err
		})
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("apo-%d-%d", round, i)
			mutate(func() error { return a.AddAPO(name, a.NewAPOBuilder("X").MustBuild()) })
		}
		mutate(func() error { return b.AddProgram(fmt.Sprintf("prog%d", round), `fn() { return 1; }`) })
		if round > 0 {
			mutate(func() error { return b.RemoveProgram(fmt.Sprintf("prog%d", round-1)) })
		}
		mutate(func() error { // Vicinity churn, away from the walker's route
			if round%2 == 0 {
				_, err := a.Link("c")
				return err
			}
			return a.Unlink("c")
		})
		mutate(func() error { read(a); read(b); read(c); return nil })
		wg.Wait()
		at, other = other, at
		check(a)
		check(b)
		check(c)
	}
	if n := len(a.APONames()); n < 48 {
		t.Errorf("home lost members: %d", n)
	}
}

// TestAgentArrivalRebindAtomic: installing an arriving agent over the
// binding a previous incarnation of itself left behind (an earlier visit
// whose departure never committed here) must keep the name continuously
// resolvable. Before Registry.Rebind, installation went Unbind-then-Bind,
// and a resolve landing in between failed "name not bound".
func TestAgentArrivalRebindAtomic(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")
	agent := inertAgent(t, a, "box")

	// The previous incarnation: the same identity, an older object.
	img, err := agent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stale, err := b.materialize(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.admit("box", stale, true); err != nil {
		t.Fatal(err)
	}

	var windowErr error
	testHookPreBind = func(s *Site, name string) {
		if s == b && name == "box" {
			_, windowErr = s.objects.Resolve(name)
		}
	}
	defer func() { testHookPreBind = nil }()

	if _, err := a.DispatchAgent("box", "b"); err != nil {
		t.Fatal(err)
	}
	if windowErr != nil {
		t.Errorf("name unresolvable mid-installation: %v", windowErr)
	}
	arrived, err := b.APO("box")
	if err != nil {
		t.Fatal(err)
	}
	if arrived == stale || arrived.ID() != agent.ID() {
		t.Errorf("Home holds %v after arrival; want the new incarnation", arrived)
	}
	if got, err := b.objects.Lookup("box"); err != nil || got != any(arrived) {
		t.Errorf("binding after arrival = %v, %v; want the agent", got, err)
	}
}

// TestHomeContainerContention hammers one homeContainer from installers
// (put, add, claim), removers (unconditional and matching), readers and
// enumerators at once (run with -race; `make race-hadas-cpu` sweeps it
// across GOMAXPROCS, where claim's compare-and-swap loop is contended).
// Readers must only ever see an object some worker installed under that
// name, an enumeration lists no name twice, and the final count must
// reconcile with the surviving members.
func TestHomeContainerContention(t *testing.T) {
	const (
		workers = 4
		keys    = 128
		rounds  = 600
	)
	var c homeContainer
	seed := newTestSite(t, transport.NewInProcNet(), "seed")
	pool := make([]string, keys)
	for i := range pool {
		pool[i] = fmt.Sprintf("apo-%03d", i)
	}
	// Two incarnations of one identity, which claim swaps, and another
	// identity, which it must not evict.
	first := seed.NewAPOBuilder("Filler").MustBuild()
	img, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	again, err := seed.materialize(img)
	if err != nil {
		t.Fatal(err)
	}
	other := seed.NewAPOBuilder("Other").MustBuild()
	installed := func(o *core.Object) bool { return o == first || o == again || o == other }
	distinct := func(names []string) bool {
		for i := 1; i < len(names); i++ {
			if names[i] == names[i-1] {
				return false
			}
		}
		return true
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := pool[(w*rounds+r*7)%keys]
				switch r % 8 {
				case 0:
					c.put(name, first)
				case 1:
					c.remove(name, nil)
				case 2:
					if o, ok := c.get(name); ok && !installed(o) {
						t.Error("get returned a foreign object")
						return
					}
				case 3:
					if !distinct(c.names()) {
						t.Error("names listed a member twice")
						return
					}
				case 4:
					c.claim(name, again)
				case 5:
					c.add(name, other)
				case 6:
					c.remove(name, other)
				default:
					for _, e := range c.entries() {
						if !installed(e.obj) {
							t.Error("entries listed a foreign object")
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	names := c.names()
	if got, want := c.len(), len(names); got != want {
		t.Errorf("count %d != surviving members %d", got, want)
	}
	if !distinct(names) {
		t.Errorf("surviving members listed twice: %v", names)
	}
	for _, name := range names {
		if o, ok := c.get(name); !ok || !installed(o) {
			t.Errorf("surviving member %q resolves to %v, %v", name, o, ok)
		}
	}
}

// TestSiteContention exercises the public surface around the concurrent
// Home — lookups, installs, view reads, peer health and agent churn —
// concurrently across two linked sites, under -race. Beyond error-freedom
// it asserts only that no member is lost and that Home still agrees with
// the registry (newMigSite's cleanup): the test exists so the race
// detector patrols every lock boundary.
func TestSiteContention(t *testing.T) {
	net := transport.NewInProcNet()
	a := newMigSite(t, net, "a", persist.NewMemStore())
	b := newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")
	addEmployeeDB(t, a)
	inertAgent(t, a, "walker")

	const rounds = 60
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f(i)
			}
		}()
	}
	// Installer: grows Home with fresh names.
	run(func(i int) {
		name := fmt.Sprintf("grown-%03d", i)
		if err := a.AddAPO(name, a.NewAPOBuilder("G").MustBuild()); err != nil {
			t.Errorf("add %s: %v", name, err)
		}
	})
	// Readers: resolve and enumerate while the container churns.
	run(func(i int) {
		_, _ = a.ResolveObject("payroll")
		_ = a.APONames()
		_, _ = a.IOO().Get(a.IOO().Principal(), "home")
	})
	// Remote invoker: the fast path handleInvoke protects.
	client := security.Principal{Object: b.Generator().New(), Domain: b.Domain()}
	run(func(i int) {
		if _, err := b.InvokeRemote("a", client, "payroll", "salaryOf", value.NewString("alice")); err != nil {
			t.Errorf("remote invoke: %v", err)
		}
	})
	// Health and topology readers.
	run(func(i int) {
		_ = a.UpPeerNames()
		_ = a.PeerNames()
		_, _ = a.PeerStatus("b")
	})
	// Agent churn: the walker bounces a→b→a, claiming and releasing its
	// Home slot on both sides.
	wg.Add(1)
	go func() {
		defer wg.Done()
		at, back := a, b
		for i := 0; i < 20; i++ {
			if _, err := at.DispatchAgent("walker", back.Name()); err != nil {
				t.Errorf("hop %d: %v", i, err)
				return
			}
			at, back = back, at
		}
	}()
	wg.Wait()

	if n := len(a.APONames()); n < rounds {
		t.Errorf("home lost members: %d", n)
	}
	if copies("walker", a, b) != 1 {
		t.Error("walker duplicated or lost")
	}
}
