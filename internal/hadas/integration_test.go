package hadas

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/persist"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/value"
)

func newMemStoreForTest() persist.Backend { return persist.NewMemStore() }

// TestFig2Topology reproduces Figure 2's external view: three sites, fully
// linked, each hosting APOs and ambassadors of the others, with the
// ownership/hosting invariants holding.
func TestFig2Topology(t *testing.T) {
	net := transport.NewInProcNet()
	sites := map[string]*Site{}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		sites[name] = newTestSite(t, net, name)
	}
	// One APO per site.
	for name, s := range sites {
		b := s.NewAPOBuilder("Svc")
		b.FixedData("home", value.NewString(name))
		b.FixedScriptMethod("whoami", `fn() { return self.home; }`)
		if err := s.AddAPO("svc", b.MustBuild()); err != nil {
			t.Fatal(err)
		}
	}
	// Full mesh of links.
	pairs := [][2]string{{"alpha", "beta"}, {"alpha", "gamma"}, {"beta", "gamma"}}
	for _, p := range pairs {
		if _, err := sites[p[0]].Link(p[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Every site imports every other site's svc.
	for name, s := range sites {
		for peer := range sites {
			if peer == name {
				continue
			}
			if _, err := s.Import(peer, "svc"); err != nil {
				t.Fatalf("%s import from %s: %v", name, peer, err)
			}
		}
	}
	// Invariants: each site has 2 peers, hosts 2 svc ambassadors (plus 2
	// IOO ambassadors), and each origin records 2 deployments.
	for name, s := range sites {
		if got := len(s.PeerNames()); got != 2 {
			t.Errorf("%s peers = %d", name, got)
		}
		ambs := s.Ambassadors()
		if len(ambs) != 2 {
			t.Errorf("%s ambassadors = %v", name, ambs)
		}
		if deps := s.Deployments("svc"); len(deps) != 2 {
			t.Errorf("%s deployments = %v", name, deps)
		}
		// Invocations through each hosted ambassador reach the right origin.
		for peer := range sites {
			if peer == name {
				continue
			}
			amb, err := s.ResolveObject("svc@" + peer)
			if err != nil {
				t.Fatalf("%s resolve svc@%s: %v", name, peer, err)
			}
			v, err := amb.Invoke(s.IOO().Principal(), "whoami")
			if err != nil {
				t.Fatal(err)
			}
			if v.String() != peer {
				t.Errorf("%s→svc@%s whoami = %v", name, peer, v)
			}
		}
	}
}

// TestDatabaseShutdownScenario reproduces the §5 example end to end: a
// database APO updates the invocation mechanism of all its deployed
// Ambassadors so that, during maintenance, every query returns a
// meaningful notice instead of failing — and clients keep working,
// autonomously, throughout.
func TestDatabaseShutdownScenario(t *testing.T) {
	net := transport.NewInProcNet()
	origin := newTestSite(t, net, "hq")
	hostA := newTestSite(t, net, "brancha")
	hostB := newTestSite(t, net, "branchb")
	addEmployeeDB(t, origin)

	for _, h := range []*Site{hostA, hostB} {
		if _, err := h.Link("hq"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Import("hq", "payroll"); err != nil {
			t.Fatal(err)
		}
	}
	query := func(h *Site) (string, error) {
		amb, err := h.ResolveObject("payroll@hq")
		if err != nil {
			return "", err
		}
		client := security.Principal{Object: h.Generator().New(), Domain: h.Domain()}
		v, err := amb.Invoke(client, "salaryOf", value.NewString("alice"))
		if err != nil {
			return "", err
		}
		return v.String(), nil
	}

	// phase is E8's availability measurement: 200 queries, alternating
	// between the hosts, every one of which must come back with the answer
	// the phase promises — an error or any other value is a hard failure,
	// and the claim is that there are none.
	const queriesPerPhase = 200
	phase := func(name, want string) {
		t.Helper()
		hosts := []*Site{hostA, hostB}
		for i := 0; i < queriesPerPhase; i++ {
			h := hosts[i%len(hosts)]
			if got, err := query(h); err != nil || got != want {
				t.Fatalf("%s query %d at %s = %q, %v; want %q", name, i, h.Name(), got, err, want)
			}
		}
	}

	phase("normal", "12500")

	// Before shutting down, the administrator updates all Ambassadors:
	// replace their invocation mechanism so every method echoes a notice.
	// The replacement passes meta-operations through to level 0 — the
	// designer's responsibility per §3 ("It is up to the object designer
	// … to create and modify a highly adjustable yet internally consistent
	// and secure object"): without the pass-through, the origin's later
	// deleteMethod("invoke") would itself be answered with the notice and
	// the ambassador could never be restored.
	const notice = "database is down for maintenance"
	updated, err := origin.UpdateAmbassadors("payroll", "setMethod",
		value.NewString("invoke"),
		value.NewMap(map[string]value.Value{
			"body": value.NewString(`fn(name, callArgs) {
				if name == "deleteMethod" || name == "setMethod" {
					return self.invokeNext(name, callArgs);
				}
				return "` + notice + `";
			}`),
		}))
	if err != nil {
		t.Fatal(err)
	}
	if updated != 2 {
		t.Fatalf("updated %d ambassadors", updated)
	}

	// "users at remote sites can have instant meaningful results for their
	// queries, instead of long waiting and misunderstood error messages."
	phase("maintenance", notice)

	// Maintenance over: pop the meta level, service resumes.
	updated, err = origin.UpdateAmbassadors("payroll", "deleteMethod", value.NewString("invoke"))
	if err != nil || updated != 2 {
		t.Fatalf("restore: %d, %v", updated, err)
	}
	phase("restored", "12500")

	// Throughout, the hosts themselves could not have performed the update:
	// the mutating meta-methods admit only the origin.
	amb, _ := hostA.ResolveObject("payroll@hq")
	hostPrincipal := security.Principal{Object: hostA.IOO().ID(), Domain: hostA.Domain()}
	if _, err := amb.Invoke(hostPrincipal, "setMethod", value.NewString("invoke"),
		value.NewMap(map[string]value.Value{"body": value.NewString(`fn(n, a) { return 0; }`)})); err == nil {
		t.Error("host updated the ambassador's invoke")
	}
}

// TestDynamicFunctionalityMigration reproduces §5's "dynamic migration of
// functionality (methods) and data from the APO to its ambassador": a hot
// method starts relayed, then the origin pushes a local implementation plus
// the data it needs into the deployed ambassador on the fly.
func TestDynamicFunctionalityMigration(t *testing.T) {
	net := transport.NewInProcNet()
	host := newTestSite(t, net, "edge")
	origin := newTestSite(t, net, "center")
	addEmployeeDB(t, origin)
	if _, err := host.Link("center"); err != nil {
		t.Fatal(err)
	}
	if _, err := host.Import("center", "payroll"); err != nil {
		t.Fatal(err)
	}
	amb, _ := host.ResolveObject("payroll@center")
	client := security.Principal{Object: host.Generator().New(), Domain: host.Domain()}

	// Phase 1: relayed.
	v, err := amb.Invoke(client, "salaryOf", value.NewString("bob"))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 9000 {
		t.Fatalf("relayed = %v", v)
	}

	// Phase 2: origin migrates data + method into the ambassador.
	apo, _ := origin.APO("payroll")
	records, err := apo.Get(apo.Principal(), "records")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := origin.UpdateAmbassadors("payroll", "addDataItem",
		value.NewString("records"), records); err != nil {
		t.Fatal(err)
	}
	// Replace the relayed method with a local script implementation.
	if _, err := origin.UpdateAmbassadors("payroll", "setMethod",
		value.NewString("salaryOf"),
		value.NewMap(map[string]value.Value{
			"body": value.NewString(`fn(name) {
				let recs = self.records;
				if !has(recs, name) { return -1; }
				return recs[name]["salary"];
			}`),
		})); err != nil {
		t.Fatal(err)
	}

	// Phase 3: cut the wire; the migrated method still answers.
	if err := host.SetPeerConn("center", &transport.FaultConn{FailEvery: 1}); err != nil {
		t.Fatal(err)
	}
	v, err = amb.Invoke(client, "salaryOf", value.NewString("bob"))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 9000 {
		t.Errorf("migrated = %v", v)
	}
	// Non-migrated methods fail over the cut wire, as expected.
	if _, err := amb.Invoke(client, "query", value.NewString("bob")); !errors.Is(err, transport.ErrInjected) {
		t.Errorf("relayed over cut wire: %v", err)
	}
}

// TestTCPEndToEnd runs the link/import/invoke cycle over real sockets.
func TestTCPEndToEnd(t *testing.T) {
	origin, err := NewSite(Config{Name: "tcp-origin"})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	originAddr, err := origin.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	host, err := NewSite(Config{Name: "tcp-host"})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	if _, err := host.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	addEmployeeDB(t, origin)
	if _, err := host.Link(originAddr); err != nil {
		t.Fatal(err)
	}
	localName, err := host.Import("tcp-origin", "payroll")
	if err != nil {
		t.Fatal(err)
	}
	amb, err := host.ResolveObject(localName)
	if err != nil {
		t.Fatal(err)
	}
	client := security.Principal{Object: host.Generator().New(), Domain: host.Domain()}
	v, err := amb.Invoke(client, "salaryOf", value.NewString("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 12500 {
		t.Errorf("TCP relayed salaryOf = %v", v)
	}
	// Reverse-direction call (origin → host) over the lazily-dialed
	// back-connection: the origin updates its deployed ambassador.
	updated, err := origin.UpdateAmbassadors("payroll", "addDataItem",
		value.NewString("note"), value.NewString("updated over tcp"))
	if err != nil || updated != 1 {
		t.Fatalf("reverse update: %d, %v", updated, err)
	}
	note, err := amb.Get(amb.Principal(), "note")
	if err != nil || note.String() != "updated over tcp" {
		t.Errorf("note = %v, %v", note, err)
	}
}

// TestConcurrentRelayedInvocations exercises the whole stack under
// concurrency: many clients invoking through ambassadors in parallel.
func TestConcurrentRelayedInvocations(t *testing.T) {
	net := transport.NewInProcNet()
	host := newTestSite(t, net, "busy-host")
	origin := newTestSite(t, net, "busy-origin")

	b := origin.NewAPOBuilder("Calc")
	b.FixedScriptMethod("square", `fn(x) { return x * x; }`)
	if err := origin.AddAPO("calc", b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if _, err := host.Link("busy-origin"); err != nil {
		t.Fatal(err)
	}
	if _, err := host.Import("busy-origin", "calc"); err != nil {
		t.Fatal(err)
	}
	amb, _ := host.ResolveObject("calc@busy-origin")

	var wg sync.WaitGroup
	errCh := make(chan error, 128)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := security.Principal{Object: host.Generator().New(), Domain: host.Domain()}
			for i := 0; i < 25; i++ {
				x := int64(w*100 + i)
				v, err := amb.Invoke(client, "square", value.NewInt(x))
				if err != nil {
					errCh <- err
					return
				}
				if got, _ := v.Int(); got != x*x {
					errCh <- fmt.Errorf("square(%d) = %v", x, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestPartialFailureDuringUpdate injects a failing connection to one of
// two hosts: the update succeeds where the wire works and reports the
// failure for the other.
func TestPartialFailureDuringUpdate(t *testing.T) {
	net := transport.NewInProcNet()
	origin := newTestSite(t, net, "pf-origin")
	good := newTestSite(t, net, "pf-good")
	bad := newTestSite(t, net, "pf-bad")
	addEmployeeDB(t, origin)
	for _, h := range []*Site{good, bad} {
		if _, err := h.Link("pf-origin"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Import("pf-origin", "payroll"); err != nil {
			t.Fatal(err)
		}
	}
	// Cut the origin's reverse wire to pf-bad only.
	if err := origin.SetPeerConn("pf-bad", &transport.FaultConn{FailEvery: 1}); err != nil {
		t.Fatal(err)
	}
	updated, err := origin.UpdateAmbassadors("payroll", "addDataItem",
		value.NewString("v2"), value.True)
	if updated != 1 {
		t.Errorf("updated = %d, want 1", updated)
	}
	if !errors.Is(err, transport.ErrInjected) {
		t.Errorf("first error = %v", err)
	}
	// The good host's ambassador has the new item; the bad one does not.
	gAmb, _ := good.ResolveObject("payroll@pf-origin")
	if _, err := gAmb.Get(gAmb.Principal(), "v2"); err != nil {
		t.Errorf("good host missing update: %v", err)
	}
	bAmb, _ := bad.ResolveObject("payroll@pf-origin")
	if _, err := bAmb.Get(bAmb.Principal(), "v2"); err == nil {
		t.Error("bad host received update through cut wire")
	}
}

// TestSitePersistence saves Home to a store and installs an APO back from
// its image slot.
func TestSitePersistence(t *testing.T) {
	store := newMemStoreForTest()
	net := transport.NewInProcNet()
	s, err := NewSite(Config{
		Name:  "durable",
		Dial:  func(addr string) (transport.Conn, error) { return net.Dial(addr) },
		Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	apo := addEmployeeDB(t, s)
	if err := s.PersistAll(); err != nil {
		t.Fatal(err)
	}

	// A "restarted" site bootstraps the APO from the same store.
	s2, err := NewSite(Config{
		Name:  "durable2",
		Dial:  func(addr string) (transport.Conn, error) { return net.Dial(addr) },
		Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	raw, err := store.Get(apo.ID().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.installImage("payroll", raw); err != nil {
		t.Fatal(err)
	}
	re, err := s2.APO("payroll")
	if err != nil {
		t.Fatal(err)
	}
	v, err := re.Invoke(s2.IOO().Principal(), "salaryOf", value.NewString("bob"))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 9000 {
		t.Errorf("bootstrapped salaryOf = %v", v)
	}
	// A site without a store reports it.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	noStore := newTestSite(t, net, "nostore")
	if err := noStore.PersistAll(); err == nil {
		t.Error("PersistAll without store succeeded")
	}
}

// TestBootstrapHome restores the whole Home from the store manifest.
func TestBootstrapHome(t *testing.T) {
	store := newMemStoreForTest()
	net := transport.NewInProcNet()
	mk := func(name string) *Site {
		s, err := NewSite(Config{
			Name:  name,
			Dial:  func(addr string) (transport.Conn, error) { return net.Dial(addr) },
			Store: store,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	s1 := mk("gen1")
	addEmployeeDB(t, s1)
	b := s1.NewAPOBuilder("Aux")
	b.FixedScriptMethod("ping", `fn() { return "pong"; }`)
	if err := s1.AddAPO("aux", b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := s1.PersistAll(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new site over the same store.
	s2 := mk("gen2")
	restored, err := s2.BootstrapHome()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 2 || restored[0] != "aux" || restored[1] != "payroll" {
		t.Errorf("restored = %v", restored)
	}
	apo, err := s2.APO("payroll")
	if err != nil {
		t.Fatal(err)
	}
	v, err := apo.Invoke(s2.IOO().Principal(), "salaryOf", value.NewString("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 12500 {
		t.Errorf("restored salaryOf = %v", v)
	}
	// Idempotent: a second bootstrap restores nothing new.
	again, err := s2.BootstrapHome()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Errorf("second bootstrap restored %v", again)
	}
	// Without a manifest (fresh store) bootstrap reports the missing slot.
	s3, err := NewSite(Config{Name: "gen3", Store: newMemStoreForTest()})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, err := s3.BootstrapHome(); err == nil {
		t.Error("bootstrap from empty store succeeded")
	}
}
