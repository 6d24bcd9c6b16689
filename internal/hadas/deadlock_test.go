package hadas

// End-to-end tests for distributed deadlock detection: a genuine
// cross-site A→B→A cycle of Serialized admissions over real TCP sockets,
// the probe verb's wire codec, and the hygiene guarantees (completed
// chains forgotten, stale probes dead-ending) at the protocol level.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/value"
)

// dlAdmitTimeout is the admission backstop for the deadlock tests; the
// probes must win the race against it by a wide margin.
const dlAdmitTimeout = 6 * time.Second

// installLock registers the hop/enter behaviors at s and installs a
// Serialized "lock" APO. "hop" admits the local lock, lingers (so the
// cross-site holds overlap), then relays into the peer site's lock — the
// half of the classic cycle this site contributes.
func installLock(t *testing.T, s *Site, peer string, linger time.Duration) *core.Object {
	t.Helper()
	s.Behaviors().Register("dl.enter", func(*core.Invocation, []value.Value) (value.Value, error) {
		return value.NewString("entered"), nil
	})
	s.Behaviors().Register("dl.hop", func(inv *core.Invocation, _ []value.Value) (value.Value, error) {
		site, err := siteOf(inv)
		if err != nil {
			return value.Null, err
		}
		peerV, err := inv.Invoke("get", value.NewString("peer"))
		if err != nil {
			return value.Null, err
		}
		ms, err := inv.Invoke("get", value.NewString("lingerMs"))
		if err != nil {
			return value.Null, err
		}
		n, _ := ms.Int()
		time.Sleep(time.Duration(n) * time.Millisecond)
		return site.InvokeRemoteFrom(inv, peerV.String(), inv.Self().Principal(),
			"lock", "enter")
	})
	b := s.NewAPOBuilder("Lock", core.Serialized(), core.AdmissionTimeout(dlAdmitTimeout))
	hop, err := s.Behaviors().Lookup("dl.hop")
	if err != nil {
		t.Fatal(err)
	}
	enter, _ := s.Behaviors().Lookup("dl.enter")
	b.FixedMethod("hop", hop)
	b.FixedMethod("enter", enter)
	b.FixedData("peer", value.NewString(peer))
	b.FixedData("lingerMs", value.NewInt(int64(linger/time.Millisecond)))
	obj := b.MustBuild()
	if err := s.AddAPO("lock", obj); err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestCrossSiteDeadlockOverTCP is the acceptance scenario: two TCP-linked
// sites, each hosting a Serialized lock whose method calls into the
// other's — driven concurrently so each chain holds its local lock and
// blocks on the remote one. The edge-chasing probes must abort exactly
// one chain (the deterministic victim: lowest identity, i.e. the chain
// minted at the lexicographically smaller site) with ErrDeadlock naming
// the full cycle, well before the admission timeout; the other chain
// completes.
func TestCrossSiteDeadlockOverTCP(t *testing.T) {
	const linger = 150 * time.Millisecond
	a, err := NewSite(Config{Name: "dla"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	b, err := NewSite(Config{Name: "dlb"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addrB, err := b.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Link(addrB); err != nil {
		t.Fatal(err)
	}

	lockA := installLock(t, a, "dlb", linger)
	lockB := installLock(t, b, "dla", linger)
	clientA := a.IOO().Principal()
	clientB := b.IOO().Principal()

	var wg sync.WaitGroup
	var errA, errB error
	start := make(chan struct{})
	begun := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		_, errA = lockA.Invoke(clientA, "hop")
	}()
	go func() {
		defer wg.Done()
		<-start
		_, errB = lockB.Invoke(clientB, "hop")
	}()
	close(start)
	wg.Wait()
	elapsed := time.Since(begun)

	// Deterministic victim: the chain minted at "dla" has the lower
	// identity ("dla" < "dlb"), so site A's invocation aborts and site B's
	// completes.
	if !errors.Is(errA, core.ErrDeadlock) {
		t.Fatalf("site A chain (the victim) err = %v, want ErrDeadlock", errA)
	}
	if errB != nil {
		t.Errorf("site B chain (the survivor) err = %v, want success", errB)
	}

	// The victim's error names the whole cross-site cycle: both objects,
	// both chains (origin sites in the identities), both sites.
	msg := errA.Error()
	for _, want := range []string{"cross-site cycle", "dla:", "dlb:",
		"at dla", "at dlb", "waits for", "held by"} {
		if !strings.Contains(msg, want) {
			t.Errorf("victim error missing %q:\n%s", want, msg)
		}
	}
	if n := strings.Count(msg, "Lock<"); n < 2 {
		t.Errorf("victim error names %d lock objects, want both:\n%s", n, msg)
	}

	// Detection raced the backstop and won by an order of magnitude.
	if detect := elapsed - linger; detect > dlAdmitTimeout/10 {
		t.Errorf("detection took %v after the holds overlapped, want < %v",
			detect, dlAdmitTimeout/10)
	}

	// Both locks are released and healthy afterwards.
	if v, err := lockA.Invoke(clientA, "enter"); err != nil || v.String() != "entered" {
		t.Errorf("lock A after deadlock = (%v, %v)", v, err)
	}
	if v, err := lockB.Invoke(clientB, "enter"); err != nil || v.String() != "entered" {
		t.Errorf("lock B after deadlock = (%v, %v)", v, err)
	}
}

// TestCompletedChainsForgotten: once relayed serialized calls complete,
// neither site still tracks their chain identities — so probes naming
// them (stale, delayed, or replayed) dead-end with a zero verdict instead
// of ever touching a future chain.
func TestCompletedChainsForgotten(t *testing.T) {
	net := transport.NewInProcNet()
	a := newTestSite(t, net, "gca")
	b := newTestSite(t, net, "gcb")
	if _, err := a.Link("gcb"); err != nil {
		t.Fatal(err)
	}

	lockA := installLock(t, a, "gcb", 0)
	installLock(t, b, "gca", 0)

	client := a.IOO().Principal()
	for i := 0; i < 5; i++ {
		if v, err := lockA.Invoke(client, "hop"); err != nil || v.String() != "entered" {
			t.Fatalf("hop %d = (%v, %v)", i, v, err)
		}
	}
	if n := a.DeadlockDetector().ChainCount(); n != 0 {
		t.Errorf("site A still tracks %d chains after completion", n)
	}
	if n := b.DeadlockDetector().ChainCount(); n != 0 {
		t.Errorf("site B still tracks %d chains after completion", n)
	}

	// A stale probe naming a completed (or never-known) chain crosses the
	// wire fine and dead-ends.
	v, err := a.ForwardProbe("gcb", core.Probe{
		Initiator: "gca:999",
		Target:    "gca:998",
		TTL:       core.DefaultProbeTTL,
		Path: []core.ProbeStep{{
			Chain: "gca:999", Site: "gca", Object: "Lock<x>", Holder: "gca:998",
		}},
	})
	if err != nil {
		t.Fatalf("stale probe errored: %v", err)
	}
	if v != (core.Verdict{}) {
		t.Errorf("stale probe produced a verdict: %+v", v)
	}
}

// TestProbeVerbIsRetrySafe pins the transport contract: the probe verb is
// on the retry-safe list (ResilientConn may replay it after a cut), and
// hadas.invoke remains off it.
func TestProbeVerbIsRetrySafe(t *testing.T) {
	if !retrySafeVerb(verbProbe) {
		t.Error("probe verb must be retry-safe (idempotent by construction)")
	}
	if retrySafeVerb(verbInvoke) {
		t.Error("invoke verb must NOT be retry-safe")
	}
}

// TestRemoteFailureKeepsItsKind: a remote failure is a deadlock or an
// admission timeout at the caller because the invoke reply's outcome code
// says so, not because its text mentions one. The message used to be
// substring-matched, so an audit body reporting that it saw no deadlock
// reached its caller as core.ErrDeadlock. Both the single call and the
// fan-out keep the transport's RemoteError for every failure.
func TestRemoteFailureKeepsItsKind(t *testing.T) {
	net := transport.NewInProcNet()
	origin, host := newTestSite(t, net, "kind-origin"), newTestSite(t, net, "kind-host")
	if _, err := host.Link("kind-origin"); err != nil {
		t.Fatal(err)
	}
	b := origin.NewAPOBuilder("Auditor")
	for method, fail := range map[string]error{
		"audit":   errors.New("audit: no serialized admission deadlock seen"),
		"victim":  fmt.Errorf("%w: a real cycle", core.ErrDeadlock),
		"starved": fmt.Errorf("%w: a real wait", core.ErrAdmissionTimeout),
	} {
		origin.Behaviors().Register("test."+method, func(*core.Invocation, []value.Value) (value.Value, error) {
			return value.Null, fail
		})
		body, err := origin.Behaviors().Lookup("test." + method)
		if err != nil {
			t.Fatal(err)
		}
		b.FixedMethod(method, body)
	}
	if err := origin.AddAPO("auditor", b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	caller := security.Principal{Object: host.Generator().New(), Domain: host.Domain()}
	for method, want := range map[string]error{"audit": nil, "victim": core.ErrDeadlock, "starved": core.ErrAdmissionTimeout} {
		_, single := host.InvokeRemote("kind-origin", caller, "auditor", method)
		fanned := host.InvokeFanOut([]FanOutCall{{Peer: "kind-origin", Caller: caller, Target: "auditor", Method: method}})[0].Err
		for how, err := range map[string]error{"InvokeRemote": single, "InvokeFanOut": fanned} {
			var re *transport.RemoteError
			if !errors.As(err, &re) {
				t.Errorf("%s %s: %v, want a RemoteError", how, method, err)
			}
			for _, sentinel := range []error{core.ErrDeadlock, core.ErrAdmissionTimeout} {
				if errors.Is(err, sentinel) != (sentinel == want) {
					t.Errorf("%s %s: %v; errors.Is(%v) = %v", how, method, err, sentinel, errors.Is(err, sentinel))
				}
			}
		}
	}
}
