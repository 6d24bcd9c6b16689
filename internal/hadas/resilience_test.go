package hadas

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/value"
)

// fastResilience is a test policy that opens after 2 failures and retries
// nothing, so partitions are observed in milliseconds instead of seconds.
func fastResilience() transport.ResilientPolicy {
	return transport.ResilientPolicy{
		MaxAttempts:      1,
		FailureThreshold: 2,
		Cooldown:         40 * time.Millisecond,
	}
}

// newResilientSite is newTestSite with a Config hook.
func newResilientSite(t *testing.T, net *transport.InProcNet, name string, mod func(*Config)) *Site {
	t.Helper()
	cfg := Config{
		Name: name,
		Dial: func(addr string) (transport.Conn, error) { return net.Dial(addr) },
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := NewSite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ServeInProc(net); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// cutPeerWire interposes a FaultConn on host's wire to peerName and
// returns it: Cut()/Heal() then partition and restore the link mid-test.
func cutPeerWire(t *testing.T, net *transport.InProcNet, host *Site, peerName string) *transport.FaultConn {
	t.Helper()
	inner, err := net.Dial(peerName)
	if err != nil {
		t.Fatal(err)
	}
	fc := &transport.FaultConn{Inner: inner}
	if err := host.SetPeerConn(peerName, fc); err != nil {
		t.Fatal(err)
	}
	return fc
}

// TestPartitionFailsFastAndHeals is the tentpole acceptance scenario: cut
// the wire to one peer mid-interop, watch the breaker open and calls fail
// fast with ErrPeerDown while a healthy peer stays reachable, then heal
// the wire and watch the same link recover — no site restarts.
func TestPartitionFailsFastAndHeals(t *testing.T) {
	net := transport.NewInProcNet()
	tokyo := newResilientSite(t, net, "tokyo", func(c *Config) { c.Resilience = fastResilience() })
	osaka := newResilientSite(t, net, "osaka", nil)
	kyoto := newResilientSite(t, net, "kyoto", nil)
	addEmployeeDB(t, osaka)
	addEmployeeDB(t, kyoto)
	if _, err := tokyo.Link("osaka"); err != nil {
		t.Fatal(err)
	}
	if _, err := tokyo.Link("kyoto"); err != nil {
		t.Fatal(err)
	}
	client := security.Principal{Object: tokyo.Generator().New(), Domain: tokyo.Domain()}
	salaryOf := func(peer string) (value.Value, error) {
		return tokyo.InvokeRemote(peer, client, "payroll", "salaryOf", value.NewString("bob"))
	}
	if _, err := salaryOf("osaka"); err != nil {
		t.Fatalf("pre-partition invoke: %v", err)
	}

	// Partition osaka. The first FailureThreshold calls pay the wire and
	// fail ErrInjected; after that the breaker is open.
	fc := cutPeerWire(t, net, tokyo, "osaka")
	fc.Cut()
	var err error
	for i := 0; i < 2; i++ {
		if _, err = salaryOf("osaka"); err == nil {
			t.Fatal("invoke through cut wire succeeded")
		}
	}
	if !errors.Is(err, transport.ErrInjected) {
		t.Fatalf("pre-breaker error = %v, want ErrInjected", err)
	}

	// Now the circuit is open: calls fail fast with ErrPeerDown and never
	// touch the wire.
	wire := fc.Calls()
	if _, err := salaryOf("osaka"); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("open-circuit error = %v, want ErrPeerDown", err)
	}
	if got := fc.Calls(); got != wire {
		t.Errorf("open circuit still sent %d wire calls", got-wire)
	}
	ps, err := tokyo.PeerStatus("osaka")
	if err != nil {
		t.Fatal(err)
	}
	if ps.State != transport.BreakerOpen {
		t.Errorf("osaka status = %+v, want open", ps)
	}

	// The partition is per-peer: kyoto answers while osaka is down.
	if v, err := salaryOf("kyoto"); err != nil {
		t.Fatalf("healthy peer blocked by partition: %v", err)
	} else if i, _ := v.Int(); i != 9000 {
		t.Errorf("kyoto salaryOf = %v", v)
	}
	if up := tokyo.UpPeerNames(); len(up) != 1 || up[0] != "kyoto" {
		t.Errorf("UpPeerNames = %v, want kyoto up / osaka down", up)
	}

	// Heal. After the cooldown the next call runs the half-open probe and
	// the link recovers — same sites, same link, no restart.
	fc.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := salaryOf("osaka")
		if err == nil {
			if i, _ := v.Int(); i != 9000 {
				t.Errorf("post-heal salaryOf = %v", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("link never recovered after heal: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ps, _ := tokyo.PeerStatus("osaka"); ps.State != transport.BreakerClosed {
		t.Errorf("post-heal status = %+v, want closed", ps)
	}
	if fc.Pings() == 0 {
		t.Error("recovery made no half-open probe")
	}
	_ = osaka // linked sites kept alive for the duration
}

// TestAmbassadorFailsFastWhenPeerDown checks graceful degradation at the
// object layer: an Ambassador whose home peer is open-circuit returns
// ErrPeerDown from relayed methods instead of blocking, while locally
// migrated methods keep answering.
func TestAmbassadorFailsFastWhenPeerDown(t *testing.T) {
	net := transport.NewInProcNet()
	host := newResilientSite(t, net, "edge", func(c *Config) { c.Resilience = fastResilience() })
	origin := newResilientSite(t, net, "center", nil)
	addEmployeeDB(t, origin)
	if _, err := host.Link("center"); err != nil {
		t.Fatal(err)
	}
	localName, err := host.Import("center", "payroll")
	if err != nil {
		t.Fatal(err)
	}
	amb, err := host.ResolveObject(localName)
	if err != nil {
		t.Fatal(err)
	}
	client := security.Principal{Object: host.Generator().New(), Domain: host.Domain()}

	fc := cutPeerWire(t, net, host, "center")
	fc.Cut()
	for i := 0; i < 2; i++ {
		if _, err := amb.Invoke(client, "query", value.NewString("bob")); err == nil {
			t.Fatal("relay through cut wire succeeded")
		}
	}
	start := time.Now()
	_, err = amb.Invoke(client, "query", value.NewString("bob"))
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("relay with open circuit = %v, want ErrPeerDown", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("fail-fast took %v", elapsed)
	}
}

// TestCallTimeoutBoundsSlowPeers checks that Config.CallTimeout (not the
// old hardcoded 30s) bounds each round trip: a peer stalled longer than
// the timeout produces a deadline error in roughly CallTimeout.
func TestCallTimeoutBoundsSlowPeers(t *testing.T) {
	net := transport.NewInProcNet()
	fast := newResilientSite(t, net, "fast", func(c *Config) {
		c.CallTimeout = 50 * time.Millisecond
		c.Resilience = fastResilience()
	})
	slow := newResilientSite(t, net, "slow", nil)
	addEmployeeDB(t, slow)
	if _, err := fast.Link("slow"); err != nil {
		t.Fatal(err)
	}
	inner, err := net.Dial("slow")
	if err != nil {
		t.Fatal(err)
	}
	if err := fast.SetPeerConn("slow", &transport.FaultConn{
		Inner: inner,
		VerbRules: map[string]*transport.FaultRule{
			verbInvoke: {Delay: 5 * time.Second},
		},
	}); err != nil {
		t.Fatal(err)
	}
	client := security.Principal{Object: fast.Generator().New(), Domain: fast.Domain()}
	start := time.Now()
	_, err = fast.InvokeRemote("slow", client, "payroll", "salaryOf", value.NewString("bob"))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled invoke = %v, want DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("timeout fired after %v, want ~50ms", elapsed)
	}
}

// TestCallDeadlineWithinSeventeenSixteenths: the calls of one window share
// a deadline, and each call's lies between CallTimeout and
// CallTimeout×17/16 after it starts: the first call of a window gets the
// longest, and one that starts just before the window closes shares it and
// gets the shortest. The call after the window opens the next one.
//
// Caught, 5 of 5 runs each: a window deadline of CallTimeout (no margin),
// a window twice as long, a deadline one window too late.
func TestCallDeadlineWithinSeventeenSixteenths(t *testing.T) {
	const timeout = 320 * time.Millisecond
	window := timeout / deadlineWindows
	s, err := NewSite(Config{Name: "clock", CallTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	call := func(what string) (context.Context, time.Duration) {
		t.Helper()
		start := time.Now()
		ctx := s.callCtx()
		end := time.Now()
		dl, ok := ctx.Deadline()
		if !ok || dl.Before(start.Add(timeout)) || dl.After(end.Add(timeout*17/16)) {
			t.Fatalf("%s: deadline %v after its start, want within [%v, %v]",
				what, dl.Sub(start), timeout, timeout*17/16)
		}
		return ctx, start.Sub(s.deadline.Load().opened)
	}
	edges := 0
	for try := 0; try < 50 && edges < 3; try++ {
		first, _ := call("a window's first call")
		opened := s.deadline.Load().opened
		time.Sleep(time.Until(opened.Add(window - window/8)))
		last, into := call("a call at the window's edge")
		if into < window-window/4 || last != first {
			continue // the sleep overshot into the next window, or fell short
		}
		edges++
		time.Sleep(time.Until(opened.Add(window)))
		if next, _ := call("the next window's first call"); next == first {
			t.Fatalf("a call %v after the window opened shares its deadline", time.Since(opened))
		}
	}
	if edges == 0 {
		t.Fatal("no call landed in the last quarter of its window")
	}
}

// TestBackgroundProbingHealsIdlePeer checks that the prober — not a
// caller — pays for recovery: with ProbeInterval set, a healed peer's
// breaker closes again with no application traffic at all.
func TestBackgroundProbingHealsIdlePeer(t *testing.T) {
	net := transport.NewInProcNet()
	watcher := newResilientSite(t, net, "watcher", func(c *Config) {
		c.Resilience = fastResilience()
		c.ProbeInterval = 10 * time.Millisecond
	})
	target := newResilientSite(t, net, "target", nil)
	addEmployeeDB(t, target)
	if _, err := watcher.Link("target"); err != nil {
		t.Fatal(err)
	}
	fc := cutPeerWire(t, net, watcher, "target")
	fc.Cut()

	// The prober alone discovers the partition (no calls are made).
	waitFor := func(want transport.BreakerState, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			ps, err := watcher.PeerStatus("target")
			if err != nil {
				t.Fatal(err)
			}
			if ps.State == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: status stuck at %+v", what, ps)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(transport.BreakerOpen, "partition discovery")

	// And the prober alone heals it.
	fc.Heal()
	waitFor(transport.BreakerClosed, "background recovery")

	// First application call after recovery goes straight through.
	client := security.Principal{Object: watcher.Generator().New(), Domain: watcher.Domain()}
	if _, err := watcher.InvokeRemote("target", client, "payroll", "salaryOf", value.NewString("bob")); err != nil {
		t.Fatalf("post-recovery invoke: %v", err)
	}
}

// TestPeerStatusUnknownPeer checks the health API rejects unlinked names.
func TestPeerStatusUnknownPeer(t *testing.T) {
	net := transport.NewInProcNet()
	s := newResilientSite(t, net, "lone", nil)
	if _, err := s.PeerStatus("nobody"); !errors.Is(err, ErrNotLinked) {
		t.Errorf("PeerStatus(nobody) = %v, want ErrNotLinked", err)
	}
	if up := s.UpPeerNames(); len(up) != 0 {
		t.Errorf("UpPeerNames = %v, want empty", up)
	}
}
