package core

// Tests for the distributed deadlock detector's core machinery: identity
// minting and victim order, adoption refcounting, probe hygiene (TTL,
// path cap, dedup, stale targets), abort preconditions, and a simulated
// two-site edge chase driven through real blockBegin registrations. The
// full stack — probes over a real TCP wire — is exercised in
// internal/hadas/deadlock_test.go.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/value"
)

// meshForwarder routes probes between in-process detectors by site name,
// standing in for the wire, and counts forwards for the cap tests.
type meshForwarder struct {
	mu   sync.Mutex
	dets map[string]*Detector
	hops atomic.Int64
}

func newMesh() *meshForwarder {
	return &meshForwarder{dets: make(map[string]*Detector)}
}

func (m *meshForwarder) add(site string) *Detector {
	d := NewDetector(site, m)
	m.mu.Lock()
	m.dets[site] = d
	m.mu.Unlock()
	return d
}

func (m *meshForwarder) ForwardProbe(peer string, p Probe) (Verdict, error) {
	m.hops.Add(1)
	m.mu.Lock()
	d := m.dets[peer]
	m.mu.Unlock()
	if d == nil {
		return Verdict{}, fmt.Errorf("no such site %q", peer)
	}
	return d.HandleProbe(p), nil
}

func TestGIDOrderDeterministic(t *testing.T) {
	cases := []struct {
		a, b string
		less bool
	}{
		{"alpha:1", "alpha:2", true},
		{"alpha:2", "alpha:1", false},
		{"alpha:10", "alpha:9", false}, // numeric, not lexicographic, on seq
		{"alpha:5", "beta:1", true},    // origin site decides first
		{"beta:1", "alpha:5", false},
		{"mangled", "alpha:1", false}, // malformed orders as (whole, 0)
		{"alpha:1", "alpha:1", false},
	}
	for _, c := range cases {
		if got := gidLess(c.a, c.b); got != c.less {
			t.Errorf("gidLess(%q, %q) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
	victim := chooseVictim([]ProbeStep{
		{Chain: "siteB:3"}, {Chain: "siteA:7"}, {Chain: "siteB:1"},
	})
	if victim != "siteA:7" {
		t.Errorf("victim = %q, want siteA:7 (lowest origin wins)", victim)
	}
}

// TestAdoptSharesOneIncarnation: concurrent arrivals of the same remote
// chain share one local incarnation, and the identity is forgotten only
// after every adoption released — after which probes naming it dead-end.
func TestAdoptSharesOneIncarnation(t *testing.T) {
	d := newMesh().add("here")
	a1, r1 := d.Adopt("far:9")
	a2, r2 := d.Adopt("far:9")
	if a1.ch != a2.ch {
		t.Error("two adoptions of one identity produced distinct incarnations")
	}
	r1()
	if v := d.HandleProbe(Probe{Initiator: "x:1", Target: "far:9", TTL: 4}); v != (Verdict{}) {
		t.Errorf("probe on still-adopted chain = %+v, want dead-end zero verdict", v)
	}
	r2()
	d.mu.Lock()
	_, known := d.chains["far:9"]
	d.mu.Unlock()
	if known {
		t.Error("identity survived its last release")
	}
}

// TestProbeHygieneCaps: exhausted TTLs, over-long paths, and duplicate
// probes inside the dedup window all drop to a zero verdict.
func TestProbeHygieneCaps(t *testing.T) {
	d := newMesh().add("here")
	ac, release := d.Adopt("far:1")
	defer release()
	_ = ac

	if v := d.HandleProbe(Probe{Initiator: "x:1", Target: "far:1", TTL: 0}); v != (Verdict{}) {
		t.Errorf("TTL-exhausted probe = %+v, want zero", v)
	}
	long := make([]ProbeStep, maxProbePath+1)
	if v := d.HandleProbe(Probe{Initiator: "x:1", Target: "far:1", TTL: 8, Path: long}); v != (Verdict{}) {
		t.Errorf("over-long path = %+v, want zero", v)
	}
	// First probe is processed (dead-ends on the idle chain), the immediate
	// duplicate is suppressed by the dedup window before any graph work.
	_ = d.HandleProbe(Probe{Initiator: "dup:1", Target: "far:1", TTL: 8})
	d.mu.Lock()
	_, seen := d.seen[probeKey{initiator: "dup:1", target: "far:1"}]
	d.mu.Unlock()
	if !seen {
		t.Fatal("processed probe not recorded in the dedup window")
	}
	if v := d.HandleProbe(Probe{Initiator: "dup:1", Target: "far:1", TTL: 8}); v != (Verdict{}) {
		t.Errorf("duplicate inside dedup window = %+v, want zero", v)
	}
}

// TestAbortRequiresExactBlock: a verdict may only abort a chain that is
// currently blocked at this site on the very object the cycle names —
// anything else (idle chain, different object, unknown chain) is a no-op.
func TestAbortRequiresExactBlock(t *testing.T) {
	d := newMesh().add("here")
	b := NewBuilder(gen, "Guarded", WithPolicy(allowAllPolicy()), Serialized())
	b.FixedScriptMethod("m", `fn() { return 1; }`)
	obj := b.MustBuild()
	other := NewBuilder(gen, "Other", WithPolicy(allowAllPolicy()), Serialized()).MustBuild()

	ch := newCallChain(obj, "m")
	abortCh, end := d.blockBegin(ch, obj)
	defer end()
	gid := ch.GID()
	if gid == "" {
		t.Fatal("blockBegin did not mint an identity")
	}

	if d.abortIfBlocked(Verdict{Victim: "nobody:1", VictimObj: objLabel(obj), Cycle: "x"}) {
		t.Error("aborted an unknown chain")
	}
	if d.abortIfBlocked(Verdict{Victim: gid, VictimObj: objLabel(other), Cycle: "x"}) {
		t.Error("aborted a chain blocked on a different object than the cycle names")
	}
	select {
	case desc := <-abortCh:
		t.Fatalf("spurious abort delivered: %q", desc)
	default:
	}
	if !d.abortIfBlocked(Verdict{Victim: gid, VictimObj: objLabel(obj), Cycle: "the-cycle"}) {
		t.Error("exact-match abort did not fire")
	}
	if desc := <-abortCh; desc != "the-cycle" {
		t.Errorf("abort carried %q, want the-cycle", desc)
	}

	// Once the wait resolves, even an exact-looking verdict is inert.
	end()
	if d.abortIfBlocked(Verdict{Victim: gid, VictimObj: objLabel(obj), Cycle: "x"}) {
		t.Error("aborted a chain that is no longer blocked")
	}
}

// TestTwoSiteEdgeChase fabricates the canonical A→B→A state across two
// in-process detectors — chain A holds lockA and blocks remotely on
// lockB, chain B the mirror image — and drives detection through real
// blockBegin registrations. Exactly the deterministic victim (lowest
// identity) must be aborted, with the full cycle in the description.
func TestTwoSiteEdgeChase(t *testing.T) {
	mesh := newMesh()
	da := mesh.add("siteA")
	db := mesh.add("siteB")

	lockA := NewBuilder(gen, "LockA", WithPolicy(allowAllPolicy()), Serialized()).MustBuild()
	lockB := NewBuilder(gen, "LockB", WithPolicy(allowAllPolicy()), Serialized()).MustBuild()

	// Chain A: minted at siteA, holds lockA, outbound to siteB.
	chainA := newCallChain(lockA, "hop")
	gidA := da.register(chainA)
	// Chain B: minted at siteB, holds lockB, outbound to siteA.
	chainB := newCallChain(lockB, "hop")
	gidB := db.register(chainB)
	if !gidLess(gidA, gidB) {
		t.Fatalf("expected %q < %q (same-process seq order)", gidA, gidB)
	}

	da.mu.Lock()
	da.outbound[chainA] = &outboundEdge{peer: "siteB", n: 1}
	da.mu.Unlock()
	db.mu.Lock()
	db.outbound[chainB] = &outboundEdge{peer: "siteA", n: 1}
	db.mu.Unlock()

	// The adopted incarnations at the far sites, blocked on the locks.
	incA, releaseA := db.Adopt(gidA) // chain A arrived at siteB
	defer releaseA()
	incB, releaseB := da.Adopt(gidB) // chain B arrived at siteA
	defer releaseB()

	da.mu.Lock()
	da.holder[lockA] = chainA
	da.mu.Unlock()
	db.mu.Lock()
	db.holder[lockB] = chainB
	db.mu.Unlock()

	abortA, endA := db.blockBegin(incA.ch, lockB)
	defer endA()
	abortB, endB := da.blockBegin(incB.ch, lockA)
	defer endB()

	// The victim is chain A (lower identity), blocked at siteB on lockB.
	select {
	case desc := <-abortA:
		for _, want := range []string{"cross-site cycle", gidA, gidB, "siteA", "siteB",
			objLabel(lockA), objLabel(lockB)} {
			if !strings.Contains(desc, want) {
				t.Errorf("cycle description missing %q: %s", want, desc)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("edge chase never aborted the victim")
	}
	select {
	case desc := <-abortB:
		t.Fatalf("non-victim chain aborted too: %q", desc)
	case <-time.After(3 * reprobeInterval):
	}
}

// TestSevenSiteRingRespectsCaps wires a 7-site forwarding ring that never
// closes a cycle for the chased initiator: the probe must die by TTL (or
// dedup on the second lap), never loop forever or abort anything.
func TestSevenSiteRingRespectsCaps(t *testing.T) {
	const ring = 7
	mesh := newMesh()
	dets := make([]*Detector, ring)
	for i := range dets {
		dets[i] = mesh.add(fmt.Sprintf("ring%d", i))
	}

	// At site i: chain r<i> waits for obj<i>, held by chain r<i+1>, which
	// is off inside a remote call to site i+1 — a forwarding loop with no
	// cycle for an outside initiator.
	incs := make([]*callChain, ring)
	for i := 0; i < ring; i++ {
		gid := fmt.Sprintf("ringchain:%d", i)
		ac, release := dets[i].Adopt(gid)
		defer release()
		incs[i] = ac.ch
	}
	for i := 0; i < ring; i++ {
		next := (i + 1) % ring
		obj := NewBuilder(gen, fmt.Sprintf("Ring%d", i),
			WithPolicy(allowAllPolicy()), Serialized()).MustBuild()
		holder, releaseH := dets[i].Adopt(fmt.Sprintf("ringchain:%d", next))
		defer releaseH()
		dets[i].mu.Lock()
		dets[i].blocked[incs[i]] = &blockedWait{obj: obj}
		dets[i].holder[obj] = holder.ch
		dets[i].outbound[holder.ch] = &outboundEdge{peer: fmt.Sprintf("ring%d", next), n: 1}
		dets[i].mu.Unlock()
	}

	v := dets[0].HandleProbe(Probe{Initiator: "outsider:1", Target: "ringchain:0", TTL: DefaultProbeTTL})
	if v != (Verdict{}) {
		t.Errorf("acyclic ring produced a verdict: %+v", v)
	}
	if hops := mesh.hops.Load(); hops > DefaultProbeTTL {
		t.Errorf("probe forwarded %d times, TTL %d should cap it", hops, DefaultProbeTTL)
	}

	// A tight TTL stops the chase after exactly TTL-1 forwards even with
	// the dedup window cleared out of the way.
	mesh.hops.Store(0)
	v = dets[0].HandleProbe(Probe{Initiator: "outsider:2", Target: "ringchain:0", TTL: 3})
	if v != (Verdict{}) {
		t.Errorf("TTL-capped chase produced a verdict: %+v", v)
	}
	if hops := mesh.hops.Load(); hops != 2 {
		t.Errorf("TTL 3 forwarded %d times, want 2", hops)
	}
}

// TestAdmissionTimeoutNamesBothSides pins the backstop's diagnostics: the
// error must name the blocked object, the waiting chain, and the chain
// holding the admission.
func TestAdmissionTimeoutNamesBothSides(t *testing.T) {
	reg := NewBehaviorRegistry()
	block := make(chan struct{})
	entered := make(chan struct{})
	reg.Register("stuck.body", func(*Invocation, []value.Value) (value.Value, error) {
		close(entered)
		<-block
		return value.Null, nil
	})
	b := NewBuilder(gen, "Diag", WithPolicy(allowAllPolicy()), WithRegistry(reg),
		Serialized(), AdmissionTimeout(50*time.Millisecond))
	body, _ := reg.Lookup("stuck.body")
	b.FixedMethod("hold", body)
	b.FixedScriptMethod("leaf", `fn() { return 1; }`)
	obj := b.MustBuild()

	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		obj.Invoke(stranger(), "hold")
	}()
	<-entered
	defer func() { close(block); <-holderDone }()

	_, err := obj.Invoke(stranger(), "leaf")
	if !errors.Is(err, ErrAdmissionTimeout) {
		t.Fatalf("err = %v, want ErrAdmissionTimeout", err)
	}
	msg := err.Error()
	for _, want := range []string{
		objLabel(obj), // the blocked object
		"chain#",      // the waiting chain's identity
		"held by",     // the holding side
		"[Diag.hold]", // the holder is identified by its entry point
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("timeout diagnostics missing %q: %s", want, msg)
		}
	}
}
