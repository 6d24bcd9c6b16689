package transport

import (
	"sync"
	"sync/atomic"
)

// FaultNet is a fault-schedule driver over an InProcNet: it owns, per
// ordered site pair, the failure state that must outlive any single
// connection. A site whose Dial function goes through DialFrom gets a
// FaultConn wired to the pair's shared gate and rules, so a partition or
// an armed response-drop stays in force across redials — a ResilientConn
// that reconnects after ErrClosed cannot tunnel through a cut that has not
// been healed, which per-connection FaultConns silently allow (the site's
// internal redial path dials raw and bypasses any conn-level wrapper).
//
// Directionality is explicit: Cut("a","b") severs only a→b traffic; a
// symmetric partition cuts both ordered pairs. The rule table is shared
// by reference with every conn of the pair and read lock-free on the call
// path, so register the verbs a schedule will ever need (FaultLink.Rule)
// before traffic starts and arm them later through their dynamic fields
// (FaultRule.DropNext), which are atomic.
type FaultNet struct {
	inner *InProcNet

	mu    sync.Mutex
	links map[[2]string]*FaultLink
}

// FaultLink is the durable fault state of one ordered site pair.
type FaultLink struct {
	gate  atomic.Bool
	seed  int64
	rules map[string]*FaultRule
}

// Cut severs the pair: every conn sharing this link's gate fails until
// Heal, including conns dialed while the cut is in force.
func (l *FaultLink) Cut() { l.gate.Store(true) }

// Heal restores a pair severed by Cut.
func (l *FaultLink) Heal() { l.gate.Store(false) }

// Rule returns the link's rule for a verb, creating it if absent. The
// table is read lock-free by every conn of the pair, so create every rule
// a schedule needs before traffic starts; the shared rule's counters and
// armed state then aggregate across redials.
func (l *FaultLink) Rule(verb string) *FaultRule {
	if r, ok := l.rules[verb]; ok {
		return r
	}
	r := &FaultRule{}
	l.rules[verb] = r
	return r
}

// NewFaultNet wraps an in-process network with fault scheduling.
func NewFaultNet(inner *InProcNet) *FaultNet {
	return &FaultNet{inner: inner, links: make(map[[2]string]*FaultLink)}
}

// Inner returns the wrapped network (sites still Listen on it directly).
func (n *FaultNet) Inner() *InProcNet { return n.inner }

// Link returns the durable fault state for the ordered pair from→to,
// creating it on first use.
func (n *FaultNet) Link(from, to string) *FaultLink {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := [2]string{from, to}
	l, ok := n.links[key]
	if !ok {
		l = &FaultLink{rules: make(map[string]*FaultRule)}
		l.seed = int64(len(n.links))
		n.links[key] = l
	}
	return l
}

// DialFrom dials to on behalf of from, wrapping the connection in a
// FaultConn wired to the pair's shared gate and rules. Use it as the
// site's Config.Dial so every connection — including internal redials —
// passes through the schedule.
func (n *FaultNet) DialFrom(from, to string) (Conn, error) {
	inner, err := n.inner.Dial(to)
	if err != nil {
		return nil, err
	}
	l := n.Link(from, to)
	return &FaultConn{
		Inner:     inner,
		Gate:      &l.gate,
		Seed:      l.seed,
		VerbRules: l.rules,
	}, nil
}

// Cut severs both ordered pairs between two sites (a symmetric partition).
func (n *FaultNet) Cut(a, b string) {
	n.Link(a, b).Cut()
	n.Link(b, a).Cut()
}

// Heal restores both ordered pairs between two sites.
func (n *FaultNet) Heal(a, b string) {
	n.Link(a, b).Heal()
	n.Link(b, a).Heal()
}

// HealAll restores every pair the net has ever cut.
func (n *FaultNet) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.links {
		l.Heal()
	}
}
