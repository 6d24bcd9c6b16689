package hadas

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/transport"
)

// PeerStatus is one row of the site's peer-health table: the breaker view
// of a linked site, derived from live traffic and background probes.
type PeerStatus struct {
	// Peer is the linked site's name.
	Peer string
	// State is the circuit-breaker state of the connection to the peer.
	State transport.BreakerState
	// ConsecutiveFailures counts transport failures since the last success.
	ConsecutiveFailures int
	// LastError is the most recent transport failure, nil after a success.
	LastError error
}

// Up reports whether calls to the peer are currently admitted (the breaker
// is not open). Half-open counts as up: the next call is the probe.
func (ps PeerStatus) Up() bool { return ps.State != transport.BreakerOpen }

// PeerStatus returns the health-table row for one linked peer.
func (s *Site) PeerStatus(peerName string) (PeerStatus, error) {
	s.peerMu.RLock()
	p, ok := s.peers[peerName]
	if !ok {
		s.peerMu.RUnlock()
		return PeerStatus{}, fmt.Errorf("%w: %q", ErrNotLinked, peerName)
	}
	res := p.res
	s.peerMu.RUnlock()
	return peerRow(peerName, res), nil
}

// PeerHealth returns the health table for every linked peer, sorted by
// peer name. Peers never dialed report a closed breaker with no failures.
func (s *Site) PeerHealth() []PeerStatus {
	s.peerMu.RLock()
	type entry struct {
		name string
		res  *transport.ResilientConn
	}
	rows := make([]entry, 0, len(s.peers))
	for name, p := range s.peers {
		rows = append(rows, entry{name, p.res})
	}
	s.peerMu.RUnlock()

	out := make([]PeerStatus, 0, len(rows))
	for _, e := range rows {
		out = append(out, peerRow(e.name, e.res))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// UpPeerNames lists the linked peers currently admitting calls (breaker
// not open), sorted. Interop programs and other fan-outs route with this
// instead of rediscovering dead peers one timeout at a time.
func (s *Site) UpPeerNames() []string {
	var out []string
	for _, ps := range s.PeerHealth() {
		if ps.Up() {
			out = append(out, ps.Peer)
		}
	}
	return out
}

func peerRow(name string, res *transport.ResilientConn) PeerStatus {
	ps := PeerStatus{Peer: name, State: transport.BreakerClosed}
	if res != nil {
		st := res.Status()
		ps.State = st.State
		ps.ConsecutiveFailures = st.ConsecutiveFailures
		ps.LastError = st.LastError
	}
	return ps
}

// probeLoop pings every peer each ProbeInterval. Probing keeps the health
// table honest during idle periods and — because Ping drives the breaker's
// half-open transition — heals an open circuit as soon as the peer answers
// again, without waiting for application traffic.
func (s *Site) probeLoop() {
	t := time.NewTicker(s.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopProbe:
			return
		case <-t.C:
			s.probePeers()
		}
	}
}

// probePeers pings each peer's connection once, outside the peer lock (the
// redialer takes it). Errors are already folded into breaker state; nothing
// to do with them here.
func (s *Site) probePeers() {
	s.peerMu.RLock()
	conns := make([]*transport.ResilientConn, 0, len(s.peers))
	for _, p := range s.peers {
		if p.res != nil {
			conns = append(conns, p.res)
		}
	}
	s.peerMu.RUnlock()
	for _, rc := range conns {
		_ = rc.Ping(s.callCtx())
	}
}
