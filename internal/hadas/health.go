package hadas

import (
	"sort"
	"time"

	"repro/internal/transport"
)

// A peer's health is the circuit breaker of its ResilientConn, built with
// its Vicinity row: the site keeps no copy of it.

// PeerStatus returns the breaker of the connection to one linked peer.
// A peer never dialed reports a closed breaker with no failures.
func (s *Site) PeerStatus(peerName string) (transport.BreakerStatus, error) {
	res, err := s.connTo(peerName)
	if err != nil {
		return transport.BreakerStatus{}, err
	}
	return res.Status(), nil
}

// UpPeerNames lists the linked peers whose breaker is not open, sorted: a
// peer whose cooldown has run out is half-open, and its next call probes.
// Interop programs and other fan-outs route with this instead of
// rediscovering dead peers one timeout at a time.
func (s *Site) UpPeerNames() []string {
	s.peerMu.RLock()
	var out []string
	for name, p := range s.peers {
		if p.res.Status().State != transport.BreakerOpen {
			out = append(out, name)
		}
	}
	s.peerMu.RUnlock()
	sort.Strings(out)
	return out
}

// probeLoop pings every peer each ProbeInterval. Probing keeps the
// breakers honest during idle periods and — because Ping drives the
// breaker's half-open transition — heals an open circuit as soon as the
// peer answers again, without waiting for application traffic.
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
// redialer takes it); a link this site only accepted is dialed here.
// Errors are already folded into breaker state; nothing to do with them.
func (s *Site) probePeers() {
	s.peerMu.RLock()
	conns := make([]*transport.ResilientConn, 0, len(s.peers))
	for _, p := range s.peers {
		conns = append(conns, p.res)
	}
	s.peerMu.RUnlock()
	for _, rc := range conns {
		_ = rc.Ping(s.callCtx())
	}
}
