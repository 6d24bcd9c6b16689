package hadas

import (
	"context"

	"repro/internal/core"
	"repro/internal/wire"
)

// Distributed deadlock detection, site side. The core Detector owns the
// registries and the chase algorithm (internal/core/deadlock.go); this
// file is its wire adapter: the probe verb and its handler. A deadlock
// sentinel crosses the wire as an invoke reply's outcome code (records.go).
//
// The probe verb is idempotent by construction — HandleProbe only reads
// the waits-for graph and (at most) re-delivers the same abort to the
// same victim, which the blocked-chain registry dedups — so ResilientConn
// may retry it after a transport failure (see retrySafeVerb).
const verbProbe = "hadas.deadlock.probe"

var (
	_ core.ProbeForwarder = (*Site)(nil)
	_ core.DetectorHost   = (*Site)(nil)
)

// DeadlockDetector implements core.DetectorHost: objects hosted at this
// site (whose resolver is the site) keep their waits-for edges in it.
func (s *Site) DeadlockDetector() *core.Detector { return s.det }

// ForwardProbe implements core.ProbeForwarder: carry an edge-chasing
// probe to a peer and bring back its verdict.
func (s *Site) ForwardProbe(peer string, p core.Probe) (core.Verdict, error) {
	req := probeReq(p)
	var rep verdictReply
	if err := s.callPeer(peer, verbProbe, "", req.Fields, rep.Fields); err != nil {
		return core.Verdict{}, err
	}
	return core.Verdict(rep), nil
}

// handleProbe continues an incoming chase through this site's graph.
func (s *Site) handleProbe(_ context.Context, req *probeReq) (func(*wire.Codec), error) {
	rep := verdictReply(s.det.HandleProbe(core.Probe(*req)))
	return rep.Fields, nil
}
