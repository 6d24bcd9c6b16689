package hadas

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/value"
)

// Distributed deadlock detection, site side. The core Detector owns the
// registries and the chase algorithm (internal/core/deadlock.go); this
// file is its wire adapter: the probe verb, the probe/verdict codec, and
// the re-tagging of deadlock sentinels that crossed the wire as text.
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
	resp, err := s.callPeer(peer, verbProbe, probeValue(p))
	if err != nil {
		return core.Verdict{}, err
	}
	m, ok := resp.Map()
	if !ok {
		return core.Verdict{}, fmt.Errorf("probe to %s: malformed verdict", peer)
	}
	return core.Verdict{
		Cycle:     field(m, "cycle"),
		Victim:    field(m, "victim"),
		VictimObj: field(m, "victim_obj"),
	}, nil
}

// handleProbe continues an incoming chase through this site's graph.
func (s *Site) handleProbe(m map[string]value.Value) (value.Value, error) {
	p := core.Probe{
		Initiator: field(m, "initiator"),
		Target:    field(m, "target"),
	}
	if ttl, ok := m["ttl"].Int(); ok {
		p.TTL = int(ttl)
	}
	if steps, ok := m["path"].List(); ok {
		p.Path = make([]core.ProbeStep, 0, len(steps))
		for _, sv := range steps {
			sm, ok := sv.Map()
			if !ok {
				return value.Null, fmt.Errorf("%w: probe path step is not a map", core.ErrArity)
			}
			p.Path = append(p.Path, core.ProbeStep{
				Chain:  field(sm, "chain"),
				Site:   field(sm, "site"),
				Object: field(sm, "object"),
				Holder: field(sm, "holder"),
			})
		}
	}
	v := s.det.HandleProbe(p)
	return value.NewMap(map[string]value.Value{
		"cycle":      value.NewString(v.Cycle),
		"victim":     value.NewString(v.Victim),
		"victim_obj": value.NewString(v.VictimObj),
	}), nil
}

func probeValue(p core.Probe) value.Value {
	steps := make([]value.Value, len(p.Path))
	for i, st := range p.Path {
		steps[i] = value.NewMap(map[string]value.Value{
			"chain":  value.NewString(st.Chain),
			"site":   value.NewString(st.Site),
			"object": value.NewString(st.Object),
			"holder": value.NewString(st.Holder),
		})
	}
	return value.NewMap(map[string]value.Value{
		"initiator": value.NewString(p.Initiator),
		"target":    value.NewString(p.Target),
		"ttl":       value.NewInt(int64(p.TTL)),
		"path":      value.NewList(steps),
	})
}

// rewrapRemote restores the error identity of deadlock sentinels that
// crossed the wire inside a RemoteError's text: a victim aborted at the
// blocking site must still satisfy errors.Is(err, core.ErrDeadlock) at its
// origin, or callers (and the chaos invariant checker) would misclassify
// the abort as a generic remote failure. The full remote message — which
// names the whole cross-site cycle — is preserved.
func rewrapRemote(err error) error {
	var re *transport.RemoteError
	if err == nil || !errors.As(err, &re) {
		return err
	}
	switch {
	case strings.Contains(re.Msg, core.ErrDeadlock.Error()):
		return fmt.Errorf("%w: remote: %s", core.ErrDeadlock, re.Msg)
	case strings.Contains(re.Msg, core.ErrAdmissionTimeout.Error()):
		return fmt.Errorf("%w: remote: %s", core.ErrAdmissionTimeout, re.Msg)
	}
	return err
}
