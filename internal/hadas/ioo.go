package hadas

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/security"
	"repro/internal/value"
	"repro/internal/wire"
)

// buildIOO constructs the site's InterOperability Object (Figure 2): its
// state reflects the Home, Vicinity and Interop containers, its fixed
// methods expose the cooperation operations (Link, Import) to local
// callers and a small query interface (apos, peers, runProgram) that also
// forms the relayed interface of the IOO's own ambassadors.
func buildIOO(s *Site) (*core.Object, error) {
	// Link and Import change the site's topology: local administrators only.
	adminACL := security.NewACL(
		security.AllowDomain(s.cfg.Domain),
		security.DenyAll(),
	)

	b := s.NewAPOBuilder("IOO")
	b.FixedData("kind", value.NewString("ioo"))
	b.FixedData("site", value.NewString(s.cfg.Name))
	// The containers are the IOO's state: each item is computed from its
	// container on every read, so self-representation cannot go stale and
	// costs nothing while nobody asks.
	b.ComputedData("home", func() value.Value { return stringList(s.APONames()) })
	b.ComputedData("vicinity", func() value.Value { return stringList(s.PeerNames()) })
	b.ComputedData("interop", func() value.Value { return stringList(s.ProgramNames()) })

	lookup := func(name string) core.Body {
		body, err := s.behaviors.Lookup(name)
		if err != nil {
			panic("hadas: behavior " + name + " not registered") // registerBehaviors precedes buildIOO
		}
		return body
	}
	b.FixedMethod("apos", lookup(behaviorAPOs))
	b.FixedMethod("peers", lookup(behaviorPeers))
	// upPeers lists the peers whose breaker is not open,
	// so interop programs fan out over reachable sites instead of paying a
	// timeout per dead peer.
	b.FixedMethod("upPeers", lookup(behaviorUpPeers))
	b.FixedMethod("runProgram", lookup(behaviorRunProgram))
	b.FixedMethod("link", lookup(behaviorLink), core.WithACL(adminACL))
	b.FixedMethod("importAPO", lookup(behaviorImport), core.WithACL(adminACL))
	// dispatchAgent is open beyond admins: a visiting agent continues its
	// journey by asking its host's IOO to dispatch it onward. The policy
	// still gates it (the agent's domain must be trusted here).
	b.FixedMethod("dispatchAgent", lookup(behaviorDispatchAgent))

	ioo, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("build IOO: %w", err)
	}
	return ioo, nil
}

// iooAmbassadorImage instantiates an Ambassador of this site's IOO for a
// peer's Vicinity: it relays the query interface (apos, peers, runProgram)
// back to this site.
func (s *Site) iooAmbassadorImage() ([]byte, error) {
	spec := AmbassadorSpec{Relay: []string{"apos", "peers", "runProgram"}}

	s.mu.Lock()
	if s.ambassadorSpecs == nil {
		s.ambassadorSpecs = make(map[string]AmbassadorSpec)
	}
	s.ambassadorSpecs["ioo"] = spec
	s.mu.Unlock()

	img, err := s.instantiateAmbassador(s.ioo, "ioo")
	if err != nil {
		return nil, err
	}
	return wire.EncodeImage(img), nil
}

// ---- Interop programs (the Coordination level of §5) ----

// AddProgram installs a coordination-level program as a method of the IOO
// ("Interop: a (methods) container whose methods are coordination-level
// programs"). The program is MScript, so it can travel, and runs with the
// IOO's authority: ctx.lookup reaches Home members, Vicinity ambassadors
// and hosted APO ambassadors by name.
func (s *Site) AddProgram(name, src string) error {
	if _, err := s.ioo.InvokeSelf("addMethod",
		value.NewString(name), value.NewString(src)); err != nil {
		return fmt.Errorf("add program %q: %w", name, err)
	}
	return nil
}

// RemoveProgram deletes a coordination program.
func (s *Site) RemoveProgram(name string) error {
	if _, err := s.ioo.InvokeSelf("deleteMethod", value.NewString(name)); err != nil {
		return fmt.Errorf("remove program %q: %w", name, err)
	}
	return nil
}

// ProgramNames lists installed coordination programs in install order: the
// IOO's extensible methods, since its own are all fixed (buildIOO).
func (s *Site) ProgramNames() []string { return s.ioo.ExtMethodNames() }

// RunProgram executes a coordination program locally.
func (s *Site) RunProgram(name string, args ...value.Value) (value.Value, error) {
	return s.ioo.InvokeSelf(name, args...)
}
