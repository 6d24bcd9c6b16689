package hadas

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/security"
	"repro/internal/value"
)

// AmbassadorSpec controls what an APO's Ambassador carries. "Object
// mutability can be used to dynamically determine how to split a
// component's functionality between the APO and the Ambassador" — Relay
// methods stay at the origin and are forwarded to; Scripts execute locally
// at the host; CopyData snapshots APO state into the ambassador.
type AmbassadorSpec struct {
	// Relay lists origin methods the ambassador forwards to ("thin" split).
	Relay []string
	// Scripts maps method names to MScript sources executed at the host
	// ("fat" split — functionality migrated into the ambassador).
	Scripts map[string]string
	// CopyData lists APO data items whose current values are copied into
	// the ambassador's extensible section.
	CopyData []string
	// Data adds extra extensible data items.
	Data map[string]value.Value
	// Install overrides the default installation script. It runs when the
	// importing IOO "passes to it an installation context and invokes the
	// Ambassador, which in turn installs itself".
	Install string
	// GrantHost, when set, appends an allow-entry for the named domain
	// pattern to every relayed/scripted method (restricting use of the
	// ambassador to its host, e.g. "tokyo" or "host.*").
	GrantHost string
}

// defaultInstall stores the installation context the host passes in.
const defaultInstall = `fn(context) { self.set("context", context); return "installed"; }`

// SetAmbassadorSpec registers the split for an APO's future exports.
// Without one, every visible non-meta method of the APO is relayed.
func (s *Site) SetAmbassadorSpec(apoName string, spec AmbassadorSpec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ambassadorSpecs == nil {
		s.ambassadorSpecs = make(map[string]AmbassadorSpec)
	}
	s.ambassadorSpecs[apoName] = spec
}

func (s *Site) ambassadorSpec(apo *core.Object, apoName string) AmbassadorSpec {
	s.mu.Lock()
	spec, ok := s.ambassadorSpecs[apoName]
	s.mu.Unlock()
	if ok {
		return spec
	}
	// Default: relay the APO's whole visible interface.
	var relay []string
	for _, m := range apo.MethodNames(security.Principal{}) {
		if !core.IsReservedName(m) {
			relay = append(relay, m)
		}
	}
	return AmbassadorSpec{Relay: relay}
}

// instantiateAmbassador builds an Ambassador object for an APO and returns
// its image, ready to travel. The ambassador:
//
//   - carries its origin's identity ("each Ambassador has exactly one
//     origin and is hosted by exactly one IOO"),
//   - keeps its origin's trust domain (it remains "owned and maintained by
//     its origin APO"),
//   - admits only its origin through the mutating meta-methods and hides
//     them from the host (the §5 encapsulation/security duality).
func (s *Site) instantiateAmbassador(apo *core.Object, apoName string) (core.Image, error) {
	spec := s.ambassadorSpec(apo, apoName)

	metaACL := security.NewACL(
		security.AllowObject(apo.ID()),
		security.AllowObject(s.ioo.ID()),
		security.DenyAll(),
	)
	b := core.NewBuilder(s.gen, apo.Class()+"Ambassador",
		core.InDomain(s.cfg.Domain),
		core.WithRegistry(s.behaviors),
		core.MetaACL(metaACL),
		core.MetaHidden(),
	)
	b.FixedData("kind", value.NewString("ambassador"))
	b.FixedData("originObject", value.NewString(apo.ID().String()))
	b.FixedData("originSite", value.NewString(s.cfg.Name))
	b.FixedData("apoName", value.NewString(apoName))
	b.ExtData("context", value.Null)

	var methodACL security.ACL
	if spec.GrantHost != "" {
		methodACL = security.NewACL(
			security.AllowObject(apo.ID()),
			security.AllowDomain(spec.GrantHost),
			security.DenyAll(),
		)
	}

	relayBody, err := s.behaviors.Lookup(behaviorRelay)
	if err != nil {
		return core.Image{}, err
	}
	for _, m := range spec.Relay {
		if methodACL.Empty() {
			b.ExtMethod(m, relayBody)
		} else {
			b.ExtMethod(m, relayBody, core.WithACL(methodACL))
		}
	}
	for name, src := range spec.Scripts {
		if methodACL.Empty() {
			b.ExtScriptMethod(name, src)
		} else {
			b.ExtScriptMethod(name, src, core.WithACL(methodACL))
		}
	}
	for _, name := range spec.CopyData {
		v, err := apo.Get(apo.Principal(), name)
		if err != nil {
			return core.Image{}, fmt.Errorf("ambassador CopyData %q: %w", name, err)
		}
		b.ExtData(name, v.Clone())
	}
	for name, v := range spec.Data {
		b.ExtData(name, v.Clone())
	}

	install := spec.Install
	if install == "" {
		install = defaultInstall
	}
	b.FixedScriptMethod("install", install)

	amb, err := b.Build()
	if err != nil {
		return core.Image{}, fmt.Errorf("instantiate ambassador for %q: %w", apoName, err)
	}
	return amb.Snapshot()
}

// Behavior names registered at every HADAS site.
const (
	behaviorRelay         = "hadas.relay"
	behaviorAPOs          = "hadas.apos"
	behaviorPeers         = "hadas.peers"
	behaviorUpPeers       = "hadas.upPeers"
	behaviorRunProgram    = "hadas.runProgram"
	behaviorLink          = "hadas.link"
	behaviorImport        = "hadas.import"
	behaviorDispatchAgent = "hadas.dispatchAgent"
)

// registerBehaviors installs the framework's native bodies; every HADAS
// site shares these, so ambassadors mentioning them reconstruct anywhere
// in the federation.
func registerBehaviors(reg *core.BehaviorRegistry) {
	reg.Register(behaviorRelay, relayBehavior)
	reg.Register(behaviorAPOs, func(inv *core.Invocation, _ []value.Value) (value.Value, error) {
		site, err := siteOf(inv)
		if err != nil {
			return value.Null, err
		}
		return stringList(site.APONames()), nil
	})
	reg.Register(behaviorPeers, func(inv *core.Invocation, _ []value.Value) (value.Value, error) {
		site, err := siteOf(inv)
		if err != nil {
			return value.Null, err
		}
		return stringList(site.PeerNames()), nil
	})
	reg.Register(behaviorUpPeers, func(inv *core.Invocation, _ []value.Value) (value.Value, error) {
		site, err := siteOf(inv)
		if err != nil {
			return value.Null, err
		}
		return stringList(site.UpPeerNames()), nil
	})
	reg.Register(behaviorRunProgram, func(inv *core.Invocation, args []value.Value) (value.Value, error) {
		if len(args) == 0 {
			return value.Null, fmt.Errorf("%w: runProgram needs a program name", core.ErrArity)
		}
		name := args[0].String()
		rest, _ := value.Coerce(value.NewList(args[1:]), value.KindList)
		l, _ := rest.List()
		return inv.Invoke(name, l...)
	})
	reg.Register(behaviorLink, func(inv *core.Invocation, args []value.Value) (value.Value, error) {
		site, err := siteOf(inv)
		if err != nil {
			return value.Null, err
		}
		if len(args) == 0 {
			return value.Null, fmt.Errorf("%w: link needs an address", core.ErrArity)
		}
		peerName, err := site.Link(args[0].String())
		if err != nil {
			return value.Null, err
		}
		return value.NewString(peerName), nil
	})
	reg.Register(behaviorImport, func(inv *core.Invocation, args []value.Value) (value.Value, error) {
		site, err := siteOf(inv)
		if err != nil {
			return value.Null, err
		}
		if len(args) < 2 {
			return value.Null, fmt.Errorf("%w: importAPO needs (site, apo)", core.ErrArity)
		}
		localName, err := site.Import(args[0].String(), args[1].String())
		if err != nil {
			return value.Null, err
		}
		return value.NewString(localName), nil
	})
	reg.Register(behaviorDispatchAgent, func(inv *core.Invocation, args []value.Value) (value.Value, error) {
		site, err := siteOf(inv)
		if err != nil {
			return value.Null, err
		}
		if len(args) < 2 {
			return value.Null, fmt.Errorf("%w: dispatchAgent needs (name, peer)", core.ErrArity)
		}
		return site.DispatchAgent(args[0].String(), args[1].String())
	})
}

// relayBehavior forwards the invoked method to the ambassador's origin —
// the "thin" half of the functionality split. The method name is taken
// from the invocation itself, so one behavior serves every relayed method.
func relayBehavior(inv *core.Invocation, args []value.Value) (value.Value, error) {
	self := inv.Self()
	site, err := siteOf(inv)
	if err != nil {
		return value.Null, err
	}
	originSite, err := self.Get(self.Principal(), "originSite")
	if err != nil {
		return value.Null, err
	}
	originObject, err := self.Get(self.Principal(), "originObject")
	if err != nil {
		return value.Null, err
	}
	if originSite.String() == site.Name() {
		// Degenerate case: ambassador hosted at its own origin. InvokeOn
		// (rather than target.Invoke) keeps the relaying call chain, so a
		// serialized origin admits its own relayed re-entry.
		target, err := site.ResolveObject(originObject.String())
		if err != nil {
			return value.Null, err
		}
		return inv.InvokeOn(target, inv.Method(), args...)
	}
	return site.InvokeRemoteFrom(inv, originSite.String(), self.Principal(),
		originObject.String(), inv.Method(), args...)
}

// siteOf extracts the hosting Site from an invocation's resolver.
func siteOf(inv *core.Invocation) (*Site, error) {
	r := inv.Self().Resolver()
	site, ok := r.(*Site)
	if !ok {
		return nil, fmt.Errorf("%w: object is not hosted at a HADAS site", core.ErrNotFound)
	}
	return site, nil
}

func stringList(names []string) value.Value {
	out := make([]value.Value, len(names))
	for i, n := range names {
		out[i] = value.NewString(n)
	}
	return value.NewList(out)
}
