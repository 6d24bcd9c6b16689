package hadas

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

// Protocol verbs of the site-to-site agreement (§5's communication level).
const (
	verbLink   = "hadas.link"
	verbExport = "hadas.export"
	verbInvoke = "hadas.invoke"
)

// handle is the site's protocol endpoint. A payload is a frame payload or
// stream assembly the transport handed over, so it is decoded in place.
func (s *Site) handle(ctx context.Context, verb string, payload []byte) ([]byte, error) {
	switch verb {
	case verbInvoke: // the hot path: request and reply stay off the heap
		var req invokeReq
		if err := wire.DecodeRecord(payload, req.Fields); err != nil {
			return nil, err
		}
		rep := invokeOutcome(s.handleInvoke(ctx, &req))
		return wire.EncodeRecord(rep.Fields), nil
	case verbLink:
		return serve(ctx, payload, s.handleLink)
	case verbExport:
		return serve(ctx, payload, s.handleExport)
	case verbDispatch:
		return serve(ctx, payload, s.handleDispatch)
	case verbMigrationStatus:
		return serve(ctx, payload, s.handleMigrationStatus)
	case verbProbe:
		return serve(ctx, payload, s.handleProbe)
	}
	return nil, fmt.Errorf("%w: unknown verb %q", core.ErrNotFound, verb)
}

// serve decodes a verb's request record, runs its handler, and encodes the
// reply record the handler returns.
func serve[R any, P interface {
	*R
	Fields(*wire.Codec)
}](ctx context.Context, payload []byte, h func(context.Context, P) (func(*wire.Codec), error)) ([]byte, error) {
	req := P(new(R))
	if err := wire.DecodeRecord(payload, req.Fields); err != nil {
		return nil, err
	}
	reply, err := h(ctx, req)
	if err != nil {
		return nil, err
	}
	return wire.EncodeRecord(reply), nil
}

// ---- Link ----

// Link establishes a cooperation agreement with the site at addr: a
// handshake exchanges site identities and IOO-ambassador images, and each
// side installs the other's ambassador in its Vicinity. "This operation is
// a prerequisite for any further cooperation between the two IOOs."
// It returns the peer's site name.
func (s *Site) Link(addr string) (string, error) {
	conn, err := s.cfg.Dial(addr)
	if err != nil {
		return "", fmt.Errorf("link %s: %w", addr, err)
	}
	myAmb, err := s.iooAmbassadorImage()
	if err != nil {
		conn.Close()
		return "", err
	}
	req := linkReq{linkReply{s.cfg.Name, s.cfg.Domain, myAmb}, s.advertisedAddr()}
	var rep linkReply
	if err := s.callConn(conn, verbLink, "", req.Fields, rep.Fields); err != nil {
		conn.Close()
		return "", fmt.Errorf("link %s: %w", addr, err)
	}
	if err := s.installPeer(rep.Site, rep.Domain, addr, conn, rep.IOO); err != nil {
		conn.Close()
		return "", err
	}
	s.log("linked to %s (domain %s)", rep.Site, rep.Domain)
	return rep.Site, nil
}

// advertisedAddr is the address peers can dial back on.
func (s *Site) advertisedAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener != nil {
		return s.listener.Addr()
	}
	return s.cfg.Name
}

// handleLink is the receiving half: install the requester's IOO ambassador
// and answer with our own identity and ambassador.
func (s *Site) handleLink(_ context.Context, req *linkReq) (func(*wire.Codec), error) {
	if err := s.installPeer(req.Site, req.Domain, req.Addr, nil, req.IOO); err != nil {
		return nil, err
	}
	myAmb, err := s.iooAmbassadorImage()
	if err != nil {
		return nil, err
	}
	s.log("accepted link from %s (domain %s)", req.Site, req.Domain)
	rep := linkReply{s.cfg.Name, s.cfg.Domain, myAmb}
	return rep.Fields, nil
}

// installPeer records the Vicinity entry, grades the peer's domain in the
// policy, and materializes the remote IOO's ambassador under "ioo@<peer>".
func (s *Site) installPeer(name, domain, addr string, conn transport.Conn, ambBytes []byte) error {
	if name == "" || name == s.cfg.Name {
		return fmt.Errorf("%w: bad peer name %q", core.ErrArity, name)
	}
	var amb *core.Object
	if len(ambBytes) > 0 {
		img, err := wire.DecodeImage(ambBytes)
		if err != nil {
			return fmt.Errorf("peer IOO ambassador: %w", err)
		}
		amb, err = s.materialize(img)
		if err != nil {
			return fmt.Errorf("peer IOO ambassador: %w", err)
		}
	}

	s.peerMu.Lock()
	p, existed := s.peers[name]
	if amb != nil {
		// The mirror of admit: the Vicinity name is taken only from this
		// peer's own previous IOO Ambassador, never from a Home member or
		// any other live holder.
		var own *core.Object
		if existed {
			own = p.ambassador
		}
		if cur := s.holder("ioo@" + name); cur != nil && cur != own {
			s.peerMu.Unlock()
			return fmt.Errorf("%w: name %q", core.ErrExists, "ioo@"+name)
		}
	}
	if !existed {
		p = &peer{name: name, res: s.newPeerConn(name, conn)}
		s.peers[name] = p
	}
	p.domain = domain
	if addr != "" {
		p.addr = addr
	}
	old := p.ambassador
	if amb != nil {
		p.ambassador = amb
	}
	s.peerMu.Unlock()
	if existed && conn != nil {
		// Re-link: keep the wrapper (and its breaker history) but swap in
		// the fresh handshake connection, retiring the previous one (after
		// unlocking; see newPeerConn).
		if prev := p.res.SetInner(conn); prev != nil {
			prev.Close()
		}
	}

	// The cooperation agreement grades the peer's domain: linking implies
	// trust.
	s.policy.GradeDomain(domain, security.Trusted)

	if amb != nil {
		s.objects.Register(amb.ID(), amb)
		// Rebind is atomic: a re-link never leaves a window in which
		// "ioo@<peer>" resolves to nothing.
		if err := s.objects.Rebind("ioo@"+name, amb.ID()); err != nil {
			return err
		}
		if old != nil {
			s.objects.Deregister(old.ID())
		}
	}
	return nil
}

// retrySafeVerb reports whether a protocol verb may be replayed after a
// transport failure. The link handshake is idempotent (re-linking
// overwrites the same Vicinity entry), the migration status query is a
// pure read, dispatch became retry-safe once receipt dedups on the
// migration ID (a replayed hadas.dispatch returns the recorded outcome,
// it never double-installs or re-runs onArrival), and a deadlock probe
// only reads the waits-for graph — at worst a replay re-delivers the same
// verdict to the same victim, which the blocked-chain registry dedups.
// hadas.export still appends a deployment record at the origin and
// hadas.invoke runs arbitrary method bodies — a duplicate could double a
// side effect.
func retrySafeVerb(verb string) bool {
	return verb == verbLink || verb == verbDispatch ||
		verb == verbMigrationStatus || verb == verbProbe
}

// newPeerConn wraps conn (possibly nil — then dialed on first use) in the
// site's resilience policy. installPeer builds it with the peer's row, and
// it lives as long as the row. The redialer re-reads the peer's advertised
// address on every attempt, so a peer that re-links from a new address is
// reached without rebuilding the wrapper.
//
// Lock order: the redialer acquires s.peerMu, so ResilientConn methods
// that reach the wire (Call, Ping, SetInner, Close) must never be called
// while holding peerMu — fetch the wrapper under the lock, release it,
// then talk to the wrapper. Status and State take only the breaker's own
// lock and may be read under peerMu.
func (s *Site) newPeerConn(name string, conn transport.Conn) *transport.ResilientConn {
	redial := func() (transport.Conn, error) {
		s.peerMu.RLock()
		addr := ""
		if p, ok := s.peers[name]; ok {
			addr = p.addr
		}
		s.peerMu.RUnlock()
		if addr == "" {
			addr = name
		}
		c, err := s.cfg.Dial(addr)
		if err != nil {
			return nil, fmt.Errorf("dial peer %q: %w", name, err)
		}
		return c, nil
	}
	return transport.NewResilientConn(conn, redial, s.cfg.Resilience)
}

// connTo returns the resilient connection to a linked peer.
func (s *Site) connTo(peerName string) (*transport.ResilientConn, error) {
	s.peerMu.RLock()
	p, ok := s.peers[peerName]
	s.peerMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotLinked, peerName)
	}
	return p.res, nil
}

// Unlink dissolves the cooperation agreement with a peer: the connection
// closes, the Vicinity entry and the peer's IOO ambassador are retired,
// and the peer's hosted APO ambassadors become unreachable relays (their
// next invocation fails with ErrNotLinked). The inverse of Link; the
// remote side keeps its own half until it unlinks too — sites are
// autonomous and neither can force the other's bookkeeping.
func (s *Site) Unlink(peerName string) error {
	s.peerMu.Lock()
	p, ok := s.peers[peerName]
	if !ok {
		s.peerMu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotLinked, peerName)
	}
	delete(s.peers, peerName)
	amb := p.ambassador
	s.peerMu.Unlock()

	p.res.Close()
	if amb != nil {
		s.objects.Deregister(amb.ID())
		s.objects.Unbind("ioo@" + peerName)
	}
	s.log("unlinked from %s", peerName)
	return nil
}

// SetPeerConn replaces a peer's inner connection, keeping the resilient
// wrapper — and its breaker history — in place (tests inject FaultConns
// here). The previous inner connection is left open: injected conns often
// wrap it, and it is retired with the wrapper on Unlink/Close.
func (s *Site) SetPeerConn(peerName string, conn transport.Conn) error {
	res, err := s.connTo(peerName)
	if err != nil {
		return err
	}
	res.SetInner(conn)
	return nil
}

// ---- Export / Import ----

// Import requests an APO's Ambassador from a linked site and installs it
// here: "An Import operation at the requesting IOO is handled by an Export
// operation at the receiving IOO. … When the Ambassador arrives (as data)
// the importing IOO unpacks it, passes to it an installation context and
// invokes the Ambassador, which in turn installs itself."
// It returns the local name of the installed ambassador ("<apo>@<site>").
func (s *Site) Import(peerName, apoName string) (string, error) {
	req := exportReq{s.cfg.Name, s.cfg.Domain, apoName, s.ioo.ID()}
	var rep exportReply
	if err := s.callPeer(peerName, verbExport, "", req.Fields, rep.Fields); err != nil {
		return "", fmt.Errorf("import %q from %q: %w", apoName, peerName, err)
	}
	img, err := wire.DecodeImage(rep.Ambassador)
	if err != nil {
		return "", fmt.Errorf("import %q: %w", apoName, err)
	}

	// Unpack: materialize under this host's policy and budget. The
	// ambassador keeps its origin identity and domain (it is owned and
	// maintained by its origin) but runs under host-imposed limits.
	amb, err := s.materialize(img)
	if err != nil {
		return "", fmt.Errorf("import %q: %w", apoName, err)
	}

	// The mirror of admit: the local name is taken only from this
	// importer's own previous Ambassador, never from a Home member or any
	// other live holder.
	localName := apoName + "@" + peerName
	s.mu.Lock()
	old := s.ambassadors[localName]
	if cur := s.holder(localName); cur != nil && cur != old {
		s.mu.Unlock()
		return "", fmt.Errorf("import %q from %q: %w: name %q", apoName, peerName, core.ErrExists, localName)
	}
	s.ambassadors[localName] = amb
	s.mu.Unlock()
	s.objects.Register(amb.ID(), amb)
	// Rebind is atomic: a re-import swaps the binding without a window in
	// which the ambassador name resolves to nothing.
	if err := s.objects.Rebind(localName, amb.ID()); err != nil {
		return "", err
	}
	if old != nil {
		// Re-import refreshes: the previous ambassador is retired.
		s.objects.Deregister(old.ID())
	}

	// Installation context, then self-installation.
	installCtx := value.NewMap(map[string]value.Value{
		"hostSite":   value.NewString(s.cfg.Name),
		"hostDomain": value.NewString(s.cfg.Domain),
		"localName":  value.NewString(localName),
	})
	if _, err := amb.Invoke(s.ioo.Principal(), "install", installCtx); err != nil {
		return "", fmt.Errorf("import %q: install: %w", apoName, err)
	}
	s.log("imported %s from %s", apoName, peerName)
	return localName, nil
}

// handleExport is the origin half of Import: verify the requester may
// import, instantiate the Ambassador, and ship it as data.
func (s *Site) handleExport(_ context.Context, req *exportReq) (func(*wire.Codec), error) {
	requesterSite, apoName := req.Site, req.APO
	if err := s.linkedPeer(requesterSite); err != nil {
		return nil, err // export only to linked sites
	}
	apo, err := s.APO(apoName)
	if err != nil {
		return nil, err
	}

	// "Export verifies that the requested APO is accessible to the
	// requesting IOO."
	s.mu.Lock()
	acl, hasACL := s.exportACL[apoName]
	s.mu.Unlock()
	if hasACL {
		pr := security.Principal{Object: req.IOO, Domain: req.Domain}
		if effect, matched := acl.Decide(pr, security.ActionAny); !matched || effect != security.Allow {
			return nil, fmt.Errorf("%w: %q to %s", ErrNotExportable, apoName, requesterSite)
		}
	}

	img, err := s.instantiateAmbassador(apo, apoName)
	if err != nil {
		return nil, err
	}

	// One deployment row per (APO, host): a re-import replaces the host's
	// previous ambassador, so updating the old row in place keeps the
	// UpdateAmbassadors fan-out free of stale ambassador IDs — a host that
	// crashed and re-imported would otherwise accumulate dead rows that
	// fail every future update.
	s.mu.Lock()
	replaced := false
	for i := range s.deployments {
		d := &s.deployments[i]
		if d.apoName == apoName && d.hostSite == requesterSite {
			d.ambassadorID = img.ID
			replaced = true
			break
		}
	}
	if !replaced {
		s.deployments = append(s.deployments, deployment{
			apoName:      apoName,
			ambassadorID: img.ID,
			hostSite:     requesterSite,
		})
	}
	s.mu.Unlock()
	s.log("exported %s to %s", apoName, requesterSite)
	rep := exportReply{wire.EncodeImage(img)}
	return rep.Fields, nil
}

// ---- Remote invocation ----

// InvokeRemote invokes a method on an object hosted at a linked site, as
// the given caller. The target is a registry name or ID string at the
// remote site.
func (s *Site) InvokeRemote(peerName string, caller security.Principal,
	target, method string, args ...value.Value) (value.Value, error) {
	return s.invokeRemote(nil, peerName, caller, target, method, args)
}

// InvokeRemoteFrom is InvokeRemote on behalf of an executing invocation:
// the invocation's call chain travels on the wire frame, so the remote
// site attributes admissions (and blocks) to the same chain, and the
// chain's outbound remote edge is published for the deadlock detector
// while the call is in flight. Method bodies that relay across sites
// (ambassadors, agents) must come through here, or a cycle closing
// through the remote site is invisible until the admission timeout.
func (s *Site) InvokeRemoteFrom(inv *core.Invocation, peerName string,
	caller security.Principal, target, method string, args ...value.Value) (value.Value, error) {
	return s.invokeRemote(inv, peerName, caller, target, method, args)
}

func (s *Site) invokeRemote(inv *core.Invocation, peerName string,
	caller security.Principal, target, method string, args []value.Value) (value.Value, error) {
	gid, done := inv.BeginRemoteCall(s.det, peerName)
	defer done()
	req := invokeReq{s.cfg.Name, caller.Object, target, method, args}
	var rep invokeReply
	if err := s.callPeer(peerName, verbInvoke, gid, req.Fields, rep.Fields); err != nil {
		return value.Null, err
	}
	return rep.result()
}

// handleInvoke dispatches a remote invocation. The caller's claimed object
// identity is kept, but its trust domain is assigned by this host from the
// link agreement — a remote caller cannot claim a better domain than its
// site has (the paper's mutual-security stance; full authentication is the
// subject of the companion papers [16], [17]). A chain identity on the
// request frame is adopted for the call's duration, so the invocation
// re-enters admissions its chain already holds here, and a block becomes
// a chaseable waits-for edge attributed to the right chain.
//
// A malformed args field never reaches here: the record refuses it, since
// coercing a corrupted frame to zero args would invoke the method with the
// wrong arity.
func (s *Site) handleInvoke(ctx context.Context, req *invokeReq) (value.Value, error) {
	domain, err := s.peerDomain(req.Site)
	if err != nil {
		return value.Null, err
	}
	target, err := s.ResolveObject(req.Target)
	if err != nil {
		return value.Null, err
	}
	caller := security.Principal{Object: req.Caller, Domain: domain}
	if gid := transport.ChainFrom(ctx); gid != "" {
		ac, release := s.det.Adopt(gid)
		defer release()
		return target.InvokeWithChain(caller, ac, req.Method, req.Args...)
	}
	return target.Invoke(caller, req.Method, req.Args...)
}

// UpdateAmbassadors invokes a method (typically a meta-method such as
// setMethod or addMethod) on every deployed ambassador of an APO, acting
// as the APO itself — the §5 dynamic-update mechanism ("updates in APO's
// functionality can be done dynamically … by adding methods and data items
// to the APO and its Ambassador on the fly"). The updates go out as one
// InvokeFanOut round — pipelined per peer, peers in parallel — so
// refreshing N ambassadors costs one RTT, not N, and one dead peer never
// delays the rest: a host whose breaker is open fails ErrPeerDown without
// touching the wire, and one whose cooldown has run out gets the half-open
// probe and then its update. It returns the number of ambassadors updated;
// the error, if any, is the first failure.
func (s *Site) UpdateAmbassadors(apoName, method string, args ...value.Value) (int, error) {
	apo, err := s.APO(apoName)
	if err != nil {
		return 0, err
	}
	caller := apo.Principal()
	var calls []FanOutCall
	s.mu.Lock()
	for _, d := range s.deployments {
		if d.apoName == apoName {
			calls = append(calls, FanOutCall{Peer: d.hostSite, Caller: caller,
				Target: d.ambassadorID.String(), Method: method, Args: args})
		}
	}
	s.mu.Unlock()

	updated := 0
	var firstErr error
	for _, res := range s.InvokeFanOut(calls) {
		if res.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("update ambassador at %s: %w", res.Peer, res.Err)
			}
			continue
		}
		updated++
	}
	return updated, firstErr
}
