// Package hadas implements HADAS — the Heterogeneous, Autonomous,
// Distributed Abstraction System of §5 — on top of MROM. Each logical site
// is represented by an InterOperability Object (IOO) holding three
// containers: Home (APplication Objects), Vicinity (IOO Ambassadors of
// linked sites) and Interop (coordination-level programs). Cooperation is
// established with Link; APO Ambassadors move between sites with
// Import/Export, arriving as data, unpacking, receiving an installation
// context and installing themselves.
package hadas

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mscript"
	"repro/internal/naming"
	"repro/internal/persist"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Errors of the framework layer.
var (
	// ErrNotLinked reports an operation against a site with no cooperation
	// agreement.
	ErrNotLinked = errors.New("site not linked")
	// ErrNoAPO reports an unknown application object.
	ErrNoAPO = errors.New("no such APO")
	// ErrNotExportable reports an Import refused by the origin's export rules.
	ErrNotExportable = errors.New("APO not exportable to requester")
	// ErrPeerDown reports a fail-fast refusal: the peer's circuit breaker
	// is open after consecutive transport failures, so the call was not
	// attempted. Ambassadors relaying to that peer surface this instead of
	// blocking; the peer re-opens transparently once a half-open probe
	// succeeds (next call after the cooldown, or the background prober).
	ErrPeerDown = errors.New("peer down")
)

// DefaultCallTimeout bounds each remote protocol round trip when
// Config.CallTimeout is zero (previously a hardcoded constant).
const DefaultCallTimeout = 30 * time.Second

// DefaultMaxArrivalRecords caps the destination-side migration dedup table
// when Config.MaxArrivalRecords is zero. Only records their origins have
// acknowledged count against it as evictable (see Site.evictArrivals).
const DefaultMaxArrivalRecords = 4096

// Defaults for the migration-journal hygiene caps (Config
// .MaxMigrationAttempts / .MaxMigrationAge). Both are deliberately
// generous: a record that trips either cap has survived dozens of
// resolution rounds or a full day in doubt, which no transient partition
// explains — automatic resolution stops retrying it and it is surfaced as
// orphaned (MigrationReport) for an operator instead.
const (
	DefaultMaxMigrationAttempts = 64
	DefaultMaxMigrationAge      = 24 * time.Hour
)

// DialFunc connects to a remote site address.
type DialFunc func(addr string) (transport.Conn, error)

// Config configures a Site.
type Config struct {
	// Name is the site's unique name (also its in-process address).
	Name string
	// Domain is the trust domain the site's objects act in. Defaults to Name.
	Domain string
	// Dial connects to peers. Defaults to TCP.
	Dial DialFunc
	// Output receives script prints and site logs (nil discards).
	Output func(string)
	// Store, when set, enables PersistAll/BootstrapAll. It is a full
	// Backend so checkpoints can batch through PutAll (one durability
	// barrier per PersistAll, not one per object).
	Store persist.Backend
	// CallTimeout bounds each remote protocol round trip, threaded through
	// every remote verb, to at most 17/16 of it (callCtx). Zero uses
	// DefaultCallTimeout.
	CallTimeout time.Duration
	// Resilience tunes per-peer retry and circuit-breaker behavior (see
	// transport.ResilientPolicy). Zero fields use transport defaults. Its
	// Idempotent predicate is always the site's own (retrySafeVerb): a
	// replayed export or invoke could double a side effect.
	Resilience transport.ResilientPolicy
	// ProbeInterval enables background liveness probing: every interval
	// the site pings each linked peer, driving open circuits through their
	// half-open probe so Ambassadors recover without waiting for a caller
	// to pay for the discovery. Zero disables probing.
	ProbeInterval time.Duration
	// MaxArrivalRecords caps the migration dedup table: past it, the oldest
	// records their origins acknowledged and nothing replays are evicted.
	// Zero uses DefaultMaxArrivalRecords.
	MaxArrivalRecords int
	// MaxMigrationAttempts caps how many times ResolveMigrations retries a
	// journaled migration before declaring it orphaned: still listed by
	// MigrationReport, no longer retried automatically. Zero uses
	// DefaultMaxMigrationAttempts.
	MaxMigrationAttempts int
	// MaxMigrationAge is the age past which an unresolved journal record is
	// declared orphaned. Zero uses DefaultMaxMigrationAge.
	MaxMigrationAge time.Duration
}

// peer is one Vicinity entry: a linked remote site. Its connection is
// held behind a ResilientConn, built with the entry and never replaced,
// which owns retry, redial and the circuit breaker that is the peer's
// health.
type peer struct {
	name       string
	domain     string
	addr       string
	res        *transport.ResilientConn // never nil
	ambassador *core.Object             // the remote IOO's ambassador hosted here
}

// deployment records one exported ambassador (origin side).
type deployment struct {
	apoName      string
	ambassadorID naming.ID
	hostSite     string
}

// Site is a HADAS site: the runtime behind one IOO.
type Site struct {
	cfg       Config
	gen       *naming.Generator
	objects   *naming.Registry
	behaviors *core.BehaviorRegistry
	policy    *security.Policy
	auditor   *security.Auditor
	ioo       *core.Object

	// det is the site's share of distributed deadlock detection: it tracks
	// chains blocked on local admissions, chains off inside remote calls,
	// and chains adopted from incoming invocations, and it chases
	// edge-probes across sites through the probe verb (deadlock.go).
	det *core.Detector

	// journal holds migration protocol state (origin journal records and
	// the destination dedup table). It is the configured Store when one is
	// set — records then survive a crash — and an in-memory store
	// otherwise, so the protocol behaves identically either way and only
	// durability follows the store.
	journal persist.Backend

	// home is the APO container: one lock-free concurrent map, so
	// invocations, arrivals and departures never serialize behind a lock
	// (DESIGN.md §11). Names enter it through admit; reinstateAgent only
	// puts back what a failed dispatch took out.
	home homeContainer

	// peerMu guards peers. Read-mostly: every remote invocation resolves
	// its peer row under the read lock; only Link/Unlink/SetPeerConn/Close
	// write. The invoke path therefore never touches a write lock.
	peerMu sync.RWMutex
	peers  map[string]*peer // by site name

	// mu guards the remaining, cold site state. Nothing on the
	// per-invocation fast path takes it.
	mu              sync.Mutex
	exportACL       map[string]security.ACL   // apoName → who may import
	ambassadorSpecs map[string]AmbassadorSpec // apoName → split
	ambassadors     map[string]*core.Object   // hosted ambassadors, by registry name
	deployments     []deployment
	migrating       map[string]bool    // agent names with a dispatch in flight
	migSeq          int64              // the number the last PREPARE took
	pendingTo       map[string][]int64 // by destination, unresolved migrations' numbers
	listener        transport.Listener
	stopProbe       chan struct{} // closes to stop the background prober
	closed          bool

	// manMu serializes every read-modify-write of the persisted Home
	// manifest (PersistAll, scrubCheckpoint) and guards manifest, the
	// membership of the manifest as last written to the store: nil until
	// first use, and again after a failed write so the next use reloads it.
	manMu    sync.Mutex
	manifest map[string]naming.ID

	arrMu      sync.Mutex
	arrivals   map[string]*arrival   // dedup table, by migration ID
	arrOrder   []*arrival            // claim order, oldest first (for the cap)
	arrByName  map[string][]*arrival // by agent name, in claim order: a trace reads the last
	arrUnacked map[string][]*arrival // by origin site, records it has not acknowledged
	arrSeq     atomic.Int64          // monotonically increasing claim sequence

	deadline atomic.Pointer[callDeadline] // the current window's (callCtx)
}

// NewSite constructs a site, its behavior registry and its IOO.
func NewSite(cfg Config) (*Site, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: site needs a name", core.ErrArity)
	}
	if cfg.Domain == "" {
		cfg.Domain = cfg.Name
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (transport.Conn, error) { return transport.DialTCP(addr) }
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = DefaultCallTimeout
	}
	cfg.Resilience.Idempotent = retrySafeVerb // retry safety is the protocol's (§9), not a setting

	s := &Site{
		cfg:         cfg,
		gen:         naming.NewGenerator(cfg.Name),
		objects:     naming.NewRegistry(),
		behaviors:   core.NewBehaviorRegistry(),
		policy:      security.NewPolicy(),
		auditor:     security.NewAuditor(256),
		peers:       make(map[string]*peer),
		exportACL:   make(map[string]security.ACL),
		ambassadors: make(map[string]*core.Object),
		migrating:   make(map[string]bool),
		pendingTo:   make(map[string][]int64),
		arrivals:    make(map[string]*arrival),
		arrByName:   make(map[string][]*arrival),
		arrUnacked:  make(map[string][]*arrival),
	}
	s.det = core.NewDetector(cfg.Name, s)
	if cfg.Store != nil {
		s.journal = cfg.Store
	} else {
		s.journal = persist.NewMemStore()
	}
	for _, rec := range s.pendingMigrations() { // numbering resumes above the journal's
		s.pendingTo[rec.Dest] = append(s.pendingTo[rec.Dest], rec.Num)
		s.migSeq = max(s.migSeq, rec.Num)
	}
	s.policy.GradeDomain(cfg.Domain, security.Local)
	registerBehaviors(s.behaviors)

	ioo, err := buildIOO(s)
	if err != nil {
		return nil, err
	}
	s.ioo = ioo
	s.objects.Register(ioo.ID(), ioo)
	if err := s.objects.Bind("ioo", ioo.ID()); err != nil {
		return nil, err
	}
	if cfg.ProbeInterval > 0 {
		s.stopProbe = make(chan struct{})
		go s.probeLoop()
	}
	return s, nil
}

// Name returns the site name.
func (s *Site) Name() string { return s.cfg.Name }

// Domain returns the site's trust domain.
func (s *Site) Domain() string { return s.cfg.Domain }

// IOO returns the site's InterOperability Object.
func (s *Site) IOO() *core.Object { return s.ioo }

// Policy returns the site's security policy (hosts tune trust here).
func (s *Site) Policy() *security.Policy { return s.policy }

// Auditor returns the site's security audit log.
func (s *Site) Auditor() *security.Auditor { return s.auditor }

// Behaviors returns the site's native-behavior registry.
func (s *Site) Behaviors() *core.BehaviorRegistry { return s.behaviors }

// Generator returns the site's identity generator.
func (s *Site) Generator() *naming.Generator { return s.gen }

// Store returns the site's configured persist store (nil when the site
// runs without one). Native behaviors that make durable state changes —
// e.g. a counter whose acked increments must survive a crash — persist
// through it from inside the invocation.
func (s *Site) Store() persist.Backend { return s.cfg.Store }

// log emits a site-level message.
func (s *Site) log(format string, args ...any) {
	if s.cfg.Output != nil {
		s.cfg.Output(fmt.Sprintf(format, args...))
	}
}

// Serve binds the site's protocol endpoint. With the in-process network
// use ServeInProc instead. Serving a closed site fails with
// transport.ErrClosed.
func (s *Site) Serve(addr string) (string, error) {
	lis, err := transport.ListenTCP(addr, s.handle)
	if err != nil {
		return "", err
	}
	if err := s.adoptListener(lis); err != nil {
		return "", err
	}
	return lis.Addr(), nil
}

// ServeInProc binds the site on an in-process network under its own name.
// Serving a closed site fails with transport.ErrClosed.
func (s *Site) ServeInProc(net *transport.InProcNet) error {
	lis, err := net.Listen(s.cfg.Name, s.handle)
	if err != nil {
		return err
	}
	return s.adoptListener(lis)
}

// adoptListener stores a freshly-bound listener, checking closed under the
// same lock Close sets it: a listener bound after (or racing) Close would
// otherwise be stored on a dead site and leak its goroutine and port.
func (s *Site) adoptListener(lis transport.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return fmt.Errorf("serve %s: %w", s.cfg.Name, transport.ErrClosed)
	}
	s.listener = lis
	s.mu.Unlock()
	return nil
}

// Close tears the site down: prober, listener and peer connections.
func (s *Site) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.listener
	stop := s.stopProbe
	s.mu.Unlock()

	s.peerMu.RLock()
	conns := make([]transport.Conn, 0, len(s.peers))
	for _, p := range s.peers {
		conns = append(conns, p.res)
	}
	s.peerMu.RUnlock()
	if stop != nil {
		close(stop)
	}
	for _, c := range conns {
		c.Close()
	}
	if lis != nil {
		return lis.Close()
	}
	return nil
}

// ---- core.Resolver ----

var _ core.Resolver = (*Site)(nil)

// SiteName implements core.Resolver.
func (s *Site) SiteName() string { return s.cfg.Name }

// ResolveObject implements core.Resolver: it resolves "ioo", APO names,
// hosted ambassador names ("payroll@tokyo", "ioo@tokyo"), and raw IDs.
// Home members resolve through the container first — one lock-free load —
// so the remote-invoke path shares no lock with site mutation; admit keeps
// that answer the registry's own.
func (s *Site) ResolveObject(name string) (*core.Object, error) {
	if obj, ok := s.home.get(name); ok {
		return obj, nil
	}
	if len(name) == 35 { // the length of an ID's text form; no other name is parsed
		if id, err := naming.ParseID(name); err == nil {
			obj, err := s.objects.LookupID(id)
			if err != nil {
				return nil, err
			}
			return asObject(obj)
		}
	}
	obj, err := s.objects.Lookup(name)
	if err != nil {
		return nil, err
	}
	return asObject(obj)
}

func asObject(v any) (*core.Object, error) {
	obj, ok := v.(*core.Object)
	if !ok {
		return nil, fmt.Errorf("%w: registered entity is not an object", core.ErrNotFound)
	}
	return obj, nil
}

// ---- Home management ----

// host wires a caller-built object into this site (policy, auditor,
// resolver, output).
func (s *Site) host(obj *core.Object) {
	obj.SetPolicy(s.policy)
	obj.SetAuditor(s.auditor)
	obj.SetResolver(s)
	if s.cfg.Output != nil {
		obj.SetOutput(s.cfg.Output)
	}
}

// materialize turns an image that arrived as data — over the wire or out
// of the store — into an object hosted here: this site's policy, auditor,
// resolver and output sink, and the host's budget on its script bodies.
func (s *Site) materialize(img core.Image) (*core.Object, error) {
	return core.FromImage(img, s.behaviors,
		core.HostPolicy(s.policy), core.HostAuditor(s.auditor), core.HostResolver(s),
		core.HostOutput(s.cfg.Output), core.HostBudget(mscript.DefaultBudget))
}

// holder returns the live object the registry gives name to; nil when the
// name is unbound or its binding is stale (the id was deregistered).
func (s *Site) holder(name string) *core.Object {
	held, _ := s.objects.Get(name)
	obj, _ := held.(*core.Object)
	return obj
}

// testHookPreBind, when non-nil, runs between admit's registry Register and
// Rebind. Tests use the hook to observe resolution in that window (the name
// must stay continuously resolvable — Rebind closed the Unbind/Bind gap)
// and to force Rebind failures that exercise the installation unwind.
var testHookPreBind func(s *Site, name string)

// admit is the way into Home, and the rule that keeps Home from
// shadowing the registry (DESIGN.md §11): a name enters only when the
// registry agrees it denotes this object. The registry is asked first — a
// name it gives to a live object of another identity (the IOO, an
// Ambassador, another APO, any bound squatter) is core.ErrExists — then the
// container arbitrates between concurrent installers, then the registry is
// pointed at the member. A refused admission changes neither table, and
// one that fails half-way is unwound. arriving marks a materialized agent,
// which may replace a previous incarnation of itself; anything else is a
// caller-built object, wired to this host before it becomes reachable, and
// any live holder refuses it.
func (s *Site) admit(name string, obj *core.Object, arriving bool) error {
	if cur := s.holder(name); cur != nil && !(arriving && cur.ID() == obj.ID()) {
		return fmt.Errorf("%w: name %q", core.ErrExists, name)
	}
	if arriving {
		if s.home.claim(name, obj) {
			return fmt.Errorf("%w: agent name %q", core.ErrExists, name)
		}
	} else {
		s.host(obj)
		if !s.home.add(name, obj) {
			return fmt.Errorf("%w: APO %q", core.ErrExists, name)
		}
	}
	s.objects.Register(obj.ID(), obj)
	if testHookPreBind != nil {
		testHookPreBind(s, name)
	}
	// Rebind replaces a previous incarnation's (or a stale) binding
	// atomically — the name never passes through an unbound window where a
	// concurrent resolve would miss it.
	if err := s.objects.Rebind(name, obj.ID()); err != nil {
		// Unwind: the object must not linger in Home or the registry when
		// the installation reports failure.
		s.home.remove(name, obj)
		s.objects.Deregister(obj.ID())
		return err
	}
	return nil
}

// NewAPOBuilder starts construction of an APO homed at this site: the
// builder is pre-wired to the site's policy, registry and resolver.
// Additional build options (e.g. core.Serialized) are applied on top.
func (s *Site) NewAPOBuilder(class string, extra ...core.BuildOption) *core.Builder {
	opts := []core.BuildOption{
		core.InDomain(s.cfg.Domain),
		core.WithPolicy(s.policy),
		core.WithAuditor(s.auditor),
		core.WithRegistry(s.behaviors),
		core.WithResolver(s),
		core.WithBudget(mscript.DefaultBudget),
	}
	if s.cfg.Output != nil {
		opts = append(opts, core.WithOutput(s.cfg.Output))
	}
	opts = append(opts, extra...)
	return core.NewBuilder(s.gen, class, opts...)
}

// AddAPO installs an application object into Home under a name. The APO
// becomes reachable to interop programs and, when exported, to peers.
func (s *Site) AddAPO(name string, obj *core.Object) error {
	return s.admit(name, obj, false)
}

// AddAPOs installs a batch of application objects. Installation stops at
// the first duplicate name; members installed before it remain.
func (s *Site) AddAPOs(apos map[string]*core.Object) error {
	for name, obj := range apos {
		if err := s.AddAPO(name, obj); err != nil {
			return err
		}
	}
	return nil
}

// APO returns a Home member by name.
func (s *Site) APO(name string) (*core.Object, error) {
	obj, ok := s.home.get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoAPO, name)
	}
	return obj, nil
}

// APONames lists Home members, sorted.
func (s *Site) APONames() []string {
	return s.home.names()
}

// SetExportACL controls who may import an APO. Without one, any linked
// peer may import (the cooperation agreement suffices).
func (s *Site) SetExportACL(apoName string, acl security.ACL) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.exportACL[apoName] = acl
}

// PeerNames lists Vicinity members, sorted.
func (s *Site) PeerNames() []string {
	s.peerMu.RLock()
	out := make([]string, 0, len(s.peers))
	for n := range s.peers {
		out = append(out, n)
	}
	s.peerMu.RUnlock()
	sort.Strings(out)
	return out
}

// Ambassadors lists hosted ambassadors (names), sorted.
func (s *Site) Ambassadors() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.ambassadors))
	for n := range s.ambassadors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Deployments lists where an APO's ambassadors live (origin side).
func (s *Site) Deployments(apoName string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, d := range s.deployments {
		if d.apoName == apoName {
			out = append(out, d.hostSite)
		}
	}
	sort.Strings(out)
	return out
}

// linkedPeer verifies a cooperation agreement exists with the named site.
func (s *Site) linkedPeer(name string) error {
	_, err := s.peerDomain(name)
	return err
}

// peerDomain returns the trust domain the link agreement assigned to a
// peer. Read under the peer read lock: the invoke path calls this per
// request and must not serialize behind topology changes.
func (s *Site) peerDomain(name string) (string, error) {
	s.peerMu.RLock()
	p, ok := s.peers[name]
	var domain string
	if ok {
		domain = p.domain
	}
	s.peerMu.RUnlock()
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNotLinked, name)
	}
	return domain, nil
}

// callPeer performs one protocol round trip to a linked site: the record
// req describes goes out, on behalf of call chain (empty: no serialized
// chain), and the reply is decoded into the record rep describes. The peer
// is dialed lazily if this side accepted the link without a client
// connection. An open circuit breaker fails fast with ErrPeerDown — the
// graceful degradation Ambassadors rely on — instead of burning the call
// timeout on a peer already known to be dead.
func (s *Site) callPeer(peerName, verb, chain string, req, rep func(*wire.Codec)) error {
	conn, err := s.connTo(peerName)
	if err != nil {
		return err
	}
	err = s.callConn(conn, verb, chain, req, rep)
	if errors.Is(err, transport.ErrCircuitOpen) {
		return fmt.Errorf("%w: site %q: %v", ErrPeerDown, peerName, err)
	}
	return err
}

// reqBufs holds request buffers between round trips, so a call encodes into
// the buffer an earlier one sent instead of a fresh one.
var reqBufs = sync.Pool{New: func() any { return new([]byte) }}

// deadlineWindows is how many windows one CallTimeout spans (callCtx).
const deadlineWindows = 16

// callDeadline is one window's shared context, the cancel func its own
// timer makes redundant, and when the window opened.
type callDeadline struct {
	ctx    context.Context
	cancel context.CancelFunc
	opened time.Time
}

// callCtx returns the context a round trip runs under. The calls started
// within one CallTimeout/16 window share a deadline CallTimeout×17/16 after
// it opened, so each call's lies within [CallTimeout, CallTimeout×17/16] of
// its start; a busy site makes one timer per window, freed as it fires.
func (s *Site) callCtx() context.Context {
	d := s.deadline.Load()
	now := time.Now() // read after the load, so never before d.opened
	window := s.cfg.CallTimeout / deadlineWindows
	if d != nil && now.Sub(d.opened) < window {
		return d.ctx
	}
	ctx, cancel := context.WithDeadline(context.Background(), now.Add(s.cfg.CallTimeout+window))
	s.deadline.Store(&callDeadline{ctx: ctx, cancel: cancel, opened: now})
	return ctx
}

// callConn runs one round trip under the site's call deadline (callCtx).
// The request buffer goes back to reqBufs only once Call has returned nil,
// the point after which no carrier reads it (transport.Conn); a failed call
// drops it, and a buffer past transport.MaxPooledBuffer is dropped too.
func (s *Site) callConn(conn transport.Conn, verb, chain string, req, rep func(*wire.Codec)) error {
	buf := reqBufs.Get().(*[]byte)
	payload := wire.AppendRecord((*buf)[:0], req)
	out, err := conn.Call(transport.WithChain(s.callCtx(), chain), verb, payload)
	if err != nil {
		return err
	}
	if cap(payload) <= transport.MaxPooledBuffer {
		*buf = payload
		reqBufs.Put(buf)
	}
	return wire.DecodeRecord(out, rep)
}

// ---- persistence ----

// homeManifestSlot is the store slot recording the Home name→ID map, so a
// restarted site can bootstrap itself without external knowledge.
const homeManifestSlot = "_home-manifest"

// manifestRecord is the slot's record: the checkpointed Home members,
// sorted by name so a membership has one encoding.
type manifestRecord struct{ APOs []manifestEntry }
type manifestEntry struct {
	Name string
	ID   naming.ID
}

func (m *manifestRecord) Fields(c *wire.Codec) {
	wire.List(c, "apos", &m.APOs, func(c *wire.Codec, e *manifestEntry) {
		c.Str("name", &e.Name)
		c.ID("id", &e.ID)
	})
}

// encodeManifest renders a Home manifest membership as its slot payload.
func encodeManifest(ids map[string]naming.ID) []byte {
	m := manifestRecord{make([]manifestEntry, 0, len(ids))}
	for name, id := range ids {
		m.APOs = append(m.APOs, manifestEntry{name, id})
	}
	sort.Slice(m.APOs, func(i, j int) bool { return m.APOs[i].Name < m.APOs[j].Name })
	return wire.EncodeRecord(m.Fields)
}

// persistedManifest returns the membership of the Home manifest in the
// store, reading the slot on first use. A missing slot is reported as the
// store's persist.ErrNoSlot and not remembered. Callers hold manMu.
func (s *Site) persistedManifest() (map[string]naming.ID, error) {
	if s.manifest != nil {
		return s.manifest, nil
	}
	raw, err := s.cfg.Store.Get(homeManifestSlot)
	if err != nil {
		return nil, err
	}
	var m manifestRecord
	if err := wire.DecodeRecord(raw, m.Fields); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	ids := make(map[string]naming.ID, len(m.APOs))
	for _, e := range m.APOs {
		ids[e.Name] = e.ID
	}
	s.manifest = ids
	return ids, nil
}

// PersistAll writes the IOO's Home members into the site store, along
// with a manifest mapping APO names to object IDs. It holds manMu from
// enumerating Home to the end of the write, so a departure cannot slip
// between the two: an agent retired before the enumeration is not written,
// and the commit of one retired after it waits and then removes it.
func (s *Site) PersistAll() error {
	if s.cfg.Store == nil {
		return fmt.Errorf("%w: site has no store", core.ErrNotFound)
	}
	s.manMu.Lock()
	defer s.manMu.Unlock()
	entries := s.home.entries()
	batch := make(map[string][]byte, len(entries)+1)
	ids := make(map[string]naming.ID, len(entries))
	for _, e := range entries {
		slot, data, err := persist.EncodeObject(e.obj)
		if err != nil {
			return err
		}
		batch[slot] = data
		ids[e.name] = e.obj.ID()
	}
	batch[homeManifestSlot] = encodeManifest(ids)
	// One PutAll: the whole checkpoint — every image plus the manifest —
	// rides a single durability barrier.
	if err := s.cfg.Store.PutAll(batch); err != nil {
		s.manifest = nil
		return err
	}
	s.manifest = ids
	// A live arrival record is its agent's only durable copy until a
	// checkpoint names the agent; from then on the dedup cap may evict it.
	s.arrMu.Lock()
	for name, recs := range s.arrByName {
		for _, a := range recs {
			a.checkpointed = a.live() && ids[name] == a.agentID
		}
	}
	s.arrMu.Unlock()
	return nil
}

// BootstrapHome restores the site after a restart. It replays the
// migration journal first — arrival records reinstall agents that had
// landed here, and in-doubt outgoing migrations are resolved against
// their destinations (committed if the agent landed, reinstated from the
// journaled image if not; unreachable destinations stay in doubt for a
// later ResolveMigrations) — then restores every APO recorded by the last
// PersistAll. APOs already present under their name are skipped. It
// returns the names restored. A store holding a record or an image in a
// format from before records is refused with wire.ErrNotRecord (a
// map-shaped record: wire.ErrMapShaped), before anything changes: every
// record and every checkpointed image is read first (DESIGN §9).
func (s *Site) BootstrapHome() ([]string, error) {
	if s.cfg.Store == nil {
		return nil, fmt.Errorf("%w: site has no store", core.ErrNotFound)
	}
	arrivals, err := scanJournal(s, arrivalSlotPrefix, decodeArrival, func(slot string, err error) {
		s.log("replay arrival %s: %v", slot, err)
	})
	if err != nil {
		return nil, fmt.Errorf("bootstrap home: %w", err)
	}
	migrations, err := s.scanMigrations()
	if err != nil {
		return nil, fmt.Errorf("bootstrap home: %w", err)
	}
	checkpoint, err := s.readCheckpoint()
	if err != nil {
		return nil, fmt.Errorf("bootstrap home: %w", err)
	}
	restored := append(s.replayArrivals(arrivals), s.resolveMigrations(migrations)...)
	// manMu stays held across the restore: a departure's scrub edits the
	// membership this loop reads.
	s.manMu.Lock()
	defer s.manMu.Unlock()
	ids, err := s.persistedManifest()
	if err != nil {
		if len(restored) > 0 && errors.Is(err, persist.ErrNoSlot) {
			// The journal recovered agents but the site never persisted a
			// manifest (it crashed before its first PersistAll) — that is
			// a successful bootstrap, not a failure.
			sort.Strings(restored)
			return restored, nil
		}
		return restored, fmt.Errorf("bootstrap home: %w", err)
	}
	for name, img := range checkpoint {
		if ids[name] != img.ID {
			continue // a commit during recovery took it out of the checkpoint
		}
		if _, err := s.APO(name); err == nil {
			continue // already installed
		}
		if err := s.install(name, img); err != nil {
			return restored, fmt.Errorf("bootstrap %q: %w", name, err)
		}
		restored = append(restored, name)
	}
	sort.Strings(restored)
	return restored, nil
}

// readCheckpoint decodes every image the Home manifest names. A store with
// no manifest has no checkpoint.
func (s *Site) readCheckpoint() (map[string]core.Image, error) {
	s.manMu.Lock()
	defer s.manMu.Unlock()
	ids, err := s.persistedManifest()
	if errors.Is(err, persist.ErrNoSlot) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	images := make(map[string]core.Image, len(ids))
	for name, id := range ids {
		raw, err := s.cfg.Store.Get(id.String())
		if err == nil {
			images[name], err = wire.DecodeImage(raw)
		}
		if err != nil {
			return nil, fmt.Errorf("bootstrap %q: %w", name, err)
		}
	}
	return images, nil
}
