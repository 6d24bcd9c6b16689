package core

import (
	"strconv"
	"strings"
	"sync"
	"time"
)

// Deadlock detection over Serialized admissions, in the edge-chasing style
// of Chandy–Misra–Haas. Every call chain that blocks or calls a remote site
// gets a globally unique identity ("site:seq") that travels on every wire
// invoke frame, and each site's Detector owns, under its one mutex, the
// waits-for edges of the objects it hosts plus the registries a chase
// needs:
//
//   - holder:   each held object's admitted chain,
//   - blocked:  each blocked chain's wait — the object, and an abort
//               channel the probe machinery can fire,
//   - chains:   every chain identity known at this site (minted locally,
//               or adopted because a remote invocation carried it in),
//   - outbound: chains currently inside a remote call to a peer — the
//               *remote edge* of the waits-for graph.
//
// A blocking chain publishes its wait and walks wait→holder edges from
// itself in one critical section. A walk that comes back to it closes a
// local cycle — the zero-hop chase — and the verdict is delivered at once;
// a walk that ends at a chain off inside a remote call forwards the probe
// (initiator, target, path) to that peer, which continues the chase
// through its own edges. Either way the victim is the lowest chain
// identity on the cycle, aborted with ErrDeadlock naming the whole cycle —
// long before any AdmissionTimeout backstop. Objects no detector-running
// site hosts share localDetector, which has no peers.
//
// Hygiene: probes carry a TTL (site hops) and a path cap, duplicate
// (initiator, target) forwards are suppressed within a short window, and a
// probe naming a chain this site no longer knows (completed or aborted) is
// simply dropped — a stale probe can never abort a live chain, because an
// abort only fires if the named victim is *currently* blocked here on the
// exact object the cycle names.

const (
	// DefaultProbeTTL caps how many sites one probe may traverse.
	DefaultProbeTTL = 32
	// maxProbePath caps the steps a probe accumulates; a path this long is
	// either a huge genuine cycle or a forwarding loop — drop it and let
	// the admission timeout backstop the (pathological) former.
	maxProbePath = 64
	// reprobeInterval is the cadence at which a still-blocked chain
	// re-chases, covering probes lost to partitions or races.
	reprobeInterval = 100 * time.Millisecond
	// probeDedupWindow suppresses identical (initiator, target) forwards
	// arriving within this window, bounding probe storms under re-probing.
	probeDedupWindow = 50 * time.Millisecond
)

// ProbeStep is one wait→holder edge of the chased path, in wire-portable
// (string) form.
type ProbeStep struct {
	Chain  string // blocked chain's identity
	Site   string // site where it blocks
	Object string // object whose admission it waits for
	Holder string // chain currently holding that admission
}

// Probe is one edge-chasing message: "initiator is (transitively) blocked
// behind target — continue the chase from target at your site".
type Probe struct {
	Initiator string
	Target    string
	TTL       int
	Path      []ProbeStep
}

// Verdict is a probe's reply. A zero Verdict means the chase dead-ended
// (no cycle provable through this site). Every site on the reply path
// attempts the abort, so the verdict reaches the victim wherever it blocks.
type Verdict struct {
	Cycle     string // human-readable description of the full cycle
	Victim    string // chain identity chosen to abort (lowest on the cycle)
	VictimObj string // object the victim waits on — abort precondition
}

// ProbeForwarder sends a probe to a named peer site and returns its
// verdict. Implemented by hadas.Site over the protocol's probe verb.
type ProbeForwarder interface {
	ForwardProbe(peer string, p Probe) (Verdict, error)
}

// DetectorHost is implemented by resolvers (sites) that run a Detector;
// admit discovers the detector through the object's resolver.
type DetectorHost interface {
	DeadlockDetector() *Detector
}

// Detector is one site's share of the distributed detection state.
type Detector struct {
	site string
	fwd  ProbeForwarder // nil: no peers

	mu       sync.Mutex
	holder   map[*Object]*callChain
	blocked  map[*callChain]*blockedWait
	chains   map[string]*chainEntry
	outbound map[*callChain]*outboundEdge
	seen     map[probeKey]time.Time
}

// localDetector holds the edges of objects whose resolver runs no Detector.
var localDetector = NewDetector("local", nil)

// chainEntry refcounts a chain identity's liveness at this site: one ref
// for a locally minted chain until its top-level invocation completes,
// plus one per active adoption by an incoming remote invocation. At zero
// the entry is dropped, and any later probe naming the identity dead-ends.
type chainEntry struct {
	ch   *callChain
	refs int
}

// outboundEdge marks a chain as inside n remote calls to peer — the
// remote continuation of the waits-for graph.
type outboundEdge struct {
	peer string
	n    int
}

// blockedWait is one blocked admission — the chain's waits-for edge — that
// the probe machinery may abort.
type blockedWait struct {
	obj   *Object
	abort chan string // cap 1: receives the cycle description
	done  chan struct{}
}

type probeKey struct {
	initiator string
	target    string
}

// NewDetector creates the per-site detector. fwd carries probes to peers.
func NewDetector(site string, fwd ProbeForwarder) *Detector {
	return &Detector{
		site:     site,
		fwd:      fwd,
		holder:   make(map[*Object]*callChain),
		blocked:  make(map[*callChain]*blockedWait),
		chains:   make(map[string]*chainEntry),
		outbound: make(map[*callChain]*outboundEdge),
		seen:     make(map[probeKey]time.Time),
	}
}

// Site returns the detector's site name (the origin stamped on minted
// chain identities).
func (d *Detector) Site() string { return d.site }

// ChainCount reports how many chain identities the site currently tracks
// — operational introspection, and the hook tests use to assert that
// completed chains are forgotten (so stale probes dead-end).
func (d *Detector) ChainCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.chains)
}

// ensureGID mints the chain's global identity on first need. Identity is
// minted lazily — at first export or first block — so the warm dispatch
// path never pays for it.
func (c *callChain) ensureGID(site string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gid.Load() == nil {
		gid := site + ":" + strconv.FormatUint(c.id, 10)
		c.gid.Store(&gid)
	}
	return *c.gid.Load()
}

// GID returns the chain's global identity, or "" if never minted. It takes
// no lock, so a walk holds only its detector's mutex.
func (c *callChain) GID() string {
	if gid := c.gid.Load(); gid != nil {
		return *gid
	}
	return ""
}

// addReg records that d holds a liveness ref on c (released by
// completeLocal when the chain's top-level invocation returns).
func (c *callChain) addReg(d *Detector) {
	c.mu.Lock()
	c.regs = append(c.regs, d)
	c.mu.Unlock()
}

// completeLocal releases the chain's liveness ref in every detector that
// registered it. Called once, by the frame that created the chain.
func (c *callChain) completeLocal() {
	c.mu.Lock()
	regs := c.regs
	c.regs = nil
	c.mu.Unlock()
	for _, d := range regs {
		d.unregister(c)
	}
}

// register ensures ch is tracked at this site (d.mu held), holding a
// liveness ref the chain releases at completion. Idempotent per
// (detector, chain).
func (d *Detector) register(ch *callChain) string {
	gid := ch.ensureGID(d.site)
	if d.chains[gid] == nil {
		d.chains[gid] = &chainEntry{ch: ch, refs: 1}
		ch.addReg(d)
	}
	return gid
}

// unregister drops one liveness ref (see chainEntry): a local chain's at
// completion, an adoption's at its release.
func (d *Detector) unregister(ch *callChain) {
	gid := ch.GID()
	d.mu.Lock()
	if e := d.chains[gid]; e != nil && e.ch == ch {
		e.refs--
		if e.refs <= 0 {
			delete(d.chains, gid)
			delete(d.outbound, ch)
		}
	}
	d.mu.Unlock()
}

// AdoptedChain is a remote chain identity bound to this site for the
// duration of one incoming invocation; Object.InvokeWithChain runs under it
// so re-entry and blocking at this site are attributed to the right chain.
type AdoptedChain struct {
	ch *callChain
}

// Adopt binds an incoming chain identity to this site: a chain minted here
// (and still live) is re-entered directly, so a call cycling back home runs
// inside the admissions it already holds; a foreign identity gets a local
// incarnation, created once and shared by every concurrent arrival of the
// same chain. The returned release drops the adoption ref; at zero refs
// (and local completion, if minted here) the identity is forgotten and
// stale probes naming it dead-end.
func (d *Detector) Adopt(gid string) (*AdoptedChain, func()) {
	if gid == "" {
		return nil, func() {}
	}
	d.mu.Lock()
	e := d.chains[gid]
	if e == nil {
		_, seq := parseGID(gid)
		e = &chainEntry{ch: &callChain{id: seq, entry: "remote"}}
		e.ch.gid.Store(&gid)
		d.chains[gid] = e
	}
	e.refs++
	ch := e.ch
	d.mu.Unlock()
	return &AdoptedChain{ch: ch}, func() { d.unregister(ch) }
}

// parseGID splits "origin:seq"; a malformed identity orders as
// (whole-string, 0), keeping victim selection total and deterministic.
func parseGID(gid string) (origin string, seq uint64) {
	i := strings.LastIndexByte(gid, ':')
	if i < 0 {
		return gid, 0
	}
	n, err := strconv.ParseUint(gid[i+1:], 10, 64)
	if err != nil {
		return gid, 0
	}
	return gid[:i], n
}

// gidLess is the deterministic victim order: origin site first
// (lexicographic), then mint sequence. Every site computes the same victim
// for the same cycle, so exactly one chain aborts.
func gidLess(a, b string) bool {
	ao, as := parseGID(a)
	bo, bs := parseGID(b)
	if ao != bo {
		return ao < bo
	}
	return as < bs
}

// BeginRemoteCall publishes the remote edge for a chain about to enter a
// call to peer, returning the chain identity to stamp on the wire frame.
// The returned done withdraws the edge when the call completes. A chain
// that holds no identity-worthy state (inv.chain nil — the warm local
// path) stays unregistered and ships no identity.
func (inv *Invocation) BeginRemoteCall(d *Detector, peer string) (string, func()) {
	if inv == nil || inv.chain == nil || d == nil {
		return "", func() {}
	}
	ch := inv.chain
	d.mu.Lock()
	gid := d.register(ch)
	oe := d.outbound[ch]
	if oe == nil {
		oe = &outboundEdge{}
		d.outbound[ch] = oe
	}
	oe.peer = peer
	oe.n++
	d.mu.Unlock()
	return gid, func() {
		d.mu.Lock()
		if cur := d.outbound[ch]; cur == oe {
			oe.n--
			if oe.n <= 0 {
				delete(d.outbound, ch)
			}
		}
		d.mu.Unlock()
	}
}

// detector finds the deadlock detector of the object's site, or
// localDetector when no site runs one.
func (o *Object) detector() *Detector {
	if h, ok := o.Resolver().(DetectorHost); ok {
		return h.DeadlockDetector()
	}
	return localDetector
}

// blockBegin publishes ch's wait on o and runs the zero-hop walk in one
// critical section — a local cycle's verdict is delivered before it
// returns — then starts the chase loop. It returns the abort channel admit
// selects on, and the end function that withdraws the wait once it
// resolves either way.
func (d *Detector) blockBegin(ch *callChain, o *Object) (<-chan string, func()) {
	bw := &blockedWait{
		obj:   o,
		abort: make(chan string, 1),
		done:  make(chan struct{}),
	}
	d.mu.Lock()
	gid := d.register(ch)
	d.blocked[ch] = bw
	res := d.walk(gid, ch, nil)
	d.mu.Unlock()
	go d.reprobe(gid, ch, bw, res)
	var once sync.Once
	return bw.abort, func() {
		once.Do(func() {
			d.mu.Lock()
			if d.blocked[ch] == bw {
				delete(d.blocked, ch)
			}
			d.mu.Unlock()
			close(bw.done)
		})
	}
}

// reprobe forwards the block's first walk, then re-chases while the wait
// lasts — the retry that makes detection robust to lost probes and edge
// races.
func (d *Detector) reprobe(gid string, ch *callChain, bw *blockedWait, res walkResult) {
	for {
		d.act(gid, res, DefaultProbeTTL)
		select {
		case <-bw.done:
			return
		case <-time.After(reprobeInterval):
		}
		d.mu.Lock()
		res = walkResult{}
		if d.blocked[ch] == bw {
			res = d.walk(gid, ch, nil)
		}
		d.mu.Unlock()
	}
}

// HandleProbe continues a chase arriving from a peer: locate the target
// chain, walk this site's edges from it, and either prove the cycle, forward
// to the next site, or dead-end. Stale probes — TTL or path exhausted,
// duplicates within the dedup window, or targets this site no longer
// knows — drop to a zero verdict.
func (d *Detector) HandleProbe(p Probe) Verdict {
	if p.TTL <= 0 || len(p.Path) > maxProbePath {
		return Verdict{}
	}
	key := probeKey{initiator: p.Initiator, target: p.Target}
	now := time.Now()
	d.mu.Lock()
	if last, ok := d.seen[key]; ok && now.Sub(last) < probeDedupWindow {
		d.mu.Unlock()
		return Verdict{}
	}
	d.seen[key] = now
	if len(d.seen) > 1024 {
		for k, t := range d.seen {
			if now.Sub(t) >= probeDedupWindow {
				delete(d.seen, k)
			}
		}
	}
	var res walkResult // a chain completed or never seen here: stale probe
	if e := d.chains[p.Target]; e != nil {
		res = d.walk(p.Initiator, e.ch, p.Path)
	}
	d.mu.Unlock()
	return d.act(p.Initiator, res, p.TTL-1)
}

// walkResult is the outcome of one local walk: at most one of verdict (a
// cycle closed here, already delivered) or fwdPeer (chase continues
// remotely) is set; neither means the chase dead-ended on a running chain.
type walkResult struct {
	verdict   Verdict
	fwdPeer   string
	fwdTarget string
	path      []ProbeStep
}

// walk follows wait→holder edges from start, extending path, with d.mu
// held — the only lock a walk takes. A walk that comes back to the
// initiator delivers the cycle's verdict before the lock is released.
func (d *Detector) walk(initiator string, start *callChain, path []ProbeStep) walkResult {
	steps := append([]ProbeStep(nil), path...)
	for cur := start; len(steps) <= maxProbePath; {
		bw := d.blocked[cur]
		if bw == nil {
			// Not blocked here: the chain is either running (dead end) or
			// off inside a remote call — the edge the probe must chase.
			if oe := d.outbound[cur]; oe != nil {
				return walkResult{fwdPeer: oe.peer, fwdTarget: cur.GID(), path: steps}
			}
			return walkResult{}
		}
		holder := d.holder[bw.obj]
		if holder == nil {
			return walkResult{} // slot in hand-off; a reprobe will re-check
		}
		hgid := holder.GID()
		steps = append(steps, ProbeStep{Chain: cur.GID(), Site: d.site, Object: objLabel(bw.obj), Holder: hgid})
		if hgid != "" && hgid == initiator {
			v := Verdict{Cycle: d.describe(steps), Victim: chooseVictim(steps)}
			for _, s := range steps {
				if s.Chain == v.Victim {
					v.VictimObj = s.Object
					break
				}
			}
			d.abort(v)
			return walkResult{verdict: v}
		}
		cur = holder
	}
	return walkResult{} // path cap: drop, the backstop covers pathology
}

// act finishes one chase leg: a verdict the walk delivered is returned as
// is; otherwise the probe is forwarded and the peer's verdict relayed
// (again attempting the abort — the reply path visits every site of the
// cycle, so the abort lands wherever the victim waits).
func (d *Detector) act(initiator string, res walkResult, ttl int) Verdict {
	if res.fwdPeer == "" || ttl <= 0 || d.fwd == nil {
		return res.verdict
	}
	// A lost probe is re-sent by the reprobe loop.
	v, _ := d.fwd.ForwardProbe(res.fwdPeer, Probe{
		Initiator: initiator,
		Target:    res.fwdTarget,
		TTL:       ttl,
		Path:      res.path,
	})
	if v.Victim != "" {
		d.abortIfBlocked(v)
	}
	return v
}

// abortIfBlocked fires the victim's abort channel iff the victim is
// currently blocked at this site on the very object the cycle names —
// the guard that makes stale verdicts harmless to live chains.
func (d *Detector) abortIfBlocked(v Verdict) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.abort(v)
}

// abort is abortIfBlocked with d.mu held.
func (d *Detector) abort(v Verdict) bool {
	e := d.chains[v.Victim]
	if e == nil {
		return false
	}
	bw := d.blocked[e.ch]
	if bw == nil || objLabel(bw.obj) != v.VictimObj {
		return false
	}
	select {
	case bw.abort <- v.Cycle:
	default:
	}
	return true
}

// chooseVictim picks the lowest chain identity on the cycle.
func chooseVictim(cycle []ProbeStep) string {
	victim := cycle[0].Chain
	for _, s := range cycle[1:] {
		if gidLess(s.Chain, victim) {
			victim = s.Chain
		}
	}
	return victim
}

// describe renders a cycle for the victim's error (d.mu held): every
// step's chain — by its label where this site knows it — site, object and
// holder.
func (d *Detector) describe(cycle []ProbeStep) string {
	name := func(gid string) string {
		if e := d.chains[gid]; e != nil {
			return e.ch.label()
		}
		return "chain " + gid
	}
	kind := "cycle: "
	parts := make([]string, len(cycle))
	for i, s := range cycle {
		if s.Site != d.site {
			kind = "cross-site cycle: "
		}
		parts[i] = name(s.Chain) + " at " + s.Site + " waits for " + s.Object + " held by " + name(s.Holder)
	}
	return kind + strings.Join(parts, "; ")
}
