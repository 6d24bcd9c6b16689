package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/naming"
	"repro/internal/security"
)

// This file implements the level-0 invocation fast path: a per-object memo
// of Lookup results (immutable method snapshots) and Match decisions,
// validated against generation counters so any reflective mutation
// invalidates the affected entries before it can be observed. The paper
// concedes that "structural mutability bears some price on performance"
// (§3); the caches below confine that price to the first call after a
// mutation — repeat invocations by the same principal skip both the
// container search and the ACL scan.
//
// Invalidation is per entry, not per object (documented for users in
// DESIGN.md §7 and §10): every DataItem and Method carries its own
// generation counter, and every cached entry records the counter pointer
// plus the value it was filled against. An entry is valid while
//
//   - the object's structGen equals the value captured at fill time
//     (structGen now advances only on dispatch-shape changes: meta-invoke
//     level push/pop, atomic rollback, policy/auditor attachment, and
//     manual cache flushes);
//   - the source item's generation is unchanged (item generations advance
//     on body/pre/post replacement, rename, visibility and ACL edits, and
//     deletion — all the per-item mutations);
//   - for a Match decision that fell through to the site Policy,
//     Policy.Generation is also unchanged.
//
// Adding a new item needs no invalidation at all: misses are never
// memoized, and the duplicate check prevents an add from shadowing an
// existing name. Bumps happen inside the object lock and fills read their
// generations under that same lock, so a fill can never tag a stale
// snapshot with a current generation: either the fill observed the
// mutation, or its entry is dead on arrival. The guarantee that matters:
// once a revoke (ACL edit, policy change, method deletion) returns, the
// very next invocation re-evaluates Match from scratch — a cached allow is
// never served after a revoke. What fine granularity adds: a mutation of
// one item no longer evicts warm entries for its neighbors.

// methodSnap is an immutable snapshot of a method, taken under the object
// lock. The Apply phase works from snapshots so a concurrent setMethod is
// never observed mid-edit: an in-flight invocation finishes on the body it
// started with, and the next dispatch sees the replacement. src/srcGen
// pin the snapshot to the method state it was taken from.
type methodSnap struct {
	name    string
	body    Body
	pre     Body
	post    Body
	acl     security.ACL
	visible bool
	src     *atomic.Uint64 // the method's generation counter
	srcGen  uint64         // its value when the snapshot was taken
}

// fresh reports whether the snapshotted method is unedited.
func (s *methodSnap) fresh() bool { return s.src.Load() == s.srcGen }

// snapshotMethod copies the dispatch-relevant fields. Callers hold o.mu.
func snapshotMethod(m *Method) *methodSnap {
	return &methodSnap{name: m.name, body: m.body, pre: m.pre, post: m.post,
		acl: m.acl, visible: m.visible, src: m.gen, srcGen: m.gen.Load()}
}

// levelsSnap is an immutable snapshot of the whole meta-invoke chain plus
// the policy/auditor captured with it, published through Object.levelCache
// so runLevel needs the object lock only on the first call after an edit.
// Validity mirrors the other cache entries: the snapshot holds while
// structGen still equals gen (level push/pop and policy changes bump it)
// and the used level's methodSnap is fresh (editing a level method through
// its getMethod handle bumps that method's own counter).
type levelsSnap struct {
	gen   uint64
	snaps []*methodSnap // index k-1 holds level k
	pol   *security.Policy
	aud   *security.Auditor
}

// snapshotLevels fills and publishes the level cache. The store happens
// under the object lock, where structGen is bumped, so a stale snapshot can
// never overwrite a fresher one.
func (o *Object) snapshotLevels() *levelsSnap {
	o.mu.Lock()
	defer o.mu.Unlock()
	ls := &levelsSnap{
		gen:   o.structGen.Load(),
		snaps: make([]*methodSnap, len(o.invokeLevels)),
		pol:   o.policy,
		aud:   o.auditor,
	}
	for i, m := range o.invokeLevels {
		ls.snaps[i] = snapshotMethod(m)
	}
	o.levelCache.Store(ls)
	return ls
}

// currentLevels returns the published level-chain snapshot, refilling it
// when the dispatch shape has changed since it was taken.
func (o *Object) currentLevels() *levelsSnap {
	if ls := o.levelCache.Load(); ls != nil && ls.gen == o.structGen.Load() {
		return ls
	}
	return o.snapshotLevels()
}

// levelDecision returns the Match decision for caller invoking the level-k
// meta-invoke, memoized in the match map under the level number (the whole
// chain shares one method name, so the name alone cannot key it). Callers
// have already short-circuited self access.
func (o *Object) levelDecision(caller security.Principal, ls *levelsSnap, k int, meta *methodSnap) error {
	key := matchKey{object: caller.Object, domain: caller.Domain,
		action: security.ActionInvoke, item: meta.name, level: k}
	c := &o.cache
	var ent *matchEntry
	if t := c.tables.Load(); t != nil && t.gen == ls.gen {
		ent = t.decision(key)
	}
	if ent != nil && ent.fresh() &&
		!(ent.polDep && ls.pol != nil && ls.pol.Generation() != ent.polGen) {
		if ls.aud != nil {
			ls.aud.Record(caller, security.ActionInvoke, meta.name, ent.allowed)
		}
		return ent.err
	}
	var polGen uint64
	if ls.pol != nil {
		polGen = ls.pol.Generation()
	}
	decision, polDep := o.matchDecide(caller, meta.acl, meta.visible, ls.pol, ls.aud,
		security.ActionInvoke, meta.name)
	c.store(ls.gen, ls.pol, ls.aud, "", nil, key,
		&matchEntry{err: decision, allowed: decision == nil, polDep: polDep,
			polGen: polGen, src: meta.src, srcGen: meta.srcGen})
	return decision
}

// matchKey identifies one memoized Match decision: who asked to do what to
// which item. level is 0 for ordinary items; a level-k meta-invoke decision
// is keyed by its level so it can never collide with a stored method that
// happens to share the name.
type matchKey struct {
	object naming.ID
	domain string
	action security.Action
	item   string
	level  int
}

// matchEntry is one memoized Match decision. err is the exact (immutable)
// error a cold Match would produce, nil on allow. src/srcGen pin the
// decision to the generation of the item it was computed against.
type matchEntry struct {
	err     error
	allowed bool
	polDep  bool           // decision fell through to the policy default
	polGen  uint64         // Policy.Generation the decision was computed against
	src     *atomic.Uint64 // the item's generation counter
	srcGen  uint64         // its value when the decision was computed
}

// fresh reports whether the decided-against item is unedited.
func (e *matchEntry) fresh() bool { return e.src.Load() == e.srcGen }

// Cache maps are reset wholesale when they outgrow these bounds, so caller
// churn cannot grow an object's memory without bound.
const (
	maxMethodEntries = 512
	maxMatchEntries  = 4096
)

// hotEntry is the monomorphic L1 of the dispatch cache: the full outcome of
// the last level-0 dispatch (snapshot + decision), published as one
// immutable value so the repeat-caller hot path needs no lock and no map
// hash — just an atomic load and a handful of comparisons. The snapshot's
// own src/srcGen validate the entry against per-item edits.
type hotEntry struct {
	gen     uint64
	name    string
	obj     naming.ID
	domain  string
	snap    *methodSnap
	err     error
	allowed bool
	polDep  bool
	polGen  uint64
	pol     *security.Policy
	aud     *security.Auditor
}

// hotKey identifies one composed dispatch outcome: caller × method.
type hotKey struct {
	name   string
	obj    naming.ID
	domain string
}

// dispatchCache memoizes Lookup and Match for level-0 dispatch. One lives
// inline in every Object; the zero value is an empty cache. hot is the
// single-entry lock-free L1; the shared L2 is a cacheTables published
// through an atomic pointer, so concurrent readers on different Ps never
// serialize on a mutex word — under contention an RWMutex's reader count
// is a single cache line every RLock bounces between cores, and the L2
// sits on the path of every caller-alternating workload. fillMu guards
// only table rotation (once per structural generation), never reads.
type dispatchCache struct {
	hot    atomic.Pointer[hotEntry]
	tables atomic.Pointer[cacheTables]
	fillMu sync.Mutex
}

// cacheTables is one structural generation's worth of memoized dispatch
// state. The maps are sync.Maps — after the first fill for a key, reads
// are lock-free and contention-free (sync.Map's read path is an atomic
// load of an immutable read-only map). A generation bump abandons the
// whole table: the next fill rotates in a fresh one and the old becomes
// garbage, which is the wholesale invalidation the old design expressed
// by resetting maps in place.
//
// hots holds composed hotEntry values per caller × method, so workloads
// that alternate between methods republish the same immutable entry into
// the L1 instead of allocating a fresh one on every switch.
type cacheTables struct {
	gen      uint64
	pol      *security.Policy  // captured policy (changing it bumps structGen)
	aud      *security.Auditor // captured auditor (changing it bumps structGen)
	methods  sync.Map          // method name -> *methodSnap
	match    sync.Map          // matchKey -> *matchEntry
	hots     sync.Map          // hotKey -> *hotEntry
	nmethods atomic.Int64      // approximate key counts backing the size bounds
	nmatch   atomic.Int64
	nhots    atomic.Int64
}

// method returns the cached Lookup snapshot for name, or nil.
func (t *cacheTables) method(name string) *methodSnap {
	if v, ok := t.methods.Load(name); ok {
		return v.(*methodSnap)
	}
	return nil
}

// decision returns the cached Match decision under key, or nil.
func (t *cacheTables) decision(key matchKey) *matchEntry {
	if v, ok := t.match.Load(key); ok {
		return v.(*matchEntry)
	}
	return nil
}

// boundedStore stores val under key, admitting a NEW key only while the
// map holds fewer than limit keys (replacing a present key is always
// allowed — that is how stale entries heal in place). The count is
// approximate under racing inserts of the same fresh key; the bound is a
// memory backstop against caller churn, not an exact capacity, and a
// dropped fill only costs the next call a slow-path recompute.
func boundedStore(m *sync.Map, n *atomic.Int64, limit int64, key, val any) {
	if _, ok := m.Load(key); ok {
		m.Store(key, val)
		return
	}
	if n.Add(1) <= limit {
		m.Store(key, val)
	}
}

// tablesFor returns the table for the given structural generation,
// rotating a fresh one in if the published table is older. A fill tagged
// with a generation older than the published table is dropped (nil): its
// entries would fail the use-time gen comparison anyway, and refusing
// them means a racing stale fill can never evict fresh state.
func (c *dispatchCache) tablesFor(gen uint64, pol *security.Policy, aud *security.Auditor) *cacheTables {
	if t := c.tables.Load(); t != nil {
		if t.gen == gen {
			return t
		}
		if t.gen > gen {
			return nil
		}
	}
	c.fillMu.Lock()
	defer c.fillMu.Unlock()
	if t := c.tables.Load(); t != nil {
		if t.gen == gen {
			return t
		}
		if t.gen > gen {
			return nil
		}
	}
	t := &cacheTables{gen: gen, pol: pol, aud: aud}
	c.tables.Store(t)
	return t
}

// bumpStruct invalidates every dispatch-cache entry of the object. Called
// (under o.mu) by mutations that change the dispatch shape wholesale:
// level push/pop, atomic rollback, policy/auditor attachment. Per-item
// edits bump the item's own counter instead (see item.go).
func (o *Object) bumpStruct() { o.structGen.Add(1) }

// FlushDispatchCache drops every memoized lookup and Match decision. The
// caches invalidate themselves on reflective mutation; manual flushing
// exists for cold-path benchmarks and for hosts shedding memory.
func (o *Object) FlushDispatchCache() {
	o.structGen.Add(1)
}

// fastLookup returns the cached method snapshot and Match decision for
// caller invoking name at level 0. ok is false on any miss or staleness;
// the caller then takes the slow path, which refills the cache. Audited
// objects still record every decision served from the cache.
func (o *Object) fastLookup(caller security.Principal, name string) (snap *methodSnap, decision error, ok bool) {
	c := &o.cache
	sg := o.structGen.Load()

	// L1: the last dispatch, revalidated with plain comparisons.
	if hot := c.hot.Load(); hot != nil &&
		hot.gen == sg && hot.snap.fresh() &&
		hot.name == name && hot.obj == caller.Object && hot.domain == caller.Domain &&
		(!hot.polDep || hot.pol == nil || hot.pol.Generation() == hot.polGen) {
		if hot.aud != nil {
			hot.aud.Record(caller, security.ActionInvoke, name, hot.allowed)
		}
		return hot.snap, hot.err, true
	}

	t := c.tables.Load()
	if t == nil || t.gen != sg {
		return nil, nil, false
	}
	self := caller.Object == o.id
	hk := hotKey{name: name, obj: caller.Object, domain: caller.Domain}
	// Composed entry for this caller × method: republish it to the L1
	// unchanged — no allocation when a workload alternates methods.
	if v, found := t.hots.Load(hk); found {
		he := v.(*hotEntry)
		if he.snap.fresh() &&
			(!he.polDep || he.pol == nil || he.pol.Generation() == he.polGen) {
			if he.aud != nil {
				he.aud.Record(caller, security.ActionInvoke, name, he.allowed)
			}
			c.hot.Store(he)
			return he.snap, he.err, true
		}
	}
	snap = t.method(name)
	if snap == nil || !snap.fresh() {
		return nil, nil, false
	}
	pol, aud := t.pol, t.aud
	var he *hotEntry
	if self {
		// Self-containment: an object always controls itself.
		he = &hotEntry{gen: sg, name: name, obj: caller.Object, domain: caller.Domain,
			snap: snap, allowed: true, pol: pol, aud: aud}
	} else {
		ent := t.decision(matchKey{object: caller.Object, domain: caller.Domain,
			action: security.ActionInvoke, item: name})
		if ent == nil || !ent.fresh() {
			return nil, nil, false
		}
		if ent.polDep && pol != nil && pol.Generation() != ent.polGen {
			return nil, nil, false
		}
		he = &hotEntry{gen: sg, name: name, obj: caller.Object, domain: caller.Domain,
			snap: snap, err: ent.err, allowed: ent.allowed, polDep: ent.polDep,
			polGen: ent.polGen, pol: pol, aud: aud}
	}
	if aud != nil {
		aud.Record(caller, security.ActionInvoke, name, he.allowed)
	}
	c.hot.Store(he)
	boundedStore(&t.hots, &t.nhots, maxMatchEntries, hk, he)
	return he.snap, he.err, true
}

// fastDecision returns the memoized Match decision for (caller, action,
// item) — the data-access half of the fast path. Self access always allows
// without consulting the cache.
func (o *Object) fastDecision(caller security.Principal, action security.Action, item string) (decision error, ok bool) {
	if caller.Object == o.id {
		return nil, true
	}
	c := &o.cache
	sg := o.structGen.Load()
	t := c.tables.Load()
	if t == nil || t.gen != sg {
		return nil, false
	}
	ent := t.decision(matchKey{object: caller.Object, domain: caller.Domain, action: action, item: item})
	if ent == nil || !ent.fresh() {
		return nil, false
	}
	if ent.polDep && t.pol != nil && t.pol.Generation() != ent.polGen {
		return nil, false
	}
	if t.aud != nil {
		t.aud.Record(caller, action, item, ent.allowed)
	}
	return ent.err, true
}

// publishedSnap returns the snapshot of method m already published under
// name in the table of generation gen, or nil when there is none or m has
// been edited (or replaced) since it was taken. Callers hold o.mu, so a
// fresh answer cannot go stale before they release it.
func (c *dispatchCache) publishedSnap(gen uint64, name string, m *Method) *methodSnap {
	t := c.tables.Load()
	if t == nil || t.gen != gen {
		return nil
	}
	if s := t.method(name); s != nil && s.src == m.gen && s.fresh() {
		return s
	}
	return nil
}

// store fills cache entries computed against the given structGen. A nil
// snap stores only the match entry (data access); a nil ent stores only the
// snapshot (self calls bypass Match). Fills tagged with a generation older
// than the published table are dropped — their entries would fail the
// use-time comparison anyway, and refusing them means a racing stale fill
// cannot evict fresh state. A fill from a newer generation rotates in a
// fresh table.
func (c *dispatchCache) store(gen uint64, pol *security.Policy, aud *security.Auditor,
	name string, snap *methodSnap, key matchKey, ent *matchEntry) {
	t := c.tablesFor(gen, pol, aud)
	if t == nil {
		return
	}
	if snap != nil {
		boundedStore(&t.methods, &t.nmethods, maxMethodEntries, name, snap)
	}
	if ent != nil {
		boundedStore(&t.match, &t.nmatch, maxMatchEntries, key, ent)
	}
}
