package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/naming"
	"repro/internal/security"
)

// This file implements the invocation fast path: per object, one published
// table per structural generation holding the meta-invoke chain, the
// policy and auditor in force, Lookup results (immutable method snapshots)
// and Match decisions, validated against generation counters so any
// reflective mutation invalidates the affected entries before it can be
// observed. The paper concedes that "structural mutability bears some price
// on performance" (§3); the table confines that price to the first call
// after a mutation — repeat invocations by the same principal skip both the
// container search and the ACL scan.
//
// Invalidation is per entry, not per object (documented for users in
// DESIGN.md §7 and §10): every DataItem and Method carries its own
// generation counter, and every cached entry records the counter pointer
// plus the value it was filled against. An entry is valid while
//
//   - it sits in the table of the object's current structGen (structGen
//     advances only on dispatch-shape changes: meta-invoke level push, pop
//     or edit, atomic rollback, policy/auditor attachment, and manual
//     cache flushes);
//   - the source item's generation is unchanged (item generations advance
//     on body/pre/post replacement, rename, visibility and ACL edits, and
//     deletion — all the per-item mutations);
//   - for a Match decision that fell through to the site Policy,
//     Policy.Generation is also unchanged.
//
// Adding a new item needs no invalidation at all: misses are never
// memoized, and the duplicate check prevents an add from shadowing an
// existing name. Bumps happen inside the object lock; a table is built, and
// a fill reads its item's state and generation, under that same lock. So a
// table always describes the shape its generation names, and a fill can
// never tag a stale snapshot with a current generation: either the fill
// observed the mutation, or its entry is dead on arrival. The guarantee
// that matters: once a revoke (ACL edit, policy change, method deletion,
// level pop) returns, the very next invocation re-evaluates Match from
// scratch — a cached allow is never served after a revoke. What fine
// granularity adds: a mutation of one item no longer evicts warm entries
// for its neighbors.

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

// caller returns the principal the key was built for.
func (k matchKey) caller() security.Principal {
	return security.Principal{Object: k.object, Domain: k.domain}
}

// matchEntry is one memoized Match decision — the only entry type of the
// cache. err is the exact (immutable) error a cold Match would produce, nil
// on allow. src/srcGen pin the decision to the generation of the item it
// was computed against. A level-0 invoke decision also carries the Lookup
// result it was computed on, so a hit needs no second map. The struct stays
// inside the 64-byte size class: every cold call allocates one.
type matchEntry struct {
	err    error
	snap   *methodSnap    // level-0 invoke decisions only
	src    *atomic.Uint64 // the item's generation counter
	srcGen uint64         // its value when the decision was computed
	polGen uint64         // Policy.Generation the decision was computed against
	polDep bool           // decision fell through to the policy default
	// ref is the entry's L1 reference, built on its first warm hit (never
	// on the fill path, whose bytes local-mutate prices) and reused by
	// every later one, so callers alternating on an object republish it
	// without allocating.
	ref atomic.Pointer[hotRef]
}

// fresh reports whether the decided-against item is unedited.
func (e *matchEntry) fresh() bool { return e.src.Load() == e.srcGen }

// valid reports whether the decision still holds under pol, the policy of
// the table the entry sits in.
func (e *matchEntry) valid(pol *security.Policy) bool {
	return e.fresh() && (!e.polDep || pol == nil || pol.Generation() == e.polGen)
}

// hotRef is what the monomorphic L1 points at: the level-0 invoke decision
// last served, with the caller it belongs to (the method name is the
// snapshot's) and the table it sits in (generation, policy, auditor). The
// repeat-caller hot path is an atomic load and a handful of comparisons —
// no lock and no map hash.
type hotRef struct {
	t      *cacheTables
	ent    *matchEntry
	obj    naming.ID
	domain string
}

// Cache maps stop admitting new keys at these bounds, so caller churn
// cannot grow an object's memory without bound.
const (
	maxMethodEntries = 512
	maxMatchEntries  = 4096
)

// dispatchCache memoizes Lookup and Match. One lives inline in every
// Object; the zero value is an empty cache. hot is the single-entry
// lock-free L1; tables is the current generation's table, published
// through an atomic pointer so concurrent readers on different Ps never
// serialize on a mutex word — under contention an RWMutex's reader count
// is a single cache line every RLock bounces between cores, and the table
// sits on the path of every caller-alternating workload.
type dispatchCache struct {
	hot    atomic.Pointer[hotRef]
	tables atomic.Pointer[cacheTables]
}

// cacheTables is one structural generation's worth of dispatch state: the
// shape (meta-invoke chain, policy, auditor — changing any of them bumps
// structGen) and what has been memoized against it. The maps are sync.Maps
// — after the first fill for a key, reads are lock-free and contention-free
// (sync.Map's read path is an atomic load of an immutable read-only map).
// A generation bump abandons the whole table: the next reader builds a
// fresh one and the old becomes garbage, which is the wholesale
// invalidation.
type cacheTables struct {
	gen      uint64
	levels   []*methodSnap // the meta-invoke chain: index k-1 holds level k
	pol      *security.Policy
	aud      *security.Auditor
	methods  sync.Map     // method name -> *methodSnap
	match    sync.Map     // matchKey -> *matchEntry
	nmethods atomic.Int64 // approximate key counts backing the size bounds
	nmatch   atomic.Int64
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

// served returns the memoized decision under key while it is still valid.
// Audited objects record every decision served from the cache, with self,
// the table's object, as the target. Callers have already short-circuited
// self access.
func (t *cacheTables) served(self naming.ID, key matchKey) (decision error, ok bool) {
	ent := t.decision(key)
	if ent == nil || !ent.valid(t.pol) {
		return nil, false
	}
	if t.aud != nil {
		t.aud.Record(self, key.caller(), key.action, key.item, ent.err == nil)
	}
	return ent.err, true
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

// bumpStruct invalidates every dispatch-cache entry of the object. Called
// (under o.mu) by mutations that change the dispatch shape wholesale:
// level push/pop/edit, atomic rollback, policy/auditor attachment. Per-item
// edits bump the item's own counter instead (see item.go).
func (o *Object) bumpStruct() { o.structGen.Add(1) }

// FlushDispatchCache drops every memoized lookup and Match decision. The
// caches invalidate themselves on reflective mutation; manual flushing
// exists for cold-path benchmarks and for hosts shedding memory.
func (o *Object) FlushDispatchCache() {
	o.structGen.Add(1)
}

// tableLocked returns the table of the current structural generation,
// building and publishing it if the shape has moved. Callers hold o.mu,
// where structGen is bumped: the table therefore describes exactly the
// shape its generation names, and an older table can never be published
// over a newer one.
func (o *Object) tableLocked() *cacheTables {
	gen := o.structGen.Load()
	if t := o.cache.tables.Load(); t != nil && t.gen == gen {
		return t
	}
	t := &cacheTables{gen: gen, pol: o.policy, aud: o.auditor,
		levels: make([]*methodSnap, len(o.invokeLevels))}
	for i, m := range o.invokeLevels {
		t.levels[i] = snapshotMethod(m)
	}
	o.cache.tables.Store(t)
	return t
}

// currentTable is tableLocked for callers outside the lock; it takes o.mu
// only on the first call after a shape change.
func (o *Object) currentTable() *cacheTables {
	if t := o.cache.tables.Load(); t != nil && t.gen == o.structGen.Load() {
		return t
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.tableLocked()
}

// snapLocked returns the published snapshot of method m, taking and
// publishing one if there is none or m has been edited (or replaced under
// its name) since. A caller new to the method thus reuses the snapshot a
// warm neighbor is running on instead of replacing it. Callers hold o.mu,
// so a fresh answer cannot go stale before they release it.
func (t *cacheTables) snapLocked(m *Method) *methodSnap {
	if s := t.method(m.name); s != nil && s.src == m.gen && s.fresh() {
		return s
	}
	s := snapshotMethod(m)
	boundedStore(&t.methods, &t.nmethods, maxMethodEntries, m.name, s)
	return s
}

// decide runs Match for key against item state (acl, visible, src/srcGen)
// that was read under o.mu together with t, and memoizes the outcome in t —
// the one place a decision entry is built and stored. snap is the Lookup
// result of a level-0 invoke decision, nil otherwise. A mutation racing the
// fill leaves the entry dead on arrival: an item edit has moved src past
// srcGen, a shape change has abandoned t, a policy flip has moved past the
// generation read here before Match.
func (o *Object) decide(t *cacheTables, key matchKey, acl security.ACL, visible bool,
	src *atomic.Uint64, srcGen uint64, snap *methodSnap) error {
	var polGen uint64
	if t.pol != nil {
		polGen = t.pol.Generation()
	}
	decision, polDep := o.matchDecide(key.caller(), acl, visible, t.pol, t.aud, key.action, key.item)
	boundedStore(&t.match, &t.nmatch, maxMatchEntries, key,
		&matchEntry{err: decision, snap: snap, src: src, srcGen: srcGen, polGen: polGen, polDep: polDep})
	return decision
}

// fastLookup returns the cached method snapshot and Match decision for
// caller invoking name at level 0. ok is false on any miss or staleness;
// the caller then takes the slow path, which refills the cache. Audited
// objects still record every decision served from the cache — except the
// object's own, which Match never records either.
func (o *Object) fastLookup(caller security.Principal, name string) (snap *methodSnap, decision error, ok bool) {
	c := &o.cache
	sg := o.structGen.Load()
	// L1: the last dispatch, revalidated with plain comparisons.
	r := c.hot.Load()
	if r == nil || r.t.gen != sg || r.obj != caller.Object || r.ent.snap.name != name ||
		r.domain != caller.Domain || !r.ent.valid(r.t.pol) {
		t := c.tables.Load()
		if t == nil || t.gen != sg {
			return nil, nil, false
		}
		// The map is read directly: decision is past the inlining budget,
		// and a second copy of the key costs this path 2-3 ns.
		v, found := t.match.Load(matchKey{object: caller.Object, domain: caller.Domain,
			action: security.ActionInvoke, item: name})
		if !found {
			return nil, nil, false
		}
		ent := v.(*matchEntry)
		if !ent.valid(t.pol) {
			return nil, nil, false
		}
		if r = ent.ref.Load(); r == nil {
			r = &hotRef{t: t, ent: ent, obj: caller.Object, domain: caller.Domain}
			ent.ref.Store(r)
		}
		c.hot.Store(r)
	}
	if aud := r.t.aud; aud != nil && caller.Object != o.id {
		aud.Record(o.id, caller, security.ActionInvoke, name, r.ent.err == nil)
	}
	return r.ent.snap, r.ent.err, true
}

// fastDecision returns the memoized Match decision for (caller, action,
// item) — the data-access half of the fast path. Self access always allows
// without consulting the cache.
func (o *Object) fastDecision(caller security.Principal, action security.Action, item string) (decision error, ok bool) {
	if caller.Object == o.id {
		return nil, true
	}
	t := o.cache.tables.Load()
	if t == nil || t.gen != o.structGen.Load() {
		return nil, false
	}
	return t.served(o.id, matchKey{object: caller.Object, domain: caller.Domain, action: action, item: item})
}
