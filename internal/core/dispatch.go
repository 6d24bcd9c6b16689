package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/naming"
	"repro/internal/security"
)

// This file implements the invocation fast path (DESIGN.md §7). A Match
// verdict depends on the caller, the item's ACL, name and visibility, the
// action and the policy — never on the object — so the site's policy
// remembers it once for every object asking the same question
// (security.Policy.Recall). What an object keeps scales with its items,
// never with its callers: per structural generation, one published table
// holding the meta-invoke chain, the policy, auditor and allow link in
// force, and an immutable Lookup snapshot per item. The paper concedes that
// "structural mutability bears some price on performance" (§3); the table
// confines that price to the first call after a mutation.
//
// A snapshot is valid while its table is the one of the object's current
// structGen (bumped only by dispatch-shape changes: level push, pop or
// edit, rollback, policy/auditor/link attachment, flushes) and its item's
// own generation is unchanged (bumped by every per-item edit, deletion and
// rollback). Bumps happen, and tables and snapshots are taken, under the
// object lock, so a snapshot can never tag stale item state with a current
// generation: once a revoke returns, the very next call re-evaluates Match.
// A verdict needs no invalidation of its own: ACLs are immutable, so an ACL
// edit makes the item ask a new question; a verdict the policy default
// settled also carries the policy generation. Adding an item invalidates
// nothing: misses are never stored, and duplicate checks forbid shadowing.

// itemSnap is what Lookup found of an item and Match needs: name, ACL and
// visibility, taken under the object lock. src/srcGen pin it to the item
// state it was taken from. It is a data item's whole snapshot.
type itemSnap struct {
	security.Item
	src    *atomic.Uint64 // the item's generation counter
	srcGen uint64         // its value when the snapshot was taken
	// hot is the verdict last served on the item, the L1 in front of the
	// policy's table. Every verdict stored here answers this item's
	// question for its own principal, so racing stores only ever replace
	// one right answer with another.
	hot atomic.Pointer[security.Verdict]
}

// fresh reports whether the snapshotted item is unedited.
func (s *itemSnap) fresh() bool { return s.src.Load() == s.srcGen }

// methodSnap is an immutable snapshot of a method. The Apply phase works
// from snapshots so a concurrent setMethod is never observed mid-edit: an
// in-flight invocation finishes on the body it started with, and the next
// dispatch sees the replacement.
type methodSnap struct {
	itemSnap
	body Body
	pre  Body
	post Body
}

// snapshotMethod copies the dispatch-relevant fields. Callers hold o.mu.
func snapshotMethod(m *Method) *methodSnap {
	return &methodSnap{itemSnap: itemSnap{Item: security.NewItem(m.acl, m.name, m.visible),
		src: m.gen, srcGen: m.gen.Load()}, body: m.body, pre: m.pre, post: m.post}
}

// dataKey keys a data item's snapshot in the table, apart from a method
// of the same name.
type dataKey string

// maxItemEntries bounds a table's snapshot map: past it, a new name is not
// admitted, so add/delete churn cannot grow an object's memory.
const maxItemEntries = 512

// dispatchCache is the published table, inline in every Object; the zero
// value is empty. An atomic pointer, so concurrent readers on different Ps
// never serialize on a mutex word.
type dispatchCache struct {
	tables atomic.Pointer[cacheTables]
}

// cacheTables is one structural generation's worth of dispatch state: the
// shape (meta-invoke chain, policy, auditor, allow link — changing any of
// them bumps structGen) and the item snapshots taken against it. After the
// first fill for a name, reads of items are lock-free and contention-free. A
// generation bump abandons the whole table: the next reader builds a fresh
// one and the old becomes garbage, which is the wholesale invalidation.
type cacheTables struct {
	gen    uint64
	levels []*methodSnap // the meta-invoke chain: index k-1 holds level k
	pol    *security.Policy
	aud    *security.Auditor // denials
	link   *security.Auditor // allows; nil while the link is disarmed
	items  sync.Map          // method name -> *methodSnap, dataKey(name) -> *itemSnap
	nitems atomic.Int64
	hot    atomic.Pointer[methodSnap] // the method last dispatched: the L1
}

// method returns the cached Lookup snapshot of the method name, or nil.
func (t *cacheTables) method(name string) *methodSnap {
	if v, ok := t.items.Load(name); ok {
		return v.(*methodSnap)
	}
	return nil
}

// data returns the cached Lookup snapshot of the data item name, or nil.
func (t *cacheTables) data(name string) *itemSnap {
	if v, ok := t.items.Load(dataKey(name)); ok {
		return v.(*itemSnap)
	}
	return nil
}

// store publishes a snapshot under key. Past maxItemEntries names a new
// key is taken back at once (an existing one is always replaced — that is
// how stale snapshots heal in place); the count is approximate under races,
// and a dropped fill only costs the next call a slow-path Lookup.
func (t *cacheTables) store(key, snap any) {
	if _, replaced := t.items.Swap(key, snap); !replaced && t.nitems.Add(1) > maxItemEntries {
		t.items.Delete(key)
	}
}

// bumpStruct invalidates every snapshot of the object. Called (under o.mu)
// by mutations that change the dispatch shape wholesale: level push/pop/
// edit, atomic rollback, policy/auditor/link attachment. Per-item edits
// bump the item's own counter instead (see item.go).
func (o *Object) bumpStruct() { o.structGen.Add(1) }

// FlushDispatchCache drops every memoized lookup, and every verdict of the
// object's policy, so the object's next call is fully cold. The caches
// invalidate themselves on reflective mutation; manual flushing exists for
// cold-path benchmarks and for hosts shedding memory.
func (o *Object) FlushDispatchCache() {
	o.mu.Lock()
	pol := o.policy
	o.bumpStruct()
	o.mu.Unlock()
	if pol != nil {
		pol.ForgetVerdicts()
	}
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
	t := &cacheTables{gen: gen, pol: o.policy, aud: o.auditor, link: o.auditLink,
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
	t.store(m.name, s)
	return s
}

// dataSnapLocked is snapLocked for data item d.
func (t *cacheTables) dataSnapLocked(d *DataItem) *itemSnap {
	if s := t.data(d.name); s != nil && s.src == d.gen && s.fresh() {
		return s
	}
	s := &itemSnap{Item: security.NewItem(d.acl, d.name, d.visible), src: d.gen, srcGen: d.gen.Load()}
	t.store(dataKey(d.name), s)
	return s
}

// decide is the Match phase of caller taking action on the item s
// snapshots, under t's policy: an open item allows outright; else the
// item's L1 verdict, else the policy's remembered one, else a cold Match
// the policy remembers. Each denial is recorded however it is served, an
// allow only while the link is armed, the object's own access never.
func (o *Object) decide(t *cacheTables, s *itemSnap, caller security.Principal, action security.Action) error {
	if caller.Object == o.id {
		return nil
	}
	var err error
	if !s.Open() {
		pol := t.pol
		v := s.hot.Load()
		if v == nil || !v.Answers(pol, caller, action) {
			if pol == nil { // nothing to remember verdicts in: Match runs cold
				err, _ = o.matchDecide(t, s, caller, action)
				return err
			}
			if v = pol.Recall(&s.Item, caller, action); v == nil {
				gen := pol.Generation()
				err, viaPolicy := o.matchDecide(t, s, caller, action)
				s.hot.Store(pol.Remember(&s.Item, caller, action, gen, err, viaPolicy))
				return err
			}
			s.hot.Store(v)
		}
		err = v.Err
	}
	t.audit(o.id, caller, action, s.Name, err == nil)
	return err
}

// audit records a decision on item of target: a denial in the Auditor, an
// allow in the link. Disarmed, an allow costs an inlined branch.
func (t *cacheTables) audit(target naming.ID, caller security.Principal, action security.Action, item string, allowed bool) {
	sink := t.aud
	if allowed {
		sink = t.link
	}
	if sink != nil {
		sink.Record(target, caller, action, item, allowed)
	}
}

// fastLookup returns the current table and its snapshot of method name,
// or a nil snapshot on any miss or staleness; the caller then takes the
// slow path, which refills the table.
func (o *Object) fastLookup(name string) (*cacheTables, *methodSnap) {
	t := o.cache.tables.Load()
	if t == nil || t.gen != o.structGen.Load() {
		return nil, nil
	}
	s := t.hot.Load()
	if s == nil || s.Name != name || !s.fresh() {
		if s = t.method(name); s == nil || !s.fresh() {
			return nil, nil
		}
		t.hot.Store(s)
	}
	return t, s
}
