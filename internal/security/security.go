// Package security implements MROM's security substrate. The paper's
// position (§3.1) is that security is coupled with encapsulation: every
// data item and method carries an access control list (ACL) "that specifies
// which other objects can access it", with single-object granularity rather
// than class-level visibility categories, and checks are applied "on one
// action only — method invocation" (plus getting and setting data items,
// which the paper folds into the same legitimacy check).
//
// The model here:
//
//   - A Principal is the identity of a requester: an object ID plus the
//     trust domain it operates in.
//   - An ACL is an ordered list of allow/deny entries; the first matching
//     entry decides. An empty ACL delegates to the site Policy.
//   - A Policy assigns trust levels to domains and a default decision per
//     trust level, so hosts can say "local objects may, untrusted domains
//     may not" without enumerating objects.
//   - An Auditor records every denial for inspection (mutual security),
//     and an allow only where the object's audit link is armed.
package security

import (
	"cmp"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/naming"
)

// ErrDenied reports a failed security match. Callers detect it with
// errors.Is; the message names the action and item for diagnostics.
var ErrDenied = errors.New("access denied")

// Action is the operation being checked.
type Action uint8

// Actions subject to checks. ActionAny is usable only in ACL entries,
// where it matches every action.
const (
	ActionAny Action = iota
	ActionInvoke
	ActionGet
	ActionSet
	ActionMeta // reflective manipulation: add/delete/setMethod etc.
)

var actionNames = [...]string{"any", "invoke", "get", "set", "meta"}

// String returns the action name.
func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// TrustLevel grades how much a domain is trusted by the local site.
type TrustLevel uint8

// Trust levels, lowest first.
const (
	Untrusted TrustLevel = iota
	Limited
	Trusted
	Local
)

var trustNames = [...]string{"untrusted", "limited", "trusted", "local"}

// String returns the trust level name.
func (t TrustLevel) String() string {
	if int(t) < len(trustNames) {
		return trustNames[t]
	}
	return fmt.Sprintf("trust(%d)", uint8(t))
}

// Principal identifies a requester.
type Principal struct {
	Object naming.ID
	Domain string
}

// String renders "domain/objectid" for diagnostics.
func (p Principal) String() string {
	return p.Domain + "/" + p.Object.String()
}

// Effect is an ACL entry outcome.
type Effect uint8

// Effects.
const (
	Deny Effect = iota
	Allow
)

// String returns "allow" or "deny".
func (e Effect) String() string {
	if e == Allow {
		return "allow"
	}
	return "deny"
}

// Entry is one ACL rule. Zero-valued match fields are wildcards:
// a Nil Object matches any object, an empty Domain matches any domain.
// Domain supports a trailing-* glob ("technion.*"). Action matches the
// checked action or ActionAny.
type Entry struct {
	Effect Effect
	Object naming.ID
	Domain string
	Action Action
}

// Matches reports whether the entry applies to (p, action).
func (e Entry) Matches(p Principal, action Action) bool {
	if e.Action != ActionAny && e.Action != action {
		return false
	}
	if !e.Object.IsNil() && e.Object != p.Object {
		return false
	}
	if e.Domain != "" && !domainMatch(e.Domain, p.Domain) {
		return false
	}
	return true
}

func domainMatch(pattern, domain string) bool {
	if pattern == "*" {
		return true
	}
	if strings.HasSuffix(pattern, ".*") {
		prefix := strings.TrimSuffix(pattern, "*")
		return strings.HasPrefix(domain, prefix) || domain == strings.TrimSuffix(prefix, ".")
	}
	return pattern == domain
}

// ACL is an ordered access-control list attached to an item. The zero ACL
// is empty and delegates every decision to the policy. An ACL is immutable:
// NewACL, Append and Prepend each build a new rule list, so the list's
// array names it (see identity) and an edit yields a new name.
type ACL struct {
	entries []Entry
}

// identity names the rule list: the address of its array, nil for every
// empty ACL. Every ACL owns its whole array — no constructor shares or
// reslices one — so two ACLs with one identity hold the same rules.
func (a ACL) identity() *Entry {
	if len(a.entries) == 0 {
		return nil
	}
	return &a.entries[0]
}

// NewACL builds an ACL from entries, copying the slice.
func NewACL(entries ...Entry) ACL {
	out := make([]Entry, len(entries))
	copy(out, entries)
	return ACL{entries: out}
}

// AllowObject is a convenience constructor: allow one object, any action.
func AllowObject(id naming.ID) Entry {
	return Entry{Effect: Allow, Object: id}
}

// AllowDomain is a convenience constructor: allow a domain pattern, any action.
func AllowDomain(pattern string) Entry {
	return Entry{Effect: Allow, Domain: pattern}
}

// DenyObject is a convenience constructor: deny one object, any action.
func DenyObject(id naming.ID) Entry {
	return Entry{Effect: Deny, Object: id}
}

// DenyAll matches everything; use as a final default entry.
func DenyAll() Entry { return Entry{Effect: Deny} }

// AllowAll matches everything; use as a final default entry.
func AllowAll() Entry { return Entry{Effect: Allow} }

// Empty reports whether the ACL has no entries.
func (a ACL) Empty() bool { return len(a.entries) == 0 }

// Len reports the number of entries.
func (a ACL) Len() int { return len(a.entries) }

// Entries returns a copy of the rule list.
func (a ACL) Entries() []Entry {
	out := make([]Entry, len(a.entries))
	copy(out, a.entries)
	return out
}

// Prepend returns a new ACL with e inserted at the front (highest priority).
func (a ACL) Prepend(e Entry) ACL {
	out := make([]Entry, 0, len(a.entries)+1)
	out = append(out, e)
	out = append(out, a.entries...)
	return ACL{entries: out}
}

// Decide evaluates the ACL for (p, action). The first matching entry wins.
// ok is false when no entry matches, in which case the caller consults the
// policy.
func (a ACL) Decide(p Principal, action Action) (effect Effect, ok bool) {
	for _, e := range a.entries {
		if e.Matches(p, action) {
			return e.Effect, true
		}
	}
	return Deny, false
}

// Policy maps trust domains to levels and levels to default decisions,
// and remembers the verdicts Match reached under it (see Recall). The zero
// value is unusable; construct with NewPolicy. Policies are safe for
// concurrent use.
type Policy struct {
	mu       sync.RWMutex
	gen      atomic.Uint64
	levels   map[string]TrustLevel
	defaults map[TrustLevel]Effect
	fallback TrustLevel

	verdicts  sync.Map     // verdictKey -> *Verdict
	nverdicts atomic.Int64 // keys stored since the table was last emptied
}

// NewPolicy returns a policy with the conventional defaults: Local and
// Trusted domains allowed, Limited and Untrusted denied; unknown domains
// graded Untrusted.
func NewPolicy() *Policy {
	return &Policy{
		levels: make(map[string]TrustLevel),
		defaults: map[TrustLevel]Effect{
			Local:     Allow,
			Trusted:   Allow,
			Limited:   Deny,
			Untrusted: Deny,
		},
		fallback: Untrusted,
	}
}

// GradeDomain assigns a trust level to a domain name.
func (p *Policy) GradeDomain(domain string, level TrustLevel) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.levels[domain] = level
	p.gen.Add(1)
}

// SetDefault sets the decision for a trust level when no ACL entry matched.
func (p *Policy) SetDefault(level TrustLevel, effect Effect) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.defaults[level] = effect
	p.gen.Add(1)
}

// Generation returns the policy's mutation counter. Every GradeDomain or
// SetDefault advances it (inside the policy lock, after the mutation is
// applied), so a decision cache that captured the generation before
// computing a decision can detect that the decision may be stale: if the
// generation still matches at use time, the decision was computed against
// the current policy.
func (p *Policy) Generation() uint64 { return p.gen.Load() }

// Level returns the trust level of a domain (fallback for unknown domains).
func (p *Policy) Level(domain string) TrustLevel {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if l, ok := p.levels[domain]; ok {
		return l
	}
	return p.fallback
}

// DecideDefault returns the policy decision for a principal with no
// matching ACL entry.
func (p *Policy) DecideDefault(pr Principal) Effect {
	level := p.Level(pr.Domain)
	p.mu.RLock()
	defer p.mu.RUnlock()
	if e, ok := p.defaults[level]; ok {
		return e
	}
	return Deny
}

// Check is the full decision procedure used by level-0 invocation's Match
// phase: ACL first (ordered, first match wins), then the policy default.
// It returns nil on allow and an ErrDenied-wrapped error on deny.
func Check(acl ACL, policy *Policy, pr Principal, action Action, item string) error {
	err, _ := Decide(acl, policy, pr, action, item)
	return err
}

// Decide is Check, additionally reporting whether the decision fell through
// to the policy default rather than being settled by an ACL entry. Decision
// caches need the distinction: an ACL-settled entry is invalidated by ACL
// edits alone, while a policy-settled entry is also invalidated when the
// policy's Generation advances.
func Decide(acl ACL, policy *Policy, pr Principal, action Action, item string) (err error, viaPolicy bool) {
	if effect, ok := acl.Decide(pr, action); ok {
		if effect == Allow {
			return nil, false
		}
		return fmt.Errorf("%w: %s of %q by %s (acl)", ErrDenied, action, item, pr), false
	}
	if policy != nil && policy.DecideDefault(pr) == Allow {
		return nil, true
	}
	return fmt.Errorf("%w: %s of %q by %s (policy)", ErrDenied, action, item, pr), true
}

// MaxVerdicts bounds a policy's verdict table, one bound per site: the key
// that would pass it empties the table instead.
const MaxVerdicts = 1 << 18

// Item is what a Match question fixes about the item asked after. The
// answer depends on nothing else but the principal, the action and the
// policy, so it is remembered once per site for every object whose item
// asks it. Visible is keyed, not interpreted. Build an Item with NewItem
// once per item state, and ask with it many times.
type Item struct {
	ACL     ACL
	Name    string
	Visible bool
	hash    uint64 // of Name, so asking hashes no string
	open    bool   // the first rule allows everyone everything
}

// Open reports whether Match allows every question on the item outright,
// leaving nothing worth remembering.
func (it *Item) Open() bool { return it.open }

var itemSeed = maphash.MakeSeed()

// NewItem describes an item for Recall and Remember.
func NewItem(acl ACL, name string, visible bool) Item {
	open := !acl.Empty() && acl.entries[0] == AllowAll()
	return Item{ACL: acl, Name: name, Visible: visible, hash: maphash.String(itemSeed, name), open: open}
}

// verdictKey files a question: its ACL's identity, the principal's object,
// and a hash of the rest; plain memory, so the table hashes it in one pass.
// The verdict filed under it holds the whole question: another question
// that shares the key is a miss, and remembering it replaces the other.
type verdictKey struct {
	rules *Entry
	obj   naming.ID
	rest  uint64
}

func (it *Item) key(pr Principal, action Action) verdictKey {
	return verdictKey{it.ACL.identity(), pr.Object, it.hash*31 + uint64(action)}
}

// Verdict is a remembered Match outcome: Err is exactly what the cold
// Match returned, nil on allow. A verdict the policy default settled holds
// while the policy generation it was reached under is current; one an ACL
// entry settled holds for as long as its ACL exists.
type Verdict struct {
	Err     error
	item    string
	pr      Principal
	gen     uint64
	action  Action
	visible bool
	polDep  bool
}

// Answers reports whether v, a verdict on some question about an item,
// still answers the one pr asks for action under p. Callers keep a verdict
// beside its item, so matching the item is theirs.
func (v *Verdict) Answers(p *Policy, pr Principal, action Action) bool {
	return v.pr == pr && v.action == action && (!v.polDep || v.gen == p.gen.Load())
}

// Recall returns the verdict remembered on pr taking action on it while
// the verdict still holds, or nil.
func (p *Policy) Recall(it *Item, pr Principal, action Action) *Verdict {
	if val, ok := p.verdicts.Load(it.key(pr, action)); ok {
		if v := val.(*Verdict); v.item == it.Name && v.visible == it.Visible && v.Answers(p, pr, action) {
			return v
		}
	}
	return nil
}

// Remember stores err, the outcome of a cold Match of pr taking action on
// it, reached under policy generation gen (read before the Match began)
// and settled by the policy default if viaPolicy, and returns the verdict.
func (p *Policy) Remember(it *Item, pr Principal, action Action, gen uint64, err error, viaPolicy bool) *Verdict {
	v := &Verdict{Err: err, item: it.Name, pr: pr, gen: gen, action: action,
		visible: it.Visible, polDep: viaPolicy}
	if _, replaced := p.verdicts.Swap(it.key(pr, action), v); !replaced && p.nverdicts.Add(1) > MaxVerdicts {
		p.ForgetVerdicts()
	}
	return v
}

// ForgetVerdicts empties the verdict table: the next Recall of every
// question misses. Verdicts already handed out stay true.
func (p *Policy) ForgetVerdicts() {
	p.nverdicts.Store(0)
	p.verdicts.Range(func(k, _ any) bool {
		p.verdicts.Delete(k)
		return true
	})
}

// Verdicts reports how many verdicts the table holds (approximately, while
// Remember runs).
func (p *Policy) Verdicts() int { return int(p.nverdicts.Load()) }

// Event is one audited decision: Principal attempted Action on the item
// named Item of the object Object.
type Event struct {
	At        time.Time
	Object    naming.ID
	Principal Principal
	Action    Action
	Item      string
	Allowed   bool
}

// auditShards is how many rings an Auditor spreads its events over. The
// shard is picked by the target object, so parallel callers of different
// objects seldom share a lock or a cache line.
const auditShards = 16

// Auditor records recent decisions in bounded rings; construct with
// NewAuditor. An object records each foreign denial in its Auditor and an
// allow only in an Auditor armed as its link. Its own access is no decision
// (self-containment) and is never recorded, cold or served from a cache.
type Auditor struct {
	epoch    time.Time
	capacity int
	shards   [auditShards]auditShard
}

// auditShard holds the newest capacity events of its targets, stamped under
// its lock, so ring order is stamp order. The ring is allocated on the
// first record. The padding keeps each shard's lock off the cache line of
// its neighbour and of the auditor's read-only fields.
type auditShard struct {
	_    [64]byte
	mu   sync.Mutex
	ring []stampedEvent
	next int // oldest slot once the ring is full
}

// stampedEvent is a retained Event, its At kept as the offset from the
// auditor's epoch: one monotonic clock read per record, 80 bytes a slot.
type stampedEvent struct {
	since   time.Duration
	object  naming.ID
	pr      Principal
	item    string
	action  Action
	allowed bool
}

// NewAuditor returns an auditor retaining the last capacity events.
func NewAuditor(capacity int) *Auditor {
	if capacity <= 0 {
		capacity = 128
	}
	return &Auditor{epoch: time.Now(), capacity: capacity}
}

// Record appends a decision on an item of the target object.
func (a *Auditor) Record(target naming.ID, pr Principal, action Action, item string, allowed bool) {
	s := &a.shards[target[15]%auditShards] // a random byte of the id
	s.mu.Lock()
	defer s.mu.Unlock()
	e := stampedEvent{time.Since(a.epoch), target, pr, item, action, allowed}
	if s.ring == nil {
		s.ring = make([]stampedEvent, 0, a.capacity)
	}
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, e)
		return
	}
	s.ring[s.next] = e
	s.next = (s.next + 1) % len(s.ring)
}

// Events returns the newest capacity events across all shards, oldest
// first. Events with equal stamps keep shard order.
func (a *Auditor) Events() []Event {
	var all []stampedEvent
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		all = append(append(all, s.ring[s.next:]...), s.ring[:s.next]...)
		s.mu.Unlock()
	}
	slices.SortStableFunc(all, func(x, y stampedEvent) int { return cmp.Compare(x.since, y.since) })
	all = all[max(0, len(all)-a.capacity):]
	out := make([]Event, len(all))
	for i, e := range all {
		out[i] = Event{a.epoch.Add(e.since), e.object, e.pr, e.action, e.item, e.allowed}
	}
	return out
}

// Denials returns only the denied events, oldest first.
func (a *Auditor) Denials() []Event {
	all := a.Events()
	out := all[:0:0]
	for _, e := range all {
		if !e.Allowed {
			out = append(out, e)
		}
	}
	return out
}
