package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mscript"
	"repro/internal/naming"
	"repro/internal/security"
	"repro/internal/value"
)

// Resolver lets method bodies reach other objects by name (the ctx.lookup
// facility of script bodies). The HADAS layer supplies one per site.
type Resolver interface {
	// ResolveObject maps a name (human name or ID string) to a live object.
	ResolveObject(name string) (*Object, error)
	// SiteName identifies the hosting site.
	SiteName() string
}

// Object is an MROM object: four item containers (fixed/extensible ×
// data/methods), bundled meta-methods, and a meta-invoke chain. All
// operations are safe for concurrent use; user bodies run outside the
// structural lock so methods may re-enter their object.
type Object struct {
	mu sync.Mutex

	id     naming.ID
	class  string
	domain string

	fixedData container[*DataItem]
	extData   container[*DataItem]
	fixedMeth container[*Method]
	extMeth   container[*Method]
	meta      *container[*Method] // the meta-methods, usually sharedMeta (see metaTable)

	// invokeLevels is the meta-mutable invocation chain: element 0 is
	// level 1, element k-1 is level k. Empty means pure level-0 dispatch.
	invokeLevels []*Method

	sealed bool

	policy    *security.Policy
	auditor   *security.Auditor // denials
	auditLink *security.Auditor // allows, while armed (see ArmAudit)
	registry  *BehaviorRegistry
	resolver  Resolver
	output    func(string)
	budget    mscript.Budget

	metaACL    security.ACL
	metaHidden bool

	// admission, when non-nil, serializes external invocations;
	// admitTimeout bounds waits for the slot (see serialize.go).
	admission    chan struct{}
	admitTimeout time.Duration

	clock uint64 // the last item generation handed out (see stamp)

	// structGen versions the object's dispatch shape — the meta-invoke
	// chain, policy and auditor — and cache holds the table built for it
	// (see dispatch.go); per-item edits bump the item's own counter
	// instead. Both are bumped under mu. levelCount mirrors
	// len(invokeLevels) so the invocation entry point reads the chain
	// depth without taking mu.
	structGen  atomic.Uint64
	levelCount atomic.Int32
	cache      dispatchCache
}

// ID returns the object's decentralized identity.
func (o *Object) ID() naming.ID { return o.id }

// Class returns the class name the object was constructed from.
func (o *Object) Class() string { return o.class }

// Domain returns the trust domain the object belongs to.
func (o *Object) Domain() string { return o.domain }

// Principal returns the principal the object acts as.
func (o *Object) Principal() security.Principal {
	return security.Principal{Object: o.id, Domain: o.domain}
}

// SetResolver wires the object to a site resolver (done by the host on
// installation; part of the "installation context" of §5).
func (o *Object) SetResolver(r Resolver) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.resolver = r
}

// Resolver returns the site resolver the object is wired to (nil when
// unhosted). Native behaviors use it to reach their hosting site's
// services.
func (o *Object) Resolver() Resolver {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.resolver
}

// SetPolicy attaches the host's security policy (Match-phase default).
func (o *Object) SetPolicy(p *security.Policy) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.policy = p
	o.bumpStruct()
}

// SetAuditor attaches the sink every denied foreign decision is recorded in.
func (o *Object) SetAuditor(a *security.Auditor) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.auditor = a
	o.bumpStruct()
}

// ArmAudit arms the allow link: allowed foreign decisions are recorded in
// a, never in the object's Auditor, until ArmAudit(nil) disarms it.
func (o *Object) ArmAudit(a *security.Auditor) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.auditLink = a
	o.bumpStruct()
}

// SetOutput directs script print() and ctx.log output.
func (o *Object) SetOutput(sink func(string)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.output = sink
}

// Registry returns the behavior registry the object reconstructs native
// bodies from.
func (o *Object) Registry() *BehaviorRegistry {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.registry
}

// freeDataName is the rule every declaration of a data item follows —
// Builder, FromImage, addDataItem and rename alike: a reserved name, or
// one a data item of either section already has, is refused with
// ErrExists. Callers hold o.mu (or own an unpublished o).
func (o *Object) freeDataName(name string) error {
	if IsReservedName(name) {
		return fmt.Errorf("%w: %q is reserved", ErrExists, name)
	}
	if _, dup := o.lookupData(name); dup {
		return fmt.Errorf("%w: data item %q", ErrExists, name)
	}
	return nil
}

// freeMethodName is freeDataName's rule for methods.
func (o *Object) freeMethodName(name string) error {
	if IsReservedName(name) {
		return fmt.Errorf("%w: %q is reserved", ErrExists, name)
	}
	if _, dup := o.lookupMethod(name); dup {
		return fmt.Errorf("%w: method %q", ErrExists, name)
	}
	return nil
}

// lookupMethod finds a method by name: fixed section, meta-methods (their
// names are reserved), then extensible, which cannot shadow the guaranteed
// interface. Callers hold o.mu.
func (o *Object) lookupMethod(name string) (*Method, bool) {
	if m, ok := o.fixedMeth.get(name); ok {
		return m, true
	}
	if m, ok := o.meta.get(name); ok {
		return m, true
	}
	if m, ok := o.extMeth.get(name); ok {
		return m, true
	}
	return nil, false
}

// lookupData finds a data item by name, fixed section first. Callers hold o.mu.
func (o *Object) lookupData(name string) (*DataItem, bool) {
	if d, ok := o.fixedData.get(name); ok {
		return d, true
	}
	if d, ok := o.extData.get(name); ok {
		return d, true
	}
	return nil, false
}

// matchData is the Lookup and Match of `get` and `set`: the item's
// published snapshot when there is a fresh one, else one taken now.
func (o *Object) matchData(caller security.Principal, action security.Action, name string) error {
	if caller.Object == o.id {
		return nil // self-containment; a missing item surfaces on the read
	}
	t := o.cache.tables.Load()
	var s *itemSnap
	if t != nil && t.gen == o.structGen.Load() {
		s = t.data(name)
	}
	if s == nil || !s.fresh() {
		o.mu.Lock()
		d, ok := o.lookupData(name)
		if !ok {
			o.mu.Unlock()
			return fmt.Errorf("%w: data item %q", ErrNotFound, name)
		}
		t = o.tableLocked()
		s = t.dataSnapLocked(d)
		o.mu.Unlock()
	}
	return o.decide(t, s, caller, action)
}

// getData implements the ordinary `get` operation with its Match check.
func (o *Object) getData(caller security.Principal, name string) (value.Value, error) {
	if err := o.matchData(caller, security.ActionGet, name); err != nil {
		return value.Null, err
	}
	// Re-read under lock; the item may have changed since it was matched
	// (or vanished, which surfaces as ErrNotFound).
	return o.readData(name)
}

// readData is the value read of an already-matched `get`. A computed
// item's function runs after the object lock is released, so it may take
// other locks — or this object's, through the public API.
func (o *Object) readData(name string) (value.Value, error) {
	o.mu.Lock()
	d, ok := o.lookupData(name)
	if !ok {
		o.mu.Unlock()
		return value.Null, fmt.Errorf("%w: data item %q", ErrNotFound, name)
	}
	v, fn := d.val, d.compute
	o.mu.Unlock()
	if fn != nil {
		return fn(), nil
	}
	return v, nil
}

// setData implements the ordinary `set` operation with its Match check.
func (o *Object) setData(caller security.Principal, name string, v value.Value) error {
	if err := o.matchData(caller, security.ActionSet, name); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	d, ok := o.lookupData(name)
	if !ok {
		return fmt.Errorf("%w: data item %q", ErrNotFound, name)
	}
	return d.setValue(v)
}

// matchDecide is the cold Match phase shared by invocation and data
// access under t's policy, for a caller other than the object itself
// (decide answers that one): hidden items appear nonexistent; otherwise
// the item ACL decides, falling back to the host policy. polDep reports
// whether the decision came from the policy default — its remembered
// verdict is validated against the policy generation too.
func (o *Object) matchDecide(t *cacheTables, s *itemSnap, caller security.Principal,
	action security.Action) (decision error, polDep bool) {
	if !s.Visible {
		// Encapsulation: a hidden item appears nonexistent — except to a
		// principal its ACL explicitly grants (an Ambassador's origin keeps
		// access to the hidden meta-methods; the host does not). The policy
		// default never opens a hidden item.
		if effect, matched := s.ACL.Decide(caller, action); matched && effect == security.Allow {
			t.audit(o.id, caller, action, s.Name, true)
			return nil, false
		}
		t.audit(o.id, caller, action, s.Name, false)
		return fmt.Errorf("%w: %s %q", ErrNotFound, actionNoun(action), s.Name), false
	}
	err, viaPolicy := security.Decide(s.ACL, t.pol, caller, action, s.Name)
	t.audit(o.id, caller, action, s.Name, err == nil)
	return err, viaPolicy
}

func actionNoun(a security.Action) string {
	switch a {
	case security.ActionGet, security.ActionSet:
		return "data item"
	default:
		return "method"
	}
}

// DataItemNames lists data item names visible to caller, fixed section
// first, each section in insertion order.
func (o *Object) DataItemNames(caller security.Principal) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	self := caller.Object == o.id
	var out []string
	collect := func(c *container[*DataItem]) {
		c.each(func(name string, d *DataItem) {
			if self || d.visible {
				out = append(out, name)
			}
		})
	}
	collect(&o.fixedData)
	collect(&o.extData)
	return out
}

// MethodNames lists method names visible to caller: the fixed section, the
// meta-methods in metaNames order, then the extensible section.
func (o *Object) MethodNames(caller security.Principal) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	self := caller.Object == o.id
	var out []string
	collect := func(c *container[*Method]) {
		c.each(func(name string, m *Method) {
			if self || m.visible {
				out = append(out, name)
			}
		})
	}
	collect(&o.fixedMeth)
	collect(o.meta)
	collect(&o.extMeth)
	return out
}

// ExtMethodNames lists the extensible section's method names, hidden ones
// included, in install order.
func (o *Object) ExtMethodNames() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.extMeth.entries))
	o.extMeth.each(func(name string, _ *Method) { out = append(out, name) })
	return out
}

// HasMethod reports whether MethodNames(caller) lists name, without
// listing: the object itself sees every method, another caller only the
// visible ones.
func (o *Object) HasMethod(caller security.Principal, name string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	self := caller.Object == o.id
	for _, c := range [...]*container[*Method]{&o.fixedMeth, o.meta, &o.extMeth} {
		if m, ok := c.get(name); ok && (self || m.visible) {
			return true
		}
	}
	return false
}

// Describe renders the object's self-representation as seen by caller:
// identity, class, domain, item and method listings, and the number of
// installed meta-invoke levels. This is the paper's basic reflective
// property — a host "must be able to interrogate the newcomer object".
func (o *Object) Describe(caller security.Principal) value.Value {
	dataNames := o.DataItemNames(caller)
	methNames := o.MethodNames(caller)
	o.mu.Lock()
	levels := len(o.invokeLevels)
	id, class, domain := o.id, o.class, o.domain
	o.mu.Unlock()

	dl := make([]value.Value, len(dataNames))
	for i, n := range dataNames {
		dl[i] = value.NewString(n)
	}
	ml := make([]value.Value, len(methNames))
	for i, n := range methNames {
		ml[i] = value.NewString(n)
	}
	return value.NewMap(map[string]value.Value{
		"id":           value.NewString(id.String()),
		"class":        value.NewString(class),
		"domain":       value.NewString(domain),
		"dataItems":    value.NewList(dl),
		"methods":      value.NewList(ml),
		"invokeLevels": value.NewInt(int64(levels)),
	})
}

// InvokeLevelCount reports the installed meta-invoke chain depth.
func (o *Object) InvokeLevelCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.invokeLevels)
}

// Builder constructs an Object. Fixed items can only be declared before
// Build; Build seals the fixed containers.
type Builder struct {
	obj  *Object
	errs []error
}

// BuildOption configures object-wide properties.
type BuildOption func(*Object)

// InDomain sets the object's trust domain.
func InDomain(domain string) BuildOption {
	return func(o *Object) { o.domain = domain }
}

// WithPolicy sets the host security policy consulted when an item ACL has
// no matching entry.
func WithPolicy(p *security.Policy) BuildOption {
	return func(o *Object) { o.policy = p }
}

// WithAuditor attaches the sink denied foreign decisions are recorded in.
func WithAuditor(a *security.Auditor) BuildOption {
	return func(o *Object) { o.auditor = a }
}

// WithRegistry sets the behavior registry used to rebuild native bodies.
func WithRegistry(r *BehaviorRegistry) BuildOption {
	return func(o *Object) { o.registry = r }
}

// WithResolver wires the site resolver at construction time.
func WithResolver(r Resolver) BuildOption {
	return func(o *Object) { o.resolver = r }
}

// WithOutput directs script output.
func WithOutput(sink func(string)) BuildOption {
	return func(o *Object) { o.output = sink }
}

// WithBudget bounds script bodies run by this object.
func WithBudget(b mscript.Budget) BuildOption {
	return func(o *Object) { o.budget = b }
}

// NewBuilder starts construction of an object of the named class. The
// generator mints the object's decentralized identity.
func NewBuilder(gen *naming.Generator, class string, opts ...BuildOption) *Builder {
	o := &Object{
		id:     gen.New(),
		class:  class,
		domain: "local",
		budget: mscript.DefaultBudget,
	}
	for _, opt := range opts {
		opt(o)
	}
	o.meta = metaTable(o.metaACL, o.metaHidden)
	return &Builder{obj: o}
}

func (b *Builder) fail(err error) {
	b.errs = append(b.errs, err)
}

func (b *Builder) addData(c *container[*DataItem], fixed bool, name string, v value.Value, compute func() value.Value, opts ...ItemOption) {
	cfg := newItemConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if compute != nil && cfg.dynKind != value.KindNull {
		b.fail(fmt.Errorf("%w: computed data item %q cannot take a dynamic kind", ErrArity, name))
		return
	}
	d := &DataItem{name: name, acl: cfg.acl, visible: cfg.visible, dynKind: cfg.dynKind, fixed: fixed, gen: b.obj.stamp(nil)}
	if err := d.setValue(v); err != nil {
		b.fail(err)
		return
	}
	d.compute = compute
	if err := b.obj.freeDataName(name); err != nil {
		b.fail(err)
	} else if err := c.add(name, d); err != nil {
		b.fail(err)
	}
}

// ComputedData declares a fixed-section data item whose value is produced
// by fn on every read instead of being stored. It cannot be written: set
// and setDataItem refuse with ErrFixed. ACL, visibility and the Match
// phase are those of an ordinary item, and fn is not called for a refused
// caller. fn runs outside the object's lock, so it may take locks of its
// own; Snapshot flattens the item to a plain one holding the value at
// snapshot time, so an image never carries a function.
func (b *Builder) ComputedData(name string, fn func() value.Value, opts ...ItemOption) *Builder {
	if fn == nil {
		b.fail(fmt.Errorf("%w: computed data item %q has no function", ErrArity, name))
		return b
	}
	b.addData(&b.obj.fixedData, true, name, value.Null, fn, opts...)
	return b
}

// FixedData declares a fixed-section data item.
func (b *Builder) FixedData(name string, v value.Value, opts ...ItemOption) *Builder {
	b.addData(&b.obj.fixedData, true, name, v, nil, opts...)
	return b
}

// ExtData declares an extensible-section data item.
func (b *Builder) ExtData(name string, v value.Value, opts ...ItemOption) *Builder {
	b.addData(&b.obj.extData, false, name, v, nil, opts...)
	return b
}

func (b *Builder) addMethod(c *container[*Method], fixed bool, name string, body Body, opts ...ItemOption) {
	cfg := newItemConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if body == nil {
		b.fail(fmt.Errorf("%w: method %q has no body", ErrArity, name))
		return
	}
	m := &Method{name: name, body: body, pre: cfg.pre, post: cfg.post,
		acl: cfg.acl, visible: cfg.visible, fixed: fixed, gen: b.obj.stamp(nil)}
	if err := b.obj.freeMethodName(name); err != nil {
		b.fail(err)
	} else if err := c.add(name, m); err != nil {
		b.fail(err)
	}
}

// FixedMethod declares a fixed-section method.
func (b *Builder) FixedMethod(name string, body Body, opts ...ItemOption) *Builder {
	b.addMethod(&b.obj.fixedMeth, true, name, body, opts...)
	return b
}

// ExtMethod declares an extensible-section method.
func (b *Builder) ExtMethod(name string, body Body, opts ...ItemOption) *Builder {
	b.addMethod(&b.obj.extMeth, false, name, body, opts...)
	return b
}

// FixedScriptMethod declares a fixed method with an MScript body.
func (b *Builder) FixedScriptMethod(name, src string, opts ...ItemOption) *Builder {
	body, err := NewScriptBody(src)
	if err != nil {
		b.fail(fmt.Errorf("method %q: %w", name, err))
		return b
	}
	return b.FixedMethod(name, body, opts...)
}

// ExtScriptMethod declares an extensible method with an MScript body.
func (b *Builder) ExtScriptMethod(name, src string, opts ...ItemOption) *Builder {
	body, err := NewScriptBody(src)
	if err != nil {
		b.fail(fmt.Errorf("method %q: %w", name, err))
		return b
	}
	return b.ExtMethod(name, body, opts...)
}

// Build seals the object: the fixed containers become immutable and the
// object is ready for invocation.
func (b *Builder) Build() (*Object, error) {
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("building object %q: %w", b.obj.class, b.errs[0])
	}
	b.obj.sealed = true
	return b.obj, nil
}

// MustBuild is Build for static construction known to be valid; it panics
// on builder errors (use in tests and examples, not on untrusted input).
func (b *Builder) MustBuild() *Object {
	o, err := b.Build()
	if err != nil {
		panic(err)
	}
	return o
}
