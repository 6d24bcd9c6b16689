package core

import (
	"fmt"

	"repro/internal/mscript"
	"repro/internal/naming"
	"repro/internal/security"
	"repro/internal/value"
)

// ACLEntryImage is the serializable form of one ACL entry.
type ACLEntryImage struct {
	Allow  bool
	Object naming.ID // Nil = any
	Domain string    // "" = any
	Action security.Action
}

// ACLImage converts an ACL to its serializable form.
func ACLImage(acl security.ACL) []ACLEntryImage {
	entries := acl.Entries()
	out := make([]ACLEntryImage, len(entries))
	for i, e := range entries {
		out[i] = ACLEntryImage{
			Allow:  e.Effect == security.Allow,
			Object: e.Object,
			Domain: e.Domain,
			Action: e.Action,
		}
	}
	return out
}

// ACLFromImage rebuilds an ACL.
func ACLFromImage(entries []ACLEntryImage) security.ACL {
	es := make([]security.Entry, len(entries))
	for i, e := range entries {
		eff := security.Deny
		if e.Allow {
			eff = security.Allow
		}
		es[i] = security.Entry{Effect: eff, Object: e.Object, Domain: e.Domain, Action: e.Action}
	}
	return security.NewACL(es...)
}

// DataItemImage is the serializable form of a data item.
type DataItemImage struct {
	Name    string
	Value   value.Value
	DynKind value.Kind
	Visible bool
	ACL     []ACLEntryImage
}

// MethodImage is the serializable form of a method. Native bodies carry
// only their registry name; script bodies carry source.
type MethodImage struct {
	Name    string
	Body    BodyDescriptor
	Pre     BodyDescriptor // zero Kind = none
	Post    BodyDescriptor // zero Kind = none
	Visible bool
	ACL     []ACLEntryImage
}

// Image is a complete, self-describing snapshot of an object — the unit in
// which mobile objects travel ("the Ambassador arrives (as data)") and
// persist ("write itself to disk"). Meta-methods are not serialized: they
// are structural and reattached on materialization.
type Image struct {
	ID           naming.ID
	Class        string
	Domain       string
	MetaHidden   bool
	MetaACL      []ACLEntryImage
	FixedData    []DataItemImage
	ExtData      []DataItemImage
	FixedMethods []MethodImage
	ExtMethods   []MethodImage
	InvokeLevels []MethodImage // the meta-invoke chain, level 1 first
}

func dataImage(d *DataItem) DataItemImage {
	return DataItemImage{
		Name:    d.name,
		Value:   d.val.Clone(),
		DynKind: d.dynKind,
		Visible: d.visible,
		ACL:     ACLImage(d.acl),
	}
}

func methodImage(m *Method) (MethodImage, error) {
	img := MethodImage{
		Name:    m.name,
		Body:    m.body.Descriptor(),
		Visible: m.visible,
		ACL:     ACLImage(m.acl),
	}
	if img.Body.Kind == BodyNative && img.Body.Name == "" {
		return img, fmt.Errorf("%w: method %q has an anonymous native body", ErrUnknownBehavior, m.name)
	}
	if m.pre != nil {
		img.Pre = m.pre.Descriptor()
	}
	if m.post != nil {
		img.Post = m.post.Descriptor()
	}
	return img, nil
}

// Snapshot captures the object's serializable state. It fails if any
// method has an unregistered (anonymous) native body, since such a body
// could not be rebuilt elsewhere.
func (o *Object) Snapshot() (Image, error) {
	img, computed, err := o.snapshotLocked()
	if err != nil {
		return Image{}, err
	}
	// Computed items flatten to the value they produce now, evaluated
	// outside the object lock like any other read of them.
	for _, c := range computed {
		img.FixedData[c.index].Value = c.fn().Clone()
	}
	return img, nil
}

// computedSlot is a computed item met by snapshotLocked: its position in
// Image.FixedData and the function whose value belongs there.
type computedSlot struct {
	index int
	fn    func() value.Value
}

// snapshotLocked captures everything Snapshot can read under the object
// lock; the values of computed items are left for the caller to fill in.
func (o *Object) snapshotLocked() (img Image, computed []computedSlot, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()

	img = Image{
		ID:         o.id,
		Class:      o.class,
		Domain:     o.domain,
		MetaHidden: o.metaHidden,
		MetaACL:    ACLImage(o.metaACL),
	}
	o.fixedData.each(func(_ string, d *DataItem) {
		if d.compute != nil {
			computed = append(computed, computedSlot{len(img.FixedData), d.compute})
		}
		img.FixedData = append(img.FixedData, dataImage(d))
	})
	o.extData.each(func(_ string, d *DataItem) {
		img.ExtData = append(img.ExtData, dataImage(d))
	})
	collectMethods := func(c *container[*Method], dst *[]MethodImage) {
		c.each(func(_ string, m *Method) {
			if err != nil {
				return
			}
			mi, e := methodImage(m)
			if e != nil {
				err = e
				return
			}
			*dst = append(*dst, mi)
		})
	}
	collectMethods(&o.fixedMeth, &img.FixedMethods)
	collectMethods(&o.extMeth, &img.ExtMethods)
	for _, lvl := range o.invokeLevels {
		mi, e := methodImage(lvl)
		if e != nil {
			return Image{}, nil, e
		}
		img.InvokeLevels = append(img.InvokeLevels, mi)
	}
	return img, computed, err
}

// MaterializeOption configures FromImage.
type MaterializeOption func(*materializeConfig)

type materializeConfig struct {
	policy   *security.Policy
	auditor  *security.Auditor
	resolver Resolver
	output   func(string)
	budget   *mscript.Budget
	domain   string
	freshID  *naming.Generator
}

// HostPolicy applies the receiving host's policy to the materialized object.
func HostPolicy(p *security.Policy) MaterializeOption {
	return func(c *materializeConfig) { c.policy = p }
}

// HostAuditor attaches the receiving host's auditor.
func HostAuditor(a *security.Auditor) MaterializeOption {
	return func(c *materializeConfig) { c.auditor = a }
}

// HostResolver wires the receiving site's resolver.
func HostResolver(r Resolver) MaterializeOption {
	return func(c *materializeConfig) { c.resolver = r }
}

// HostOutput directs the object's script output at the receiving site.
func HostOutput(sink func(string)) MaterializeOption {
	return func(c *materializeConfig) { c.output = sink }
}

// HostBudget bounds the arriving object's script bodies — the host-side
// resource guard on untrusted mobile code.
func HostBudget(b mscript.Budget) MaterializeOption {
	return func(c *materializeConfig) { c.budget = &b }
}

// RehomeDomain re-labels the object's trust domain on arrival.
func RehomeDomain(domain string) MaterializeOption {
	return func(c *materializeConfig) { c.domain = domain }
}

// FreshIdentity mints a new ID for the materialized object (used when
// cloning rather than migrating: a migrated object keeps its identity).
func FreshIdentity(gen *naming.Generator) MaterializeOption {
	return func(c *materializeConfig) { c.freshID = gen }
}

// rebuildMethod materializes a method image on o, under construction.
func (o *Object) rebuildMethod(mi MethodImage, fixed bool) (*Method, error) {
	body, err := RebuildBody(mi.Body, o.registry)
	if err != nil {
		return nil, fmt.Errorf("method %q: %w", mi.Name, err)
	}
	m := &Method{
		name:    mi.Name,
		body:    body,
		visible: mi.Visible,
		fixed:   fixed,
		acl:     ACLFromImage(mi.ACL),
		gen:     o.stamp(nil),
	}
	if mi.Pre.Kind != 0 {
		if m.pre, err = RebuildBody(mi.Pre, o.registry); err != nil {
			return nil, fmt.Errorf("method %q pre: %w", mi.Name, err)
		}
	}
	if mi.Post.Kind != 0 {
		if m.post, err = RebuildBody(mi.Post, o.registry); err != nil {
			return nil, fmt.Errorf("method %q post: %w", mi.Name, err)
		}
	}
	return m, nil
}

// FromImage materializes an object from its image — the receiving half of
// migration and the bootstrap half of persistence. Native bodies resolve
// through reg; script bodies re-parse from source.
func FromImage(img Image, reg *BehaviorRegistry, opts ...MaterializeOption) (*Object, error) {
	cfg := materializeConfig{domain: img.Domain}
	for _, opt := range opts {
		opt(&cfg)
	}

	o := &Object{
		id:         img.ID,
		class:      img.Class,
		domain:     cfg.domain,
		budget:     mscript.DefaultBudget,
		policy:     cfg.policy,
		auditor:    cfg.auditor,
		resolver:   cfg.resolver,
		output:     cfg.output,
		registry:   reg,
		metaHidden: img.MetaHidden,
		metaACL:    ACLFromImage(img.MetaACL),
	}
	o.meta = metaTable(o.metaACL, o.metaHidden)
	if cfg.freshID != nil {
		o.id = cfg.freshID.New()
	}
	if cfg.budget != nil {
		o.budget = *cfg.budget
	}

	addData := func(c *container[*DataItem], fixed bool, items []DataItemImage) error {
		for _, di := range items {
			if err := o.freeDataName(di.Name); err != nil {
				return fmt.Errorf("image: %w", err)
			}
			d := &DataItem{
				name:    di.Name,
				dynKind: di.DynKind,
				visible: di.Visible,
				fixed:   fixed,
				acl:     ACLFromImage(di.ACL),
				gen:     o.stamp(nil),
			}
			if err := d.setValue(di.Value.Clone()); err != nil {
				return err
			}
			if err := c.add(di.Name, d); err != nil {
				return err
			}
		}
		return nil
	}
	if err := addData(&o.fixedData, true, img.FixedData); err != nil {
		return nil, err
	}
	if err := addData(&o.extData, false, img.ExtData); err != nil {
		return nil, err
	}

	addMethods := func(c *container[*Method], fixed bool, items []MethodImage) error {
		for _, mi := range items {
			if err := o.freeMethodName(mi.Name); err != nil {
				return fmt.Errorf("image: %w", err)
			}
			m, err := o.rebuildMethod(mi, fixed)
			if err != nil {
				return err
			}
			if err := c.add(mi.Name, m); err != nil {
				return err
			}
		}
		return nil
	}
	if err := addMethods(&o.fixedMeth, true, img.FixedMethods); err != nil {
		return nil, err
	}
	if err := addMethods(&o.extMeth, false, img.ExtMethods); err != nil {
		return nil, err
	}
	for _, mi := range img.InvokeLevels {
		m, err := o.rebuildMethod(mi, false)
		if err != nil {
			return nil, fmt.Errorf("invoke level: %w", err)
		}
		o.invokeLevels = append(o.invokeLevels, m)
	}
	o.levelCount.Store(int32(len(o.invokeLevels)))
	o.sealed = true
	return o, nil
}

// Clone materializes a dynamic specialization of the object: a full copy
// with a fresh identity whose extensible section can then diverge — the
// prototype-style specialization of §4 ("an effect similar to that of
// inheritance in prototype-based languages").
func (o *Object) Clone(gen *naming.Generator, opts ...MaterializeOption) (*Object, error) {
	img, err := o.Snapshot()
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	reg := o.registry
	o.mu.Unlock()
	opts = append([]MaterializeOption{FreshIdentity(gen)}, opts...)
	return FromImage(img, reg, opts...)
}
