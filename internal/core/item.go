package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/security"
	"repro/internal/value"
)

// Items carry their own generation counter so the dispatch cache can
// invalidate per item instead of per object: editing item A's ACL, body or
// visibility bumps only A's counter, and cached entries for item B stay
// warm. The counter is a pointer so the struct copies taken for atomic
// rollback (copyDataItem/copyMethod) share it — a counter, once attached to
// a name, only ever moves forward.
//
// stamp moves counter g (a new one when g is nil) past every generation
// the object has handed out, and returns it, so (name, generation) names
// one item state: the item's handle (handleOf). Callers hold o.mu, or own
// an object under construction.
func (o *Object) stamp(g *atomic.Uint64) *atomic.Uint64 {
	if g == nil {
		g = new(atomic.Uint64)
	}
	o.clock++
	g.Store(o.clock)
	return g
}

// DataItem is a named, access-controlled datum of an object. Per the model,
// controlled access serves "both for visibility purposes … as well as for
// ensuring legitimacy of getting and setting", so every item carries an ACL
// and a visibility flag (encapsulation).
type DataItem struct {
	name string
	val  value.Value
	// compute, when non-nil, makes this a computed item (Builder.ComputedData):
	// every read calls it, val is unused and nothing can store into the item.
	compute func() value.Value
	dynKind value.Kind // KindNull means unconstrained (weak typing default)
	acl     security.ACL
	visible bool
	fixed   bool
	gen     *atomic.Uint64 // bumped (under the object lock) on any edit
}

// Name returns the item name.
func (d *DataItem) Name() string { return d.name }

// Value returns the current value; a computed item evaluates its function.
func (d *DataItem) Value() value.Value {
	if d.compute != nil {
		return d.compute()
	}
	return d.val
}

// Visible reports whether the item is listed to other objects.
func (d *DataItem) Visible() bool { return d.visible }

// Fixed reports whether the item lives in the fixed section.
func (d *DataItem) Fixed() bool { return d.fixed }

// ACL returns the item's access control list.
func (d *DataItem) ACL() security.ACL { return d.acl }

// DynKind returns the dynamic type constraint (KindNull = unconstrained).
func (d *DataItem) DynKind() value.Kind { return d.dynKind }

// setValue stores v, applying the dynamic-type coercion if constrained. A
// computed item has no storage and refuses with ErrFixed.
func (d *DataItem) setValue(v value.Value) error {
	if d.compute != nil {
		return fmt.Errorf("%w: data item %q is computed", ErrFixed, d.name)
	}
	if d.dynKind != value.KindNull {
		c, err := value.Coerce(v, d.dynKind)
		if err != nil {
			return fmt.Errorf("data item %q: %w", d.name, err)
		}
		v = c
	}
	d.val = v
	return nil
}

// describe renders the item description returned by the getDataItem
// meta-method: a map of the item's properties (not its value — values are
// read with ordinary get).
func (d *DataItem) describe(handle string) value.Value {
	return value.NewMap(map[string]value.Value{
		"name":    value.NewString(d.name),
		"kind":    value.NewString(d.val.Kind().String()),
		"dynKind": value.NewString(d.dynKind.String()),
		"visible": value.NewBool(d.visible),
		"fixed":   value.NewBool(d.fixed),
		"acl":     value.NewInt(int64(d.acl.Len())),
		"handle":  value.NewString(handle),
	})
}

// Method is a named, access-controlled behavior of an object: a body
// optionally wrapped by pre- and post-procedures (§3.1). Pre/post return a
// boolean: a false pre prevents the body from running; a false post raises
// an exception.
type Method struct {
	name    string
	body    Body
	pre     Body // may be nil
	post    Body // may be nil
	acl     security.ACL
	visible bool
	fixed   bool
	gen     *atomic.Uint64 // bumped (under the object lock) on any edit
}

// Name returns the method name.
func (m *Method) Name() string { return m.name }

// Body returns the main body.
func (m *Method) Body() Body { return m.body }

// Pre returns the pre-procedure (nil if none).
func (m *Method) Pre() Body { return m.pre }

// Post returns the post-procedure (nil if none).
func (m *Method) Post() Body { return m.post }

// Visible reports whether the method is listed to other objects.
func (m *Method) Visible() bool { return m.visible }

// Fixed reports whether the method lives in the fixed section.
func (m *Method) Fixed() bool { return m.fixed }

// ACL returns the method's access control list.
func (m *Method) ACL() security.ACL { return m.acl }

func bodyKindName(b Body) string {
	if b == nil {
		return "none"
	}
	return b.Descriptor().Kind.String()
}

// describe renders the method description returned by getMethod.
func (m *Method) describe(handle string) value.Value {
	return value.NewMap(map[string]value.Value{
		"name":    value.NewString(m.name),
		"body":    value.NewString(bodyKindName(m.body)),
		"pre":     value.NewString(bodyKindName(m.pre)),
		"post":    value.NewString(bodyKindName(m.post)),
		"visible": value.NewBool(m.visible),
		"fixed":   value.NewBool(m.fixed),
		"acl":     value.NewInt(int64(m.acl.Len())),
		"handle":  value.NewString(handle),
	})
}

// ItemOption configures a data item or method at construction time.
type ItemOption func(*itemConfig)

type itemConfig struct {
	acl     security.ACL
	visible bool
	dynKind value.Kind
	pre     Body
	post    Body
}

func newItemConfig() itemConfig {
	return itemConfig{visible: true}
}

// WithACL attaches an access control list to the item.
func WithACL(acl security.ACL) ItemOption {
	return func(c *itemConfig) { c.acl = acl }
}

// Hidden makes the item invisible to other objects (encapsulation); it is
// also unmatched by wildcard listing and denied by Match unless the caller
// is the object itself.
func Hidden() ItemOption {
	return func(c *itemConfig) { c.visible = false }
}

// WithDynKind constrains the data item to a dynamic kind; stores coerce.
func WithDynKind(k value.Kind) ItemOption {
	return func(c *itemConfig) { c.dynKind = k }
}

// WithPre attaches a pre-procedure to a method.
func WithPre(b Body) ItemOption {
	return func(c *itemConfig) { c.pre = b }
}

// WithPost attaches a post-procedure to a method.
func WithPost(b Body) ItemOption {
	return func(c *itemConfig) { c.post = b }
}
