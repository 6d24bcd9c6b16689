package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/naming"
	"repro/internal/security"
	"repro/internal/value"
)

// metaNames are the reflective meta-methods bundled inside every object
// ("each object must contain meta-methods for the manipulation of the
// structure and semantics of itself, and for method invocation").
var metaNames = []string{
	"get", "set",
	"getDataItem", "setDataItem", "addDataItem", "deleteDataItem",
	"getMethod", "setMethod", "addMethod", "deleteMethod",
	"invoke", "atomic", "describe", "listDataItems", "listMethods",
}

var reservedNames = func() map[string]bool {
	m := make(map[string]bool, len(metaNames)+1)
	for _, n := range metaNames {
		m[n] = true
	}
	m["invokeNext"] = true // invocation primitive, not a stored method
	return m
}()

// IsReservedName reports whether name belongs to the meta interface (the
// meta-methods and invokeNext): no extensible method or relay may take it.
func IsReservedName(name string) bool { return reservedNames[name] }

// MetaACL configures the access control list applied to every installed
// meta-method (e.g. an Ambassador granting only its origin).
func MetaACL(acl security.ACL) BuildOption {
	return func(o *Object) { o.metaACL = acl }
}

// MetaHidden makes the meta-methods invisible to other objects — the §5
// encapsulation policy for Ambassadors ("its meta-methods should be
// invisible to the host IOO"). `get`, `set`, `invoke`, `describe` and the
// listings stay visible; only the six mutating meta-methods are hidden.
func MetaHidden() BuildOption {
	return func(o *Object) { o.metaHidden = true }
}

// mutatingMeta are the six structure-changing meta-methods. They are the
// ones gated by MetaACL and hidden by MetaHidden — the §5 Ambassador
// protection ("its meta-methods … should not be invoked by that IOO to
// protect the Ambassador and its origin from malicious intervening").
var mutatingMeta = map[string]bool{
	"setDataItem": true, "addDataItem": true, "deleteDataItem": true,
	"setMethod": true, "addMethod": true, "deleteMethod": true,
}

// sharedMeta is the meta interface of every object without MetaACL or
// MetaHidden. Nothing writes its fixed methods after package init, so any
// object may snapshot them and hand out handles to them.
var sharedMeta = newMetaTable(security.ACL{}, false)

// metaTable returns the shared meta interface, or a table of the object's
// own when its mutating meta-methods are guarded or hidden (an Ambassador).
func metaTable(acl security.ACL, hidden bool) *container[*Method] {
	if acl.Empty() && !hidden {
		return sharedMeta
	}
	return newMetaTable(acl, hidden)
}

// newMetaTable builds the meta interface. They are ordinary fixed methods
// of the object — subject to Match like anything else — realizing the
// model's self-containment. Accessor and introspection meta-methods (get,
// set, invoke, describe, listings, getDataItem, getMethod) have an open
// ACL: for them the deciding check is the *item-level* ACL applied inside
// (the paper's single-object granularity); gating the accessors themselves
// would make per-item ACLs unreachable.
func newMetaTable(metaACL security.ACL, hidden bool) *container[*Method] {
	t := new(container[*Method])
	openACL := security.NewACL(security.AllowAll())
	add := func(name string, fn NativeFunc) {
		m := &Method{
			name:    name,
			body:    &nativeBody{name: "mrom." + name, fn: fn},
			acl:     openACL,
			visible: true,
			fixed:   true,
			gen:     new(atomic.Uint64),
		}
		if mutatingMeta[name] {
			m.acl, m.visible = metaACL, !hidden
		}
		_ = t.add(name, m)
	}
	add("get", metaGet)
	add("set", metaSet)
	add("getDataItem", metaGetDataItem)
	add("setDataItem", metaSetDataItem)
	add("addDataItem", metaAddDataItem)
	add("deleteDataItem", metaDeleteDataItem)
	add("getMethod", metaGetMethod)
	add("setMethod", metaSetMethod)
	add("addMethod", metaAddMethod)
	add("deleteMethod", metaDeleteMethod)
	add("invoke", metaInvoke)
	add("atomic", metaAtomic)
	add("describe", metaDescribe)
	add("listDataItems", metaListDataItems)
	add("listMethods", metaListMethods)
	return t
}

// ---- argument helpers ----

func argAt(args []value.Value, i int) value.Value {
	if i < len(args) {
		return args[i]
	}
	return value.Null
}

func argString(args []value.Value, i int, what string) (string, error) {
	v := argAt(args, i)
	if v.IsNull() {
		return "", fmt.Errorf("%w: missing %s (argument %d)", ErrArity, what, i+1)
	}
	s, err := value.Coerce(v, value.KindString)
	if err != nil {
		return "", fmt.Errorf("%w: %s (argument %d): %v", ErrArity, what, i+1, err)
	}
	return s.String(), nil
}

func argList(args []value.Value, i int) []value.Value {
	v := argAt(args, i)
	if l, ok := v.List(); ok {
		return l
	}
	if v.IsNull() {
		return nil
	}
	return []value.Value{v}
}

func argMap(args []value.Value, i int) map[string]value.Value {
	v := argAt(args, i)
	if m, ok := v.Map(); ok {
		return m
	}
	return nil
}

// ---- body descriptor <-> value ----

// DescriptorToValue renders a body descriptor as a model value, the form
// meta-methods accept and object images carry inside the model.
func DescriptorToValue(d BodyDescriptor) value.Value {
	m := map[string]value.Value{"kind": value.NewString(d.Kind.String())}
	switch d.Kind {
	case BodyNative:
		m["name"] = value.NewString(d.Name)
	case BodyScript:
		m["source"] = value.NewString(d.Source)
	}
	return value.NewMap(m)
}

// ValueToDescriptor parses a body argument: a plain string is MScript
// source; a map carries an explicit kind.
func ValueToDescriptor(v value.Value) (BodyDescriptor, error) {
	if s, ok := v.Str(); ok {
		return BodyDescriptor{Kind: BodyScript, Source: s}, nil
	}
	m, ok := v.Map()
	if !ok {
		return BodyDescriptor{}, fmt.Errorf("%w: body must be script source or descriptor map, got %s", ErrArity, v.Kind())
	}
	kindV := m["kind"]
	switch kindV.String() {
	case "script":
		src, ok := m["source"]
		if !ok {
			return BodyDescriptor{}, fmt.Errorf("%w: script descriptor missing source", ErrArity)
		}
		return BodyDescriptor{Kind: BodyScript, Source: src.String()}, nil
	case "native":
		name, ok := m["name"]
		if !ok {
			return BodyDescriptor{}, fmt.Errorf("%w: native descriptor missing name", ErrArity)
		}
		return BodyDescriptor{Kind: BodyNative, Name: name.String()}, nil
	default:
		return BodyDescriptor{}, fmt.Errorf("%w: unknown body kind %q", ErrArity, kindV.String())
	}
}

func (o *Object) buildBody(v value.Value) (Body, error) {
	d, err := ValueToDescriptor(v)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	reg := o.registry
	o.mu.Unlock()
	return RebuildBody(d, reg)
}

// ---- data meta-methods ----

func metaGet(inv *Invocation, args []value.Value) (value.Value, error) {
	name, err := argString(args, 0, "data item name")
	if err != nil {
		return value.Null, err
	}
	return inv.self.getData(inv.caller, name)
}

func metaSet(inv *Invocation, args []value.Value) (value.Value, error) {
	name, err := argString(args, 0, "data item name")
	if err != nil {
		return value.Null, err
	}
	return value.Null, inv.self.setData(inv.caller, name, argAt(args, 1))
}

// metaGetDataItem returns the item description and a handle usable with
// setDataItem ("getDataItem returns a description of the data item and a
// handle that can be used by setDataItem to change its properties").
func metaGetDataItem(inv *Invocation, args []value.Value) (value.Value, error) {
	name, err := argString(args, 0, "data item name")
	if err != nil {
		return value.Null, err
	}
	o := inv.self
	o.mu.Lock()
	d, ok := o.lookupData(name)
	if !ok || (!d.visible && inv.caller.Object != o.id) {
		o.mu.Unlock()
		return value.Null, fmt.Errorf("%w: data item %q", ErrNotFound, name)
	}
	desc, fn := d.describe(handleOf(d.name, d.gen)), d.compute
	o.mu.Unlock()
	if fn != nil {
		// A computed item's kind is that of the value it produces now; the
		// function runs outside the object lock, as on the get path.
		m, _ := desc.Map()
		m["kind"] = value.NewString(fn().Kind().String())
	}
	return desc, nil
}

func metaSetDataItem(inv *Invocation, args []value.Value) (value.Value, error) {
	ref, err := argString(args, 0, "handle or name")
	if err != nil {
		return value.Null, err
	}
	props := argMap(args, 1)
	if props == nil {
		return value.Null, fmt.Errorf("%w: setDataItem needs a properties map", ErrArity)
	}
	o := inv.self
	o.mu.Lock()
	defer o.mu.Unlock()
	d, err := o.resolveDataRef(ref)
	if err != nil {
		return value.Null, err
	}
	if d.fixed {
		return value.Null, fmt.Errorf("%w: data item %q", ErrFixed, d.name)
	}
	return value.Null, o.applyDataProps(d, props)
}

func metaAddDataItem(inv *Invocation, args []value.Value) (value.Value, error) {
	name, err := argString(args, 0, "data item name")
	if err != nil {
		return value.Null, err
	}
	o := inv.self
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.freeDataName(name); err != nil {
		return value.Null, err
	}
	d := &DataItem{name: name, visible: true, fixed: false, gen: o.stamp(nil)}
	if err := d.setValue(argAt(args, 1)); err != nil {
		return value.Null, err
	}
	if props := argMap(args, 2); props != nil {
		if err := o.applyDataProps(d, props); err != nil {
			return value.Null, err
		}
	}
	// No invalidation needed: misses are never memoized, and the duplicate
	// check above means no live entry can exist under this name.
	return value.Null, o.extData.add(d.name, d)
}

func metaDeleteDataItem(inv *Invocation, args []value.Value) (value.Value, error) {
	name, err := argString(args, 0, "data item name")
	if err != nil {
		return value.Null, err
	}
	o := inv.self
	o.mu.Lock()
	defer o.mu.Unlock()
	d, ok := o.lookupData(name)
	if !ok {
		return value.Null, fmt.Errorf("%w: data item %q", ErrNotFound, name)
	}
	if d.fixed {
		return value.Null, fmt.Errorf("%w: data item %q", ErrFixed, name)
	}
	o.stamp(d.gen)
	return value.Null, o.extData.remove(name)
}

// handleOf is the handle getDataItem and getMethod return: "h<gen>:<name>"
// (the digits end at the first colon, so any name reads back whole). Asking
// stores nothing; an edit, delete or rollback moves gen, staling the handle.
func handleOf(name string, gen *atomic.Uint64) string {
	buf := strconv.AppendUint(append(make([]byte, 0, 32), 'h'), gen.Load(), 10)
	return string(append(append(buf, ':'), name...))
}

// parseHandle splits a handle into the name and generation it names.
func parseHandle(ref string) (name string, gen uint64, ok bool) {
	i := strings.IndexByte(ref, ':')
	if i < 2 || ref[0] != 'h' {
		return "", 0, false
	}
	gen, err := strconv.ParseUint(ref[1:i], 10, 64)
	return ref[i+1:], gen, err == nil
}

// resolveDataRef maps a handle or a name to an item. A handle resolves
// only while its item is in the state it was issued for. Callers hold o.mu.
func (o *Object) resolveDataRef(ref string) (*DataItem, error) {
	if name, gen, ok := parseHandle(ref); ok {
		if d, ok := o.lookupData(name); ok && d.gen.Load() == gen {
			return d, nil
		}
	}
	if d, ok := o.lookupData(ref); ok {
		return d, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrBadHandle, ref)
}

// applyDataProps mutates item properties from a props map. Order of ACL
// edits within one call: aclClear, then aclDeny, then aclAllow (each
// prepended, so later edits take priority). Callers hold o.mu.
func (o *Object) applyDataProps(d *DataItem, props map[string]value.Value) error {
	// Invalidate the item's cache entries up front: props may edit
	// structure (rename), visibility, or the ACL, and a partial mutation on
	// error must still invalidate. Only this item's entries go stale —
	// cached dispatches of sibling items stay warm.
	o.stamp(d.gen)
	if v, ok := props["rename"]; ok {
		newName := v.String()
		if newName != d.name { // self-rename is a no-op
			if err := o.freeDataName(newName); err != nil {
				return err
			}
			if err := o.extData.remove(d.name); err != nil {
				return err
			}
			d.name = newName
			if err := o.extData.add(newName, d); err != nil {
				return err
			}
		}
	}
	if v, ok := props["visible"]; ok {
		d.visible = v.Truthy()
	}
	if v, ok := props["dynKind"]; ok {
		k, okk := value.KindFromString(v.String())
		if !okk {
			return fmt.Errorf("%w: unknown dynamic kind %q", ErrArity, v.String())
		}
		d.dynKind = k
		if err := d.setValue(d.val); err != nil {
			return err
		}
	}
	if v, ok := props["value"]; ok {
		if err := d.setValue(v); err != nil {
			return err
		}
	}
	acl, err := applyACLProps(d.acl, props)
	if err != nil {
		return err
	}
	d.acl = acl
	return nil
}

// applyACLProps interprets the aclClear/aclDeny/aclAllow properties.
// Subjects are "object:<id>", "domain:<pattern>" or "*".
func applyACLProps(acl security.ACL, props map[string]value.Value) (security.ACL, error) {
	if v, ok := props["aclClear"]; ok && v.Truthy() {
		acl = security.NewACL()
	}
	if v, ok := props["aclDeny"]; ok {
		e, err := parseACLSubject(v.String(), security.Deny)
		if err != nil {
			return acl, err
		}
		acl = acl.Prepend(e)
	}
	if v, ok := props["aclAllow"]; ok {
		e, err := parseACLSubject(v.String(), security.Allow)
		if err != nil {
			return acl, err
		}
		acl = acl.Prepend(e)
	}
	return acl, nil
}

func parseACLSubject(s string, effect security.Effect) (security.Entry, error) {
	const objPrefix, domPrefix = "object:", "domain:"
	switch {
	case s == "*":
		return security.Entry{Effect: effect}, nil
	case len(s) > len(objPrefix) && s[:len(objPrefix)] == objPrefix:
		id, err := parseIDString(s[len(objPrefix):])
		if err != nil {
			return security.Entry{}, err
		}
		return security.Entry{Effect: effect, Object: id}, nil
	case len(s) > len(domPrefix) && s[:len(domPrefix)] == domPrefix:
		return security.Entry{Effect: effect, Domain: s[len(domPrefix):]}, nil
	default:
		return security.Entry{}, fmt.Errorf("%w: ACL subject %q (want object:<id>, domain:<pattern> or *)", ErrArity, s)
	}
}

// ---- method meta-methods ----

func metaGetMethod(inv *Invocation, args []value.Value) (value.Value, error) {
	name, err := argString(args, 0, "method name")
	if err != nil {
		return value.Null, err
	}
	o := inv.self
	o.mu.Lock()
	defer o.mu.Unlock()
	if name == "invoke" && len(o.invokeLevels) > 0 {
		top := o.invokeLevels[len(o.invokeLevels)-1]
		desc := top.describe(handleOf(top.name, top.gen))
		m, _ := desc.Map()
		m["level"] = value.NewInt(int64(len(o.invokeLevels)))
		return value.NewMap(m), nil
	}
	m, ok := o.lookupMethod(name)
	if !ok {
		return value.Null, fmt.Errorf("%w: method %q", ErrNotFound, name)
	}
	if !m.visible && inv.caller.Object != o.id {
		return value.Null, fmt.Errorf("%w: method %q", ErrNotFound, name)
	}
	return m.describe(handleOf(m.name, m.gen)), nil
}

// metaSetMethod changes an extensible method's body, wrapping and
// properties. The special target "invoke" installs a new meta-invocation
// level (the paper's meta-mutability: "change the invoke method (using
// setMethod)"); the previous mechanism remains as the next level down.
func metaSetMethod(inv *Invocation, args []value.Value) (value.Value, error) {
	ref, err := argString(args, 0, "handle or name")
	if err != nil {
		return value.Null, err
	}
	props := argMap(args, 1)
	if props == nil {
		return value.Null, fmt.Errorf("%w: setMethod needs a properties map", ErrArity)
	}
	o := inv.self

	if ref == "invoke" {
		return value.Null, o.pushInvokeLevel(props)
	}

	o.mu.Lock()
	defer o.mu.Unlock()
	m, err := o.resolveMethodRef(ref)
	if err != nil {
		return value.Null, err
	}
	if m.fixed {
		return value.Null, fmt.Errorf("%w: method %q", ErrFixed, m.name)
	}
	if slices.Contains(o.invokeLevels, m) {
		// Reached through its handle, a level method is part of the chain
		// the decision table snapshots: editing it is a shape change.
		o.bumpStruct()
	}
	return value.Null, o.applyMethodProps(m, props)
}

func metaAddMethod(inv *Invocation, args []value.Value) (value.Value, error) {
	name, err := argString(args, 0, "method name")
	if err != nil {
		return value.Null, err
	}
	o := inv.self
	if name == "invoke" {
		// addMethod("invoke", body) is sugar for pushing a level.
		return value.Null, o.pushInvokeLevel(map[string]value.Value{"body": argAt(args, 1)})
	}
	body, err := o.buildBody(argAt(args, 1))
	if err != nil {
		return value.Null, fmt.Errorf("addMethod %q: %w", name, err)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.freeMethodName(name); err != nil {
		return value.Null, err
	}
	m := &Method{name: name, body: body, visible: true, fixed: false, gen: o.stamp(nil)}
	if props := argMap(args, 2); props != nil {
		if err := o.applyMethodProps(m, props); err != nil {
			return value.Null, err
		}
	}
	// No invalidation needed: misses are never memoized, and the duplicate
	// check above means no live entry can exist under this name.
	return value.Null, o.extMeth.add(m.name, m)
}

func metaDeleteMethod(inv *Invocation, args []value.Value) (value.Value, error) {
	name, err := argString(args, 0, "method name")
	if err != nil {
		return value.Null, err
	}
	o := inv.self
	if name == "invoke" {
		return value.Null, o.popInvokeLevel()
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	m, ok := o.lookupMethod(name) // a meta-method is found, and fixed, too
	if !ok {
		return value.Null, fmt.Errorf("%w: method %q", ErrNotFound, name)
	}
	if m.fixed {
		return value.Null, fmt.Errorf("%w: method %q", ErrFixed, name)
	}
	o.stamp(m.gen)
	return value.Null, o.extMeth.remove(name)
}

// resolveMethodRef is resolveDataRef for methods; a handle also reaches
// a meta-invoke level. Callers hold o.mu.
func (o *Object) resolveMethodRef(ref string) (*Method, error) {
	if name, gen, ok := parseHandle(ref); ok {
		m, found := o.lookupMethod(name)
		if i := slices.IndexFunc(o.invokeLevels, func(l *Method) bool { return l.name == name }); !found && i >= 0 {
			m, found = o.invokeLevels[i], true
		}
		if found && m.gen.Load() == gen {
			return m, nil
		}
	}
	if m, ok := o.lookupMethod(ref); ok {
		return m, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrBadHandle, ref)
}

// applyMethodProps mutates method properties from a props map. body/pre/
// post accept a descriptor (or script source string); pre/post accept null
// to detach. Callers hold o.mu (buildBody re-locks, so it is called with
// the descriptor extracted first).
func (o *Object) applyMethodProps(m *Method, props map[string]value.Value) error {
	// Invalidate the method's cache entries up front: props may edit the
	// body, structure (rename), visibility, or the ACL, and a partial
	// mutation on error must still invalidate. Only this method's entries
	// go stale — cached dispatches of sibling methods stay warm.
	o.stamp(m.gen)
	setBody := func(key string, cur Body, detachable bool) (Body, error) {
		v, ok := props[key]
		if !ok {
			return cur, nil
		}
		if v.IsNull() {
			if !detachable {
				return nil, fmt.Errorf("%w: method %q: body cannot be null", ErrArity, m.name)
			}
			return nil, nil
		}
		d, err := ValueToDescriptor(v)
		if err != nil {
			return nil, fmt.Errorf("method %q %s: %w", m.name, key, err)
		}
		b, err := RebuildBody(d, o.registry)
		if err != nil {
			return nil, fmt.Errorf("method %q %s: %w", m.name, key, err)
		}
		return b, nil
	}
	body, err := setBody("body", m.body, false)
	if err != nil {
		return err
	}
	m.body = body
	pre, err := setBody("pre", m.pre, true)
	if err != nil {
		return err
	}
	m.pre = pre
	post, err := setBody("post", m.post, true)
	if err != nil {
		return err
	}
	m.post = post

	if v, ok := props["visible"]; ok {
		m.visible = v.Truthy()
	}
	if v, ok := props["rename"]; ok {
		newName := v.String()
		if newName != m.name { // self-rename is a no-op
			if err := o.freeMethodName(newName); err != nil {
				return err
			}
			if err := o.extMeth.remove(m.name); err != nil {
				return err
			}
			m.name = newName
			if err := o.extMeth.add(newName, m); err != nil {
				return err
			}
		}
	}
	acl, err := applyACLProps(m.acl, props)
	if err != nil {
		return err
	}
	m.acl = acl
	return nil
}

// pushInvokeLevel installs a new top meta-invocation level from props.
func (o *Object) pushInvokeLevel(props map[string]value.Value) error {
	bodyV, ok := props["body"]
	if !ok {
		return fmt.Errorf("%w: setMethod(\"invoke\") needs a body", ErrArity)
	}
	body, err := o.buildBody(bodyV)
	if err != nil {
		return fmt.Errorf("invoke level: %w", err)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	level := len(o.invokeLevels) + 1
	m := &Method{
		name:    fmt.Sprintf("invoke@%d", level),
		body:    body,
		visible: true,
		fixed:   false,
		gen:     o.stamp(nil),
	}
	if err := o.applyMethodProps(m, stripBodies(props)); err != nil {
		return err
	}
	o.invokeLevels = append(o.invokeLevels, m)
	o.bumpStruct()
	o.levelCount.Store(int32(len(o.invokeLevels)))
	return nil
}

// stripBodies removes the body key (already consumed) but keeps pre/post
// and property keys for applyMethodProps.
func stripBodies(props map[string]value.Value) map[string]value.Value {
	out := make(map[string]value.Value, len(props))
	for k, v := range props {
		if k != "body" && k != "rename" {
			out[k] = v
		}
	}
	return out
}

// popInvokeLevel removes the top meta-invocation level ("deleteMethod on
// invoke"), restoring the previous invocation semantics.
func (o *Object) popInvokeLevel() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.invokeLevels) == 0 {
		return fmt.Errorf("%w: no meta-invoke level installed", ErrNotFound)
	}
	o.invokeLevels = o.invokeLevels[:len(o.invokeLevels)-1]
	o.bumpStruct()
	o.levelCount.Store(int32(len(o.invokeLevels)))
	return nil
}

// ---- invocation and introspection meta-methods ----

// metaInvoke is the reflective invoke meta-method: invoke(name, argsList)
// re-enters the full mechanism, meta levels included. Per the paper it can
// invoke "any method of the object, including meta-methods".
func metaInvoke(inv *Invocation, args []value.Value) (value.Value, error) {
	name, err := argString(args, 0, "method name")
	if err != nil {
		return value.Null, err
	}
	child := getInvocation(inv.self, inv.caller, "", 0, inv.depth+1, inv.chain)
	v, err := inv.self.invokeFrom(child, name, argList(args, 1))
	putInvocation(child)
	return v, err
}

func metaDescribe(inv *Invocation, _ []value.Value) (value.Value, error) {
	return inv.self.Describe(inv.caller), nil
}

func metaListDataItems(inv *Invocation, _ []value.Value) (value.Value, error) {
	names := inv.self.DataItemNames(inv.caller)
	out := make([]value.Value, len(names))
	for i, n := range names {
		out[i] = value.NewString(n)
	}
	return value.NewList(out), nil
}

func metaListMethods(inv *Invocation, _ []value.Value) (value.Value, error) {
	names := inv.self.MethodNames(inv.caller)
	out := make([]value.Value, len(names))
	for i, n := range names {
		out[i] = value.NewString(n)
	}
	return value.NewList(out), nil
}

// parseIDString parses an object ID, wrapping the error as ErrArity.
func parseIDString(s string) (naming.ID, error) {
	id, err := naming.ParseID(s)
	if err != nil {
		return naming.Nil, fmt.Errorf("%w: %v", ErrArity, err)
	}
	return id, nil
}
