package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/security"
	"repro/internal/value"
)

func openObject(t *testing.T, opts ...BuildOption) *Object {
	t.Helper()
	opts = append([]BuildOption{WithPolicy(allowAllPolicy())}, opts...)
	return testObject(t, opts...)
}

func TestAddGetDeleteDataItem(t *testing.T) {
	obj := openObject(t)
	self := obj.Principal()

	if _, err := obj.Invoke(self, "addDataItem", value.NewString("load"), value.NewInt(3)); err != nil {
		t.Fatal(err)
	}
	v, err := obj.Get(self, "load")
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 3 {
		t.Errorf("load = %v", v)
	}

	// Duplicate and reserved adds fail.
	if _, err := obj.Invoke(self, "addDataItem", value.NewString("load"), value.Null); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate add: %v", err)
	}
	if _, err := obj.Invoke(self, "addDataItem", value.NewString("invoke"), value.Null); !errors.Is(err, ErrExists) {
		t.Errorf("reserved add: %v", err)
	}
	// Duplicate against a fixed item fails too.
	if _, err := obj.Invoke(self, "addDataItem", value.NewString("name"), value.Null); !errors.Is(err, ErrExists) {
		t.Errorf("fixed-dup add: %v", err)
	}

	// getDataItem describes and hands out a handle.
	desc, err := obj.Invoke(self, "getDataItem", value.NewString("load"))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := desc.Map()
	if m["name"].String() != "load" || m["fixed"].Truthy() {
		t.Errorf("description = %v", desc)
	}
	handle := m["handle"].String()
	if handle == "" {
		t.Fatal("no handle")
	}

	// Delete removes the item and invalidates handles.
	if _, err := obj.Invoke(self, "deleteDataItem", value.NewString("load")); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Get(self, "load"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get after delete: %v", err)
	}
	if _, err := obj.Invoke(self, "setDataItem", value.NewString(handle),
		value.NewMap(map[string]value.Value{"visible": value.False})); !errors.Is(err, ErrBadHandle) {
		t.Errorf("stale handle: %v", err)
	}

	// Deleting fixed or missing items fails.
	if _, err := obj.Invoke(self, "deleteDataItem", value.NewString("name")); !errors.Is(err, ErrFixed) {
		t.Errorf("delete fixed: %v", err)
	}
	if _, err := obj.Invoke(self, "deleteDataItem", value.NewString("ghost")); !errors.Is(err, ErrNotFound) {
		t.Errorf("delete ghost: %v", err)
	}
}

func TestSetDataItemProperties(t *testing.T) {
	obj := openObject(t)
	self := obj.Principal()
	if _, err := obj.Invoke(self, "addDataItem", value.NewString("item"), value.NewString("5")); err != nil {
		t.Fatal(err)
	}

	// Change dynamic kind: value re-coerces.
	if _, err := obj.Invoke(self, "setDataItem", value.NewString("item"),
		value.NewMap(map[string]value.Value{"dynKind": value.NewString("int")})); err != nil {
		t.Fatal(err)
	}
	v, _ := obj.Get(self, "item")
	if i, ok := v.Int(); !ok || i != 5 {
		t.Errorf("after dynKind change: %v (%s)", v, v.Kind())
	}

	// Rename.
	if _, err := obj.Invoke(self, "setDataItem", value.NewString("item"),
		value.NewMap(map[string]value.Value{"rename": value.NewString("renamed")})); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Get(self, "item"); !errors.Is(err, ErrNotFound) {
		t.Errorf("old name resolves: %v", err)
	}
	if _, err := obj.Get(self, "renamed"); err != nil {
		t.Errorf("new name: %v", err)
	}

	// Renaming onto an existing or reserved name fails.
	if _, err := obj.Invoke(self, "setDataItem", value.NewString("renamed"),
		value.NewMap(map[string]value.Value{"rename": value.NewString("counter")})); !errors.Is(err, ErrExists) {
		t.Errorf("rename onto existing: %v", err)
	}
	if _, err := obj.Invoke(self, "setDataItem", value.NewString("renamed"),
		value.NewMap(map[string]value.Value{"rename": value.NewString("get")})); !errors.Is(err, ErrExists) {
		t.Errorf("rename onto reserved: %v", err)
	}

	// Visibility flip hides the item from others.
	if _, err := obj.Invoke(self, "setDataItem", value.NewString("renamed"),
		value.NewMap(map[string]value.Value{"visible": value.False})); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Get(stranger(), "renamed"); !errors.Is(err, ErrNotFound) {
		t.Errorf("hidden after setDataItem: %v", err)
	}

	// Value replacement through properties.
	if _, err := obj.Invoke(self, "setDataItem", value.NewString("renamed"),
		value.NewMap(map[string]value.Value{"value": value.NewInt(42)})); err != nil {
		t.Fatal(err)
	}
	v, _ = obj.Get(self, "renamed")
	if i, _ := v.Int(); i != 42 {
		t.Errorf("value prop: %v", v)
	}

	// ACL edit: deny a specific object.
	victim := stranger()
	if _, err := obj.Invoke(self, "setDataItem", value.NewString("renamed"),
		value.NewMap(map[string]value.Value{
			"visible": value.True,
			"aclDeny": value.NewString("object:" + victim.Object.String()),
		})); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Get(victim, "renamed"); !errors.Is(err, security.ErrDenied) {
		t.Errorf("acl deny: %v", err)
	}
	if _, err := obj.Get(stranger(), "renamed"); err != nil {
		t.Errorf("other caller: %v", err)
	}

	// aclClear then domain allow.
	if _, err := obj.Invoke(self, "setDataItem", value.NewString("renamed"),
		value.NewMap(map[string]value.Value{
			"aclClear": value.True,
			"aclAllow": value.NewString("domain:elsewhere"),
		})); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Get(victim, "renamed"); err != nil {
		t.Errorf("after aclClear: %v", err)
	}

	// Fixed items reject setDataItem.
	if _, err := obj.Invoke(self, "setDataItem", value.NewString("name"),
		value.NewMap(map[string]value.Value{"visible": value.False})); !errors.Is(err, ErrFixed) {
		t.Errorf("setDataItem on fixed: %v", err)
	}

	// Bad arguments.
	if _, err := obj.Invoke(self, "setDataItem", value.NewString("renamed")); !errors.Is(err, ErrArity) {
		t.Errorf("missing props: %v", err)
	}
	if _, err := obj.Invoke(self, "setDataItem", value.NewString("renamed"),
		value.NewMap(map[string]value.Value{"dynKind": value.NewString("bogus")})); !errors.Is(err, ErrArity) {
		t.Errorf("bad dynKind: %v", err)
	}
	if _, err := obj.Invoke(self, "setDataItem", value.NewString("renamed"),
		value.NewMap(map[string]value.Value{"aclAllow": value.NewString("nonsense")})); !errors.Is(err, ErrArity) {
		t.Errorf("bad acl subject: %v", err)
	}
	if _, err := obj.Invoke(self, "setDataItem", value.NewString("renamed"),
		value.NewMap(map[string]value.Value{"aclAllow": value.NewString("object:notanid")})); !errors.Is(err, ErrArity) {
		t.Errorf("bad acl object id: %v", err)
	}
}

func TestAddSetDeleteMethod(t *testing.T) {
	obj := openObject(t)
	self := obj.Principal()

	// Add a script method.
	if _, err := obj.Invoke(self, "addMethod", value.NewString("triple"),
		value.NewString(`fn(x) { return x * 3; }`)); err != nil {
		t.Fatal(err)
	}
	v, err := obj.Invoke(stranger(), "triple", value.NewInt(4))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 12 {
		t.Errorf("triple = %v", v)
	}

	// Describe it.
	desc, err := obj.Invoke(self, "getMethod", value.NewString("triple"))
	if err != nil {
		t.Fatal(err)
	}
	dm, _ := desc.Map()
	if dm["body"].String() != "script" || dm["fixed"].Truthy() {
		t.Errorf("description = %v", desc)
	}

	// Replace its body via handle.
	handle := dm["handle"].String()
	if _, err := obj.Invoke(self, "setMethod", value.NewString(handle),
		value.NewMap(map[string]value.Value{
			"body": value.NewString(`fn(x) { return x * 30; }`),
		})); err != nil {
		t.Fatal(err)
	}
	v, _ = obj.Invoke(stranger(), "triple", value.NewInt(4))
	if i, _ := v.Int(); i != 120 {
		t.Errorf("after setMethod = %v", v)
	}

	// Attach a pre, then detach it with null.
	if _, err := obj.Invoke(self, "setMethod", value.NewString("triple"),
		value.NewMap(map[string]value.Value{
			"pre": value.NewString(`fn(x) { return x > 0; }`),
		})); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Invoke(stranger(), "triple", value.NewInt(-1)); !errors.Is(err, ErrPreconditionFailed) {
		t.Errorf("script pre: %v", err)
	}
	if _, err := obj.Invoke(self, "setMethod", value.NewString("triple"),
		value.NewMap(map[string]value.Value{"pre": value.Null})); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Invoke(stranger(), "triple", value.NewInt(-1)); err != nil {
		t.Errorf("after pre detach: %v", err)
	}

	// Body cannot be nulled.
	if _, err := obj.Invoke(self, "setMethod", value.NewString("triple"),
		value.NewMap(map[string]value.Value{"body": value.Null})); !errors.Is(err, ErrArity) {
		t.Errorf("null body: %v", err)
	}

	// Rename, then delete.
	if _, err := obj.Invoke(self, "setMethod", value.NewString("triple"),
		value.NewMap(map[string]value.Value{"rename": value.NewString("x30")})); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Invoke(stranger(), "x30", value.NewInt(1)); err != nil {
		t.Errorf("renamed method: %v", err)
	}
	if _, err := obj.Invoke(self, "deleteMethod", value.NewString("x30")); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Invoke(stranger(), "x30", value.NewInt(1)); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted method: %v", err)
	}

	// Fixed methods are immutable.
	if _, err := obj.Invoke(self, "setMethod", value.NewString("double"),
		value.NewMap(map[string]value.Value{"visible": value.False})); !errors.Is(err, ErrFixed) {
		t.Errorf("setMethod on fixed: %v", err)
	}
	if _, err := obj.Invoke(self, "deleteMethod", value.NewString("double")); !errors.Is(err, ErrFixed) {
		t.Errorf("deleteMethod on fixed: %v", err)
	}
	// Reserved / duplicate adds fail.
	if _, err := obj.Invoke(self, "addMethod", value.NewString("describe"),
		value.NewString(`fn() { return 0; }`)); !errors.Is(err, ErrExists) {
		t.Errorf("reserved addMethod: %v", err)
	}
	if _, err := obj.Invoke(self, "addMethod", value.NewString("double"),
		value.NewString(`fn() { return 0; }`)); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate addMethod: %v", err)
	}
	// Non-mobile script bodies are rejected.
	if _, err := obj.Invoke(self, "addMethod", value.NewString("leaky"),
		value.NewString(`fn() { return captured; }`)); err == nil {
		t.Error("non-mobile body accepted")
	}
	// Unknown native bodies are rejected.
	if _, err := obj.Invoke(self, "addMethod", value.NewString("native"),
		DescriptorToValue(BodyDescriptor{Kind: BodyNative, Name: "no.such"})); !errors.Is(err, ErrUnknownBehavior) {
		t.Errorf("unknown native: %v", err)
	}
}

func TestGetMethodOnInvokeDescribesTopLevel(t *testing.T) {
	obj := openObject(t)
	self := obj.Principal()
	// Without levels, getMethod("invoke") describes the fixed meta-method.
	desc, err := obj.Invoke(self, "getMethod", value.NewString("invoke"))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := desc.Map()
	if !m["fixed"].Truthy() {
		t.Errorf("base invoke description: %v", desc)
	}
	// With a level, it describes the top of the chain.
	if _, err := obj.InvokeSelf("setMethod", value.NewString("invoke"),
		value.NewMap(map[string]value.Value{
			"body": value.NewString(`fn(name, callArgs) { return self.invokeNext(name, callArgs); }`),
		})); err != nil {
		t.Fatal(err)
	}
	desc, err = obj.Invoke(self, "getMethod", value.NewString("invoke"))
	if err != nil {
		t.Fatal(err)
	}
	m, _ = desc.Map()
	if lvl, _ := m["level"].Int(); lvl != 1 {
		t.Errorf("level = %v", m["level"])
	}
	if m["name"].String() != "invoke@1" {
		t.Errorf("name = %v", m["name"])
	}
	// Popping with nothing left fails.
	if _, err := obj.InvokeSelf("deleteMethod", value.NewString("invoke")); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.InvokeSelf("deleteMethod", value.NewString("invoke")); !errors.Is(err, ErrNotFound) {
		t.Errorf("pop empty chain: %v", err)
	}
}

func TestScriptDrivenMeta(t *testing.T) {
	// A method that reflects on its own object: reads the listing, adds a
	// method from a fn literal, and calls it — the full mobile-code loop.
	b := NewBuilder(gen, "SelfRef", WithPolicy(allowAllPolicy()))
	b.FixedScriptMethod("extend", `fn() {
		let before = len(self.listMethods());
		self.addMethod("bump", fn(x) { return x + 1; });
		let after = len(self.listMethods());
		return [before, after, self.bump(41)];
	}`)
	obj := b.MustBuild()
	v, err := obj.InvokeSelf("extend")
	if err != nil {
		t.Fatal(err)
	}
	l, _ := v.List()
	if len(l) != 3 {
		t.Fatalf("result = %v", v)
	}
	b0, _ := l[0].Int()
	b1, _ := l[1].Int()
	if b1 != b0+1 {
		t.Errorf("method count %d → %d", b0, b1)
	}
	if i, _ := l[2].Int(); i != 42 {
		t.Errorf("bump(41) = %v", l[2])
	}
}

func TestScriptFieldSugar(t *testing.T) {
	// self.counter / self.counter = x sugar maps to get/set.
	b := NewBuilder(gen, "Sugar", WithPolicy(allowAllPolicy()))
	b.ExtData("counter", value.NewInt(0))
	b.FixedScriptMethod("incr", `fn() { self.counter = self.counter + 1; return self.counter; }`)
	obj := b.MustBuild()
	for i := int64(1); i <= 3; i++ {
		v, err := obj.InvokeSelf("incr")
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := v.Int(); got != i {
			t.Errorf("incr #%d = %v", i, v)
		}
	}
}

func TestCtxOperations(t *testing.T) {
	var logged []string
	b := NewBuilder(gen, "Ctx", WithPolicy(allowAllPolicy()),
		WithOutput(func(s string) { logged = append(logged, s) }))
	b.FixedScriptMethod("probe", `fn() {
		ctx.log("level", ctx.level(), "method", ctx.method());
		return ctx.callerDomain() + "/" + ctx.site();
	}`)
	obj := b.MustBuild()
	v, err := obj.Invoke(security.Principal{Object: gen.New(), Domain: "probe.domain"}, "probe")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "probe.domain/" {
		t.Errorf("probe = %v", v)
	}
	if len(logged) != 1 || logged[0] != "level 0 method probe" {
		t.Errorf("logged = %v", logged)
	}
	// ctx.lookup without a resolver fails.
	b2 := NewBuilder(gen, "NoRes", WithPolicy(allowAllPolicy()))
	b2.FixedScriptMethod("find", `fn() { return ctx.lookup("peer"); }`)
	obj2 := b2.MustBuild()
	if _, err := obj2.InvokeSelf("find"); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup without resolver: %v", err)
	}
	// Unknown ctx op.
	b3 := NewBuilder(gen, "BadCtx", WithPolicy(allowAllPolicy()))
	b3.FixedScriptMethod("bad", `fn() { return ctx.teleport(); }`)
	obj3 := b3.MustBuild()
	if _, err := obj3.InvokeSelf("bad"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown ctx op: %v", err)
	}
}

// staticResolver maps fixed names to objects.
type staticResolver struct {
	site string
	m    map[string]*Object
}

func (r *staticResolver) SiteName() string { return r.site }
func (r *staticResolver) ResolveObject(name string) (*Object, error) {
	if o, ok := r.m[name]; ok {
		return o, nil
	}
	return nil, errors.New("unresolved: " + name)
}

func TestCtxLookupCrossObject(t *testing.T) {
	peer := openObject(t)
	res := &staticResolver{site: "siteA", m: map[string]*Object{"peer": peer}}
	b := NewBuilder(gen, "Finder", WithPolicy(allowAllPolicy()), WithResolver(res))
	b.FixedScriptMethod("callPeer", `fn(n) {
		let p = ctx.lookup("peer");
		return p.double(n) + ":" + ctx.site();
	}`)
	obj := b.MustBuild()
	v, err := obj.InvokeSelf("callPeer", value.NewInt(6))
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "12:siteA" {
		t.Errorf("callPeer = %v", v)
	}
}

func TestValueToDescriptorErrors(t *testing.T) {
	cases := []value.Value{
		value.NewInt(3),
		value.NewMap(map[string]value.Value{"kind": value.NewString("weird")}),
		value.NewMap(map[string]value.Value{"kind": value.NewString("script")}),
		value.NewMap(map[string]value.Value{"kind": value.NewString("native")}),
	}
	for _, c := range cases {
		if _, err := ValueToDescriptor(c); !errors.Is(err, ErrArity) {
			t.Errorf("ValueToDescriptor(%v): %v", c, err)
		}
	}
	// Valid forms.
	d, err := ValueToDescriptor(value.NewString("fn() { return 1; }"))
	if err != nil || d.Kind != BodyScript {
		t.Errorf("string form: %+v, %v", d, err)
	}
	d, err = ValueToDescriptor(DescriptorToValue(BodyDescriptor{Kind: BodyNative, Name: "x"}))
	if err != nil || d.Kind != BodyNative || d.Name != "x" {
		t.Errorf("native roundtrip: %+v, %v", d, err)
	}
	d, err = ValueToDescriptor(DescriptorToValue(BodyDescriptor{Kind: BodyScript, Source: "fn() { }"}))
	if err != nil || d.Kind != BodyScript || d.Source != "fn() { }" {
		t.Errorf("script roundtrip: %+v, %v", d, err)
	}
}

// TestStaleHandles: a handle names its item in one state, so it stops
// resolving once the item is deleted, has its ACL edited, or is rolled
// back by the atomic call that issued the handle.
func TestStaleHandles(t *testing.T) {
	obj := openObject(t)
	self := obj.Principal()
	handle := func(name string) value.Value {
		t.Helper()
		desc, err := obj.Invoke(self, "getDataItem", value.NewString(name))
		if err != nil {
			t.Fatal(err)
		}
		m, _ := desc.Map()
		return m["handle"]
	}
	hide := value.NewMap(map[string]value.Value{"visible": value.False})
	stale := func(what string, h value.Value) {
		t.Helper()
		if _, err := obj.Invoke(self, "setDataItem", h, hide); !errors.Is(err, ErrBadHandle) {
			t.Errorf("handle %v %s: setDataItem = %v, want ErrBadHandle", h, what, err)
		}
	}

	// Deleted, then bound again under the same name.
	if _, err := obj.Invoke(self, "addDataItem", value.NewString("load"), value.NewInt(3)); err != nil {
		t.Fatal(err)
	}
	h := handle("load")
	for _, step := range []string{"deleteDataItem", "addDataItem"} {
		if _, err := obj.Invoke(self, step, value.NewString("load"), value.NewInt(4)); err != nil {
			t.Fatal(err)
		}
	}
	stale("after delete and re-add", h)

	// ACL edit, through the handle itself: it is good for exactly one edit.
	h = handle("counter")
	deny := value.NewMap(map[string]value.Value{"aclDeny": value.NewString("domain:nowhere")})
	if _, err := obj.Invoke(self, "setDataItem", h, deny); err != nil {
		t.Fatalf("fresh handle: %v", err)
	}
	stale("after an ACL edit", h)

	// Rolled back: the atomic call edits the ACL, takes a handle on the
	// edited item, then fails.
	var minted value.Value
	mint := NewNativeBody("test.mint", func(inv *Invocation, _ []value.Value) (value.Value, error) {
		if _, err := inv.Invoke("setDataItem", value.NewString("counter"), deny); err != nil {
			return value.Null, err
		}
		minted = handle("counter")
		return value.Null, errors.New("fail after minting")
	})
	b := NewBuilder(gen, "Minter", WithPolicy(allowAllPolicy()))
	b.ExtData("counter", value.NewInt(0))
	b.ExtMethod("mint", mint)
	obj = b.MustBuild()
	self = obj.Principal()
	if _, err := obj.InvokeAtomic(self, "mint"); err == nil {
		t.Fatal("mint succeeded")
	}
	if minted.IsNull() {
		t.Fatal("mint issued no handle")
	}
	stale("after the atomic call that issued it rolled back", minted)
	if _, err := obj.Invoke(self, "setDataItem", handle("counter"), hide); err != nil {
		t.Errorf("a handle issued after the rollback: %v", err)
	}
}

func TestHandleTypeMismatch(t *testing.T) {
	obj := openObject(t)
	self := obj.Principal()
	// Get a data handle, feed it to setMethod.
	desc, err := obj.Invoke(self, "getDataItem", value.NewString("counter"))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := desc.Map()
	dataHandle := m["handle"].String()
	if _, err := obj.Invoke(self, "setMethod", value.NewString(dataHandle),
		value.NewMap(map[string]value.Value{"visible": value.False})); !errors.Is(err, ErrBadHandle) {
		t.Errorf("data handle to setMethod: %v", err)
	}
	// And a method handle to setDataItem.
	desc, err = obj.Invoke(self, "getMethod", value.NewString("double"))
	if err != nil {
		t.Fatal(err)
	}
	m, _ = desc.Map()
	methHandle := m["handle"].String()
	if _, err := obj.Invoke(self, "setDataItem", value.NewString(methHandle),
		value.NewMap(map[string]value.Value{"visible": value.False})); !errors.Is(err, ErrBadHandle) {
		t.Errorf("method handle to setDataItem: %v", err)
	}
}

func TestBehaviorRegistry(t *testing.T) {
	reg := NewBehaviorRegistry()
	reg.Register("b.one", func(*Invocation, []value.Value) (value.Value, error) {
		return value.NewInt(1), nil
	})
	reg.Register("b.two", func(*Invocation, []value.Value) (value.Value, error) {
		return value.NewInt(2), nil
	})
	if _, err := reg.Lookup("b.one"); err != nil {
		t.Errorf("Lookup: %v", err)
	}
	if _, err := reg.Lookup("missing"); !errors.Is(err, ErrUnknownBehavior) {
		t.Errorf("missing: %v", err)
	}
	names := reg.Names()
	if len(names) != 2 || names[0] != "b.one" || names[1] != "b.two" {
		t.Errorf("Names = %v", names)
	}
	if _, err := RebuildBody(BodyDescriptor{Kind: BodyNative, Name: "x"}, nil); !errors.Is(err, ErrUnknownBehavior) {
		t.Errorf("rebuild without registry: %v", err)
	}
	if _, err := RebuildBody(BodyDescriptor{}, reg); !errors.Is(err, ErrUnknownBehavior) {
		t.Errorf("rebuild zero descriptor: %v", err)
	}
}

// A function literal is resolved inside the program that contains it; one
// handed to addMethod is lifted out of that program. It must be rebuilt
// from its source — here from two blocks deep inside a helper closure,
// where its original frame depths mean nothing — and then behave like any
// installed script method: for another caller, after an image round trip,
// and from several goroutines sharing the one cached literal.
func TestLiftedClosureBecomesMethod(t *testing.T) {
	b := NewBuilder(gen, "Lifter", WithPolicy(allowAllPolicy()))
	b.ExtData("n", value.NewInt(40))
	b.FixedScriptMethod("install", `fn(name) {
		let bias = 1000;
		let helper = fn(flag) {
			let local = bias;
			if flag {
				for i in 1 {
					self.addMethod(name, fn(a) { return self.n + a; });
				}
			}
			return local;
		};
		return helper(true);
	}`)
	obj := b.MustBuild()
	if v, err := obj.InvokeSelf("install", value.NewString("m")); err != nil || v.String() != "1000" {
		t.Fatalf("install = %v, %v", v, err)
	}
	check := func(o *Object, arg, want int64) {
		t.Helper()
		v, err := o.Invoke(stranger(), "m", value.NewInt(arg))
		if got, _ := v.Int(); err != nil || got != want {
			t.Errorf("m(%d) = %v, %v; want %d", arg, v, err, want)
		}
	}
	check(obj, 2, 42)

	img, err := obj.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re, err := FromImage(img, nil, HostPolicy(allowAllPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	check(re, 5, 45)

	// A literal that captures a variable of the program around it is not
	// mobile, however deep it sits.
	b.FixedScriptMethod("leak", `fn() { let k = 1; { self.addMethod("bad", fn() { return k; }); } }`)
	if _, err := b.MustBuild().InvokeSelf("leak"); err == nil {
		t.Error("a capturing literal was installed as a method")
	}

	// Both objects run m from the same cached *FnLit; so do these four.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(o *Object) {
			defer wg.Done()
			caller := stranger()
			for i := int64(0); i < 200; i++ {
				v, err := o.Invoke(caller, "m", value.NewInt(i))
				if got, _ := v.Int(); err != nil || got != 40+i {
					t.Errorf("concurrent m(%d) = %v, %v", i, v, err)
					return
				}
			}
		}([]*Object{obj, re}[g%2])
	}
	wg.Wait()
}
