package core

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/naming"
	"repro/internal/security"
	"repro/internal/value"
)

var gen = naming.NewGenerator("core-test")

// testObject builds a small object with one fixed and one extensible data
// item and a fixed native method.
func testObject(t *testing.T, opts ...BuildOption) *Object {
	t.Helper()
	b := NewBuilder(gen, "Test", opts...)
	b.FixedData("name", value.NewString("obar"))
	b.ExtData("counter", value.NewInt(0))
	b.FixedMethod("double", NewNativeBody("test.double", func(_ *Invocation, args []value.Value) (value.Value, error) {
		n, err := value.Coerce(argAt(args, 0), value.KindInt)
		if err != nil {
			return value.Null, err
		}
		i, _ := n.Int()
		return value.NewInt(2 * i), nil
	}))
	obj, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func allowAllPolicy() *security.Policy {
	p := security.NewPolicy()
	p.SetDefault(security.Untrusted, security.Allow)
	p.SetDefault(security.Limited, security.Allow)
	return p
}

func stranger() security.Principal {
	return security.Principal{Object: gen.New(), Domain: "elsewhere"}
}

func TestBuilderBasics(t *testing.T) {
	obj := testObject(t, InDomain("technion.ee"))
	if obj.Class() != "Test" {
		t.Errorf("Class = %q", obj.Class())
	}
	if obj.Domain() != "technion.ee" {
		t.Errorf("Domain = %q", obj.Domain())
	}
	if obj.ID().IsNil() {
		t.Error("nil ID")
	}
	p := obj.Principal()
	if p.Object != obj.ID() || p.Domain != "technion.ee" {
		t.Errorf("Principal = %v", p)
	}
}

func TestBuilderRejectsDuplicatesAndReserved(t *testing.T) {
	b := NewBuilder(gen, "Dup")
	b.FixedData("x", value.NewInt(1))
	b.ExtData("x", value.NewInt(2)) // duplicate across sections
	if _, err := b.Build(); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate item: %v", err)
	}

	b2 := NewBuilder(gen, "Res")
	b2.FixedMethod("invoke", NewNativeBody("x", func(*Invocation, []value.Value) (value.Value, error) {
		return value.Null, nil
	}))
	if _, err := b2.Build(); !errors.Is(err, ErrExists) {
		t.Errorf("reserved method name: %v", err)
	}

	b3 := NewBuilder(gen, "ResData")
	b3.ExtData("describe", value.Null)
	if _, err := b3.Build(); !errors.Is(err, ErrExists) {
		t.Errorf("reserved data name: %v", err)
	}

	b4 := NewBuilder(gen, "NilBody")
	b4.FixedMethod("m", nil)
	if _, err := b4.Build(); !errors.Is(err, ErrArity) {
		t.Errorf("nil body: %v", err)
	}

	b5 := NewBuilder(gen, "BadScript")
	b5.FixedScriptMethod("m", "not a function")
	if _, err := b5.Build(); err == nil {
		t.Error("bad script accepted")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic")
		}
	}()
	b := NewBuilder(gen, "Bad")
	b.FixedMethod("m", nil)
	b.MustBuild()
}

func TestGetSetSelf(t *testing.T) {
	obj := testObject(t)
	v, err := obj.Get(obj.Principal(), "name")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "obar" {
		t.Errorf("name = %v", v)
	}
	if err := obj.Set(obj.Principal(), "counter", value.NewInt(7)); err != nil {
		t.Fatal(err)
	}
	v, err = obj.Get(obj.Principal(), "counter")
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 7 {
		t.Errorf("counter = %v", v)
	}
	// Fixed data items' VALUES are settable (the paper freezes structure,
	// not state — "data items … defined in the fixed section … may not be
	// changed" refers to the items themselves; their values change with
	// ordinary set).
	if err := obj.Set(obj.Principal(), "name", value.NewString("renamed")); err != nil {
		t.Errorf("set fixed item value: %v", err)
	}
	// Missing items.
	if _, err := obj.Get(obj.Principal(), "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get ghost: %v", err)
	}
	if err := obj.Set(obj.Principal(), "ghost", value.Null); !errors.Is(err, ErrNotFound) {
		t.Errorf("set ghost: %v", err)
	}
}

func TestPolicyGateOnStrangers(t *testing.T) {
	obj := testObject(t) // no policy: default deny for non-self
	if _, err := obj.Get(stranger(), "name"); !errors.Is(err, security.ErrDenied) {
		t.Errorf("stranger get without policy: %v", err)
	}

	open := testObject(t, WithPolicy(allowAllPolicy()))
	if _, err := open.Get(stranger(), "name"); err != nil {
		t.Errorf("stranger get with open policy: %v", err)
	}
}

func TestDataItemACL(t *testing.T) {
	friend := stranger()
	b := NewBuilder(gen, "ACLTest", WithPolicy(security.NewPolicy()))
	b.FixedData("secret", value.NewInt(99),
		WithACL(security.NewACL(security.AllowObject(friend.Object))))
	obj, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Get(friend, "secret"); err != nil {
		t.Errorf("ACL-allowed get: %v", err)
	}
	if _, err := obj.Get(stranger(), "secret"); !errors.Is(err, security.ErrDenied) {
		t.Errorf("ACL-denied get: %v", err)
	}
	// ACL applies to set as well.
	if err := obj.Set(friend, "secret", value.NewInt(1)); err != nil {
		t.Errorf("ACL-allowed set: %v", err)
	}
}

func TestHiddenItemsAreInvisible(t *testing.T) {
	b := NewBuilder(gen, "Hide", WithPolicy(allowAllPolicy()))
	b.FixedData("plain", value.NewInt(1))
	b.FixedData("covert", value.NewInt(2), Hidden())
	b.FixedMethod("covertOp", NewNativeBody("t", func(*Invocation, []value.Value) (value.Value, error) {
		return value.NewInt(0), nil
	}), Hidden())
	obj, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out := stranger()
	// Hidden item reads as not-found, even though the policy is allow-all —
	// encapsulation must not leak existence.
	if _, err := obj.Get(out, "covert"); !errors.Is(err, ErrNotFound) {
		t.Errorf("hidden get: %v", err)
	}
	if _, err := obj.Invoke(out, "covertOp"); !errors.Is(err, ErrNotFound) {
		t.Errorf("hidden invoke: %v", err)
	}
	// The object itself sees everything.
	if _, err := obj.Get(obj.Principal(), "covert"); err != nil {
		t.Errorf("self get hidden: %v", err)
	}
	if _, err := obj.Invoke(obj.Principal(), "covertOp"); err != nil {
		t.Errorf("self invoke hidden: %v", err)
	}
	// Listings respect visibility.
	names := obj.DataItemNames(out)
	for _, n := range names {
		if n == "covert" {
			t.Error("hidden item listed to stranger")
		}
	}
	selfNames := obj.DataItemNames(obj.Principal())
	found := false
	for _, n := range selfNames {
		if n == "covert" {
			found = true
		}
	}
	if !found {
		t.Error("hidden item not listed to self")
	}
	meths := obj.MethodNames(out)
	for _, n := range meths {
		if n == "covertOp" {
			t.Error("hidden method listed to stranger")
		}
	}
	// HasMethod answers what the listing would, and allocates nothing.
	for _, caller := range []security.Principal{out, obj.Principal()} {
		for _, n := range append(obj.MethodNames(obj.Principal()), "nope") {
			if got, want := obj.HasMethod(caller, n), slices.Contains(obj.MethodNames(caller), n); got != want {
				t.Errorf("HasMethod(%v, %q) = %v, listing says %v", caller, n, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { obj.HasMethod(out, "covertOp") }); n != 0 && !raceBuild {
		t.Errorf("HasMethod: %v allocs, want 0", n)
	}
}

func TestDynKindCoercesOnSet(t *testing.T) {
	b := NewBuilder(gen, "Typed")
	b.ExtData("count", value.NewInt(0), WithDynKind(value.KindInt))
	obj, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Setting HTML text coerces to int — the paper's coercion example,
	// enforced by the item's dynamic type.
	if err := obj.Set(obj.Principal(), "count", value.NewString("<b>17</b>")); err != nil {
		t.Fatal(err)
	}
	v, err := obj.Get(obj.Principal(), "count")
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := v.Int(); !ok || i != 17 {
		t.Errorf("count = %v (%s)", v, v.Kind())
	}
	// Uncoercible values fail the set.
	if err := obj.Set(obj.Principal(), "count", value.NewString("no digits")); !errors.Is(err, value.ErrBadType) {
		t.Errorf("bad set: %v", err)
	}
}

func TestDescribe(t *testing.T) {
	obj := testObject(t, WithPolicy(allowAllPolicy()))
	d := obj.Describe(obj.Principal())
	m, ok := d.Map()
	if !ok {
		t.Fatal("describe is not a map")
	}
	if m["class"].String() != "Test" {
		t.Errorf("class = %v", m["class"])
	}
	items, _ := m["dataItems"].List()
	if len(items) != 2 {
		t.Errorf("dataItems = %v", m["dataItems"])
	}
	meths, _ := m["methods"].List()
	if len(meths) != 1+len(metaNames) {
		t.Errorf("methods = %d: %v", len(meths), m["methods"])
	}
	if lvl, _ := m["invokeLevels"].Int(); lvl != 0 {
		t.Errorf("invokeLevels = %v", m["invokeLevels"])
	}
	// Via the meta-method (self-representation through the model itself).
	d2, err := obj.Invoke(stranger(), "describe")
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := d2.Map()
	if m2["id"].String() != obj.ID().String() {
		t.Errorf("describe id = %v", m2["id"])
	}
}

func TestListMetaMethods(t *testing.T) {
	obj := testObject(t, WithPolicy(allowAllPolicy()))
	v, err := obj.Invoke(stranger(), "listMethods")
	if err != nil {
		t.Fatal(err)
	}
	l, _ := v.List()
	var have []string
	for _, e := range l {
		have = append(have, e.String())
	}
	joined := strings.Join(have, ",")
	for _, want := range metaNames {
		if !strings.Contains(joined, want) {
			t.Errorf("meta-method %q missing from listing %v", want, have)
		}
	}
	v2, err := obj.Invoke(stranger(), "listDataItems")
	if err != nil {
		t.Fatal(err)
	}
	if l2, _ := v2.List(); len(l2) != 2 {
		t.Errorf("listDataItems = %v", v2)
	}
}

func TestMetaHiddenObject(t *testing.T) {
	b := NewBuilder(gen, "Amb", WithPolicy(allowAllPolicy()), MetaHidden())
	b.ExtData("x", value.NewInt(1))
	obj, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out := stranger()
	// Mutating meta-methods are invisible to outsiders…
	if _, err := obj.Invoke(out, "addDataItem", value.NewString("y"), value.NewInt(2)); !errors.Is(err, ErrNotFound) {
		t.Errorf("hidden addDataItem: %v", err)
	}
	// …but ordinary access and introspection stay available.
	if _, err := obj.Get(out, "x"); err != nil {
		t.Errorf("get on MetaHidden object: %v", err)
	}
	if _, err := obj.Invoke(out, "describe"); err != nil {
		t.Errorf("describe on MetaHidden object: %v", err)
	}
	// Self retains full meta access.
	if _, err := obj.InvokeSelf("addDataItem", value.NewString("y"), value.NewInt(2)); err != nil {
		t.Errorf("self addDataItem: %v", err)
	}
}

func TestMetaACLGrantsOrigin(t *testing.T) {
	origin := stranger()
	b := NewBuilder(gen, "Amb",
		WithPolicy(security.NewPolicy()),
		MetaACL(security.NewACL(security.AllowObject(origin.Object))))
	b.ExtData("x", value.NewInt(1))
	obj, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The origin may manipulate the ambassador's structure remotely…
	if _, err := obj.Invoke(origin, "addDataItem", value.NewString("y"), value.NewInt(2)); err != nil {
		t.Errorf("origin addDataItem: %v", err)
	}
	// …while the host (any other principal) is rejected by the meta ACL +
	// default-deny policy.
	if _, err := obj.Invoke(stranger(), "deleteDataItem", value.NewString("y")); !errors.Is(err, security.ErrDenied) {
		t.Errorf("host deleteDataItem: %v", err)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	obj := testObject(t, WithPolicy(allowAllPolicy()))
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			me := security.Principal{Object: gen.New(), Domain: "d"}
			for i := 0; i < 100; i++ {
				if _, err := obj.Invoke(me, "double", value.NewInt(int64(i))); err != nil {
					errCh <- err
					return
				}
				if w == 0 {
					// One writer mutating structure concurrently.
					name := value.NewString("tmp")
					_, _ = obj.InvokeSelf("addDataItem", name, value.NewInt(int64(i)))
					_, _ = obj.InvokeSelf("deleteDataItem", name)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func TestAuditorRecordsDecisions(t *testing.T) {
	aud := security.NewAuditor(16)
	obj := testObject(t, WithAuditor(aud), WithPolicy(security.NewPolicy()))
	_, _ = obj.Invoke(stranger(), "double", value.NewInt(1)) // denied
	if len(aud.Denials()) != 1 {
		t.Errorf("denials = %d", len(aud.Denials()))
	}
}
