package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/mscript"
	"repro/internal/security"
	"repro/internal/value"
)

// migrant builds an object representative of a mobile Ambassador: fixed
// identity data, extensible state, script methods, a wrapped method, an
// ACL, and one installed meta-invoke level.
func migrant(t *testing.T) *Object {
	t.Helper()
	origin := gen.New()
	b := NewBuilder(gen, "Ambassador",
		InDomain("origin.site"),
		WithPolicy(allowAllPolicy()),
		// Admit the origin, reject everyone else regardless of host policy.
		MetaACL(security.NewACL(security.AllowObject(origin), security.DenyAll())))
	b.FixedData("origin", value.NewString(origin.String()))
	b.ExtData("cache", value.NewMap(map[string]value.Value{"k": value.NewInt(1)}))
	b.ExtData("hits", value.NewInt(0), WithDynKind(value.KindInt))
	b.FixedScriptMethod("query", `fn(key) {
		self.hits = self.hits + 1;
		let c = self.cache;
		return c[key];
	}`)
	b.ExtScriptMethod("refresh", `fn() { return "refreshed"; }`,
		WithPre(mustScript(t, `fn() { return true; }`)),
		WithPost(mustScript(t, `fn() { return true; }`)),
		WithACL(security.NewACL(security.AllowDomain("host.*"))))
	obj := b.MustBuild()
	_, err := obj.InvokeSelf("setMethod", value.NewString("invoke"),
		value.NewMap(map[string]value.Value{
			"body": value.NewString(`fn(name, callArgs) { return self.invokeNext(name, callArgs); }`),
		}))
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func mustScript(t *testing.T, src string) Body {
	t.Helper()
	b, err := NewScriptBody(src)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSnapshotMaterializeRoundTrip(t *testing.T) {
	obj := migrant(t)
	// Mutate state before the snapshot so the image carries live state.
	if _, err := obj.InvokeSelf("query", value.NewString("k")); err != nil {
		t.Fatal(err)
	}

	img, err := obj.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if img.Class != "Ambassador" || img.ID != obj.ID() {
		t.Errorf("image header: %+v", img)
	}
	if len(img.FixedData) != 1 || len(img.ExtData) != 2 {
		t.Errorf("image data: %d fixed, %d ext", len(img.FixedData), len(img.ExtData))
	}
	if len(img.FixedMethods) != 1 || len(img.ExtMethods) != 1 {
		t.Errorf("image methods: %d fixed, %d ext", len(img.FixedMethods), len(img.ExtMethods))
	}
	if len(img.InvokeLevels) != 1 {
		t.Errorf("image levels: %d", len(img.InvokeLevels))
	}

	// Materialize at a "remote host".
	hostPol := allowAllPolicy()
	re, err := FromImage(img, nil,
		HostPolicy(hostPol),
		RehomeDomain("host.tokyo"),
		HostBudget(mscript.Budget{MaxSteps: 100_000, MaxDepth: 32}))
	if err != nil {
		t.Fatal(err)
	}
	if re.ID() != obj.ID() {
		t.Error("migration changed identity")
	}
	if re.Domain() != "host.tokyo" {
		t.Errorf("domain = %q", re.Domain())
	}
	// State travelled: hits == 1, cache intact.
	v, err := re.Get(re.Principal(), "hits")
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 1 {
		t.Errorf("hits = %v", v)
	}
	// Behavior travelled: query works and keeps counting.
	v, err = re.InvokeSelf("query", value.NewString("k"))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 1 {
		t.Errorf("query = %v", v)
	}
	v, _ = re.Get(re.Principal(), "hits")
	if i, _ := v.Int(); i != 2 {
		t.Errorf("hits after query = %v", v)
	}
	// The meta-invoke chain travelled.
	if re.InvokeLevelCount() != 1 {
		t.Errorf("levels = %d", re.InvokeLevelCount())
	}
	// Method ACLs travelled: refresh only for host.* domains.
	if _, err := re.Invoke(security.Principal{Object: gen.New(), Domain: "host.osaka"}, "refresh"); err != nil {
		t.Errorf("host.* refresh: %v", err)
	}
	// Meta ACL travelled: stranger cannot mutate (policy is allow-all, but
	// meta ACL admits only the origin — ACL beats policy).
	if _, err := re.Invoke(stranger(), "addDataItem", value.NewString("x"), value.Null); err == nil {
		t.Error("stranger mutated materialized object")
	}
}

func TestSnapshotRejectsAnonymousNatives(t *testing.T) {
	b := NewBuilder(gen, "Anon", WithPolicy(allowAllPolicy()))
	b.FixedMethod("m", NewNativeBody("", func(*Invocation, []value.Value) (value.Value, error) {
		return value.Null, nil
	}))
	obj := b.MustBuild()
	if _, err := obj.Snapshot(); !errors.Is(err, ErrUnknownBehavior) {
		t.Errorf("anonymous native snapshot: %v", err)
	}
}

func TestMaterializeNativeThroughRegistry(t *testing.T) {
	reg := NewBehaviorRegistry()
	reg.Register("app.answer", func(*Invocation, []value.Value) (value.Value, error) {
		return value.NewInt(42), nil
	})
	b := NewBuilder(gen, "Native", WithPolicy(allowAllPolicy()), WithRegistry(reg))
	body, err := reg.Lookup("app.answer")
	if err != nil {
		t.Fatal(err)
	}
	b.FixedMethod("answer", body)
	obj := b.MustBuild()

	img, err := obj.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// A host without the behavior cannot materialize it…
	if _, err := FromImage(img, NewBehaviorRegistry()); !errors.Is(err, ErrUnknownBehavior) {
		t.Errorf("missing behavior: %v", err)
	}
	// …a host with it can.
	re, err := FromImage(img, reg, HostPolicy(allowAllPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	v, err := re.Invoke(stranger(), "answer")
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 42 {
		t.Errorf("answer = %v", v)
	}
}

func TestCloneDiverges(t *testing.T) {
	obj := migrant(t)
	cl, err := obj.Clone(gen)
	if err != nil {
		t.Fatal(err)
	}
	if cl.ID() == obj.ID() {
		t.Error("clone shares identity")
	}
	// Dynamic specialization: extend the clone, original unchanged.
	if _, err := cl.InvokeSelf("addDataItem", value.NewString("extra"), value.NewInt(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(cl.Principal(), "extra"); err != nil {
		t.Errorf("clone extra: %v", err)
	}
	if _, err := obj.Get(obj.Principal(), "extra"); !errors.Is(err, ErrNotFound) {
		t.Errorf("original grew: %v", err)
	}
	// State is deep-copied: mutating the clone's cache map must not leak.
	if err := cl.Set(cl.Principal(), "cache", value.NewMap(map[string]value.Value{"k": value.NewInt(99)})); err != nil {
		t.Fatal(err)
	}
	v, _ := obj.Get(obj.Principal(), "cache")
	m, _ := v.Map()
	if i, _ := m["k"].Int(); i != 1 {
		t.Errorf("original cache mutated: %v", v)
	}
}

func TestImageRejectsReservedNames(t *testing.T) {
	img := Image{Class: "Evil", ExtData: []DataItemImage{{Name: "invoke", Visible: true}}}
	if _, err := FromImage(img, nil); !errors.Is(err, ErrExists) {
		t.Errorf("reserved data in image: %v", err)
	}
	img2 := Image{Class: "Evil", ExtMethods: []MethodImage{{
		Name: "describe",
		Body: BodyDescriptor{Kind: BodyScript, Source: "fn() { return 1; }"},
	}}}
	if _, err := FromImage(img2, nil); !errors.Is(err, ErrExists) {
		t.Errorf("reserved method in image: %v", err)
	}
	// A name in both sections is refused, as Builder refuses declaring it.
	both := Image{Class: "Twice",
		FixedData: []DataItemImage{{Name: "x", Visible: true}},
		ExtData:   []DataItemImage{{Name: "x", Visible: true}}}
	if _, err := FromImage(both, nil); !errors.Is(err, ErrExists) {
		t.Errorf("data item in both sections: %v", err)
	}
	body := BodyDescriptor{Kind: BodyScript, Source: "fn() { return 1; }"}
	both = Image{Class: "Twice",
		FixedMethods: []MethodImage{{Name: "m", Visible: true, Body: body}},
		ExtMethods:   []MethodImage{{Name: "m", Visible: true, Body: body}}}
	if _, err := FromImage(both, nil); !errors.Is(err, ErrExists) {
		t.Errorf("method in both sections: %v", err)
	}
}

func TestImageRejectsBadScript(t *testing.T) {
	img := Image{Class: "Bad", ExtMethods: []MethodImage{{
		Name: "m",
		Body: BodyDescriptor{Kind: BodyScript, Source: "not valid {{{"},
	}}}
	if _, err := FromImage(img, nil); err == nil {
		t.Error("bad script image accepted")
	}
	// Bad pre/post too.
	img = Image{Class: "Bad", ExtMethods: []MethodImage{{
		Name: "m",
		Body: BodyDescriptor{Kind: BodyScript, Source: "fn() { return 1; }"},
		Pre:  BodyDescriptor{Kind: BodyScript, Source: "also bad"},
	}}}
	if _, err := FromImage(img, nil); err == nil {
		t.Error("bad pre image accepted")
	}
}

func TestHostBudgetEnforcedOnArrival(t *testing.T) {
	b := NewBuilder(gen, "Greedy", WithPolicy(allowAllPolicy()))
	b.FixedScriptMethod("spin", `fn() { while true { } return 0; }`)
	obj := b.MustBuild()
	img, err := obj.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re, err := FromImage(img, nil,
		HostPolicy(allowAllPolicy()),
		HostBudget(mscript.Budget{MaxSteps: 500, MaxDepth: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.InvokeSelf("spin"); !errors.Is(err, mscript.ErrBudget) {
		t.Errorf("budget on arrival: %v", err)
	}
}

func TestACLImageRoundTrip(t *testing.T) {
	id := gen.New()
	acl := security.NewACL(
		security.Entry{Effect: security.Allow, Object: id, Action: security.ActionInvoke},
		security.Entry{Effect: security.Deny, Domain: "evil.*"},
		security.AllowAll(),
	)
	back := ACLFromImage(ACLImage(acl))
	if back.Len() != 3 {
		t.Fatalf("len = %d", back.Len())
	}
	p := security.Principal{Object: id, Domain: "anywhere"}
	e1, ok1 := acl.Decide(p, security.ActionInvoke)
	e2, ok2 := back.Decide(p, security.ActionInvoke)
	if e1 != e2 || ok1 != ok2 {
		t.Error("decision changed across image round trip")
	}
	evil := security.Principal{Object: gen.New(), Domain: "evil.corp"}
	if e, _ := back.Decide(evil, security.ActionGet); e != security.Deny {
		t.Error("deny entry lost")
	}
}

// TestScriptCacheKeepsAdmitting: a peer that lands more distinct bodies
// than the cache holds must not turn parse caching off. After
// scriptCacheCap+1 distinct sources, a new source parsed twice is served
// from the cache the second time (one parsed literal, shared).
func TestScriptCacheKeepsAdmitting(t *testing.T) {
	for i := 0; i <= scriptCacheCap; i++ {
		if _, err := NewScriptBody(fmt.Sprintf("fn() { return %d; }", i)); err != nil {
			t.Fatal(err)
		}
	}
	src := "fn(x) { return x + 1025; }"
	first, err := NewScriptBody(src)
	if err != nil {
		t.Fatal(err)
	}
	again, err := NewScriptBody(src)
	if err != nil {
		t.Fatal(err)
	}
	if first.(*scriptBody).fn != again.(*scriptBody).fn {
		t.Error("a repeated source was parsed again: the full cache stopped admitting")
	}
}
