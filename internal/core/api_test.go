package core

import (
	"errors"
	"testing"

	"repro/internal/mscript"
	"repro/internal/security"
	"repro/internal/value"
)

// TestInvocationAccessors exercises the Invocation context from a native
// body — the introspection surface bodies program against.
func TestInvocationAccessors(t *testing.T) {
	caller := stranger()
	var seen struct {
		callerOK, selfOK bool
		method           string
		level, depth     int
	}
	b := NewBuilder(gen, "Introspect", WithPolicy(allowAllPolicy()))
	var obj *Object
	b.FixedMethod("probe", NewNativeBody("t.probe", func(inv *Invocation, _ []value.Value) (value.Value, error) {
		seen.callerOK = inv.Caller() == caller
		seen.selfOK = inv.Self() == obj
		seen.method = inv.Method()
		seen.level = inv.Level()
		seen.depth = inv.depth
		return value.Null, nil
	}))
	obj = b.MustBuild()
	if _, err := obj.Invoke(caller, "probe"); err != nil {
		t.Fatal(err)
	}
	if !seen.callerOK || !seen.selfOK || seen.method != "probe" || seen.level != 0 || seen.depth < 1 {
		t.Errorf("invocation context = %+v", seen)
	}
}

// TestHostWiringSetters exercises the post-construction host wiring used
// by sites when installing arriving objects.
func TestHostWiringSetters(t *testing.T) {
	obj := testObject(t)
	pol := allowAllPolicy()
	aud := security.NewAuditor(8)
	res := &staticResolver{site: "wired", m: map[string]*Object{}}
	var lines []string

	obj.SetPolicy(pol)
	obj.SetAuditor(aud)
	obj.ArmAudit(aud)
	obj.SetResolver(res)
	obj.SetOutput(func(s string) { lines = append(lines, s) })

	if obj.Resolver() != res {
		t.Error("Resolver() mismatch")
	}
	// Policy took effect: strangers now pass.
	if _, err := obj.Get(stranger(), "name"); err != nil {
		t.Errorf("get with wired policy: %v", err)
	}
	// Auditor records.
	if len(aud.Events()) == 0 {
		t.Error("auditor silent")
	}
	// Output sink reachable from scripts.
	if _, err := obj.InvokeSelf("addMethod", value.NewString("say"),
		value.NewString(`fn() { ctx.log("from", ctx.site()); return null; }`)); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.InvokeSelf("say"); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0] != "from wired" {
		t.Errorf("lines = %v", lines)
	}
}

// TestItemDescriptorAccessors exercises the Go-level views of items used
// by tooling (handles, properties).
func TestItemDescriptorAccessors(t *testing.T) {
	acl := security.NewACL(security.AllowAll())
	b := NewBuilder(gen, "Views", WithPolicy(allowAllPolicy()))
	b.FixedData("d", value.NewInt(1), WithACL(acl), WithDynKind(value.KindInt))
	pre := mustScript(t, `fn() { return true; }`)
	post := mustScript(t, `fn() { return true; }`)
	b.FixedScriptMethod("m", `fn() { return 1; }`, WithPre(pre), WithPost(post), Hidden())
	obj := b.MustBuild()

	obj.mu.Lock()
	d, _ := obj.lookupData("d")
	m, _ := obj.lookupMethod("m")
	obj.mu.Unlock()

	if d.Name() != "d" || !d.Fixed() || !d.Visible() || d.DynKind() != value.KindInt {
		t.Errorf("data accessors: %+v", d)
	}
	if v, _ := d.Value().Int(); v != 1 {
		t.Errorf("Value() = %v", d.Value())
	}
	if d.ACL().Len() != 1 {
		t.Errorf("ACL() len = %d", d.ACL().Len())
	}
	if m.Name() != "m" || !m.Fixed() || m.Visible() {
		t.Errorf("method accessors: %+v", m)
	}
	if m.Body() == nil || m.Pre() == nil || m.Post() == nil {
		t.Error("body accessors nil")
	}
	if m.ACL().Len() != 0 {
		t.Errorf("method ACL len = %d", m.ACL().Len())
	}
	if obj.Registry() != nil {
		t.Error("Registry() should be nil when unset")
	}
}

// TestBodyFromClosure converts interpreter closures into installable
// bodies, enforcing mobility.
func TestBodyFromClosure(t *testing.T) {
	fn, err := mscript.ParseFunction(`fn(a) { return a * 2; }`)
	if err != nil {
		t.Fatal(err)
	}
	body, err := BodyFromClosure(&mscript.Closure{Fn: fn, Env: mscript.NewEnv()})
	if err != nil {
		t.Fatal(err)
	}
	if body.Descriptor().Kind != BodyScript {
		t.Errorf("descriptor = %+v", body.Descriptor())
	}
	// Install and run it.
	obj := testObject(t, WithPolicy(allowAllPolicy()))
	if _, err := obj.InvokeSelf("addMethod", value.NewString("twice"),
		DescriptorToValue(body.Descriptor())); err != nil {
		t.Fatal(err)
	}
	v, err := obj.InvokeSelf("twice", value.NewInt(21))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 42 {
		t.Errorf("twice = %v", v)
	}
	// Non-mobile closures are rejected.
	leaky, err := mscript.ParseFunction(`fn() { return hidden; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BodyFromClosure(&mscript.Closure{Fn: leaky, Env: mscript.NewEnv()}); err == nil {
		t.Error("leaky closure accepted")
	}
}

// TestMaterializeOptionsApply exercises the remaining host-side options.
func TestMaterializeOptionsApply(t *testing.T) {
	bb := NewBuilder(gen, "Opt")
	bb.FixedScriptMethod("double", `fn(x) { return x * 2; }`)
	obj := bb.MustBuild()
	img, err := obj.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pol, aud := allowAllPolicy(), security.NewAuditor(8)
	res := &staticResolver{site: "target", m: map[string]*Object{}}
	var lines []string
	re, err := FromImage(img, nil,
		HostPolicy(pol),
		HostAuditor(aud),
		HostResolver(res),
		HostOutput(func(s string) { lines = append(lines, s) }))
	if err != nil {
		t.Fatal(err)
	}
	if re.Resolver() != res {
		t.Error("resolver not wired")
	}
	re.ArmAudit(aud)
	if _, err := re.Invoke(stranger(), "double", value.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if len(aud.Events()) == 0 {
		t.Error("auditor not wired")
	}
	// An allow reaches the auditor through the armed link; a denial
	// reaches it because HostAuditor attached it.
	re.ArmAudit(nil)
	pol.SetDefault(security.Untrusted, security.Deny)
	if _, err := re.Invoke(stranger(), "double", value.NewInt(1)); !errors.Is(err, security.ErrDenied) || len(aud.Denials()) != 1 {
		t.Errorf("denial %v, %d recorded; want ErrDenied, 1 recorded", err, len(aud.Denials()))
	}
	if _, err := re.InvokeSelf("addMethod", value.NewString("say"),
		value.NewString(`fn() { ctx.log("hi"); return null; }`)); err != nil {
		t.Fatal(err)
	}
	if _, err := re.InvokeSelf("say"); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 {
		t.Errorf("output not wired: %v", lines)
	}
}
