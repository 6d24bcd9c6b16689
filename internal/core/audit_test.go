package core

// What the audit trail holds: every foreign denial, in the object's
// Auditor, however decide serves it; every foreign allow, in the armed
// link, and nowhere while the link is disarmed; never the object's own
// access.

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/security"
	"repro/internal/value"
)

// servedBy names how decide will serve caller's next call of method name:
// "L1" (the snapshot's last verdict), "recall" (the policy's verdict
// table) or "cold" (a Match).
func servedBy(obj *Object, pol *security.Policy, name string, caller security.Principal) string {
	if pol == nil {
		return "cold"
	}
	if _, s := obj.fastLookup(name); s != nil {
		if v := s.hot.Load(); v != nil && v.Answers(pol, caller, security.ActionInvoke) {
			return "L1"
		}
	}
	obj.mu.Lock()
	m, _ := obj.lookupMethod(name)
	it := security.NewItem(m.acl, m.name, m.visible)
	obj.mu.Unlock()
	if pol.Recall(&it, caller, security.ActionInvoke) != nil {
		return "recall"
	}
	return "cold"
}

// TestAuditEveryDecisionPath pins the trail on every path decide serves a
// decision by — a hidden item, a visible item's ACL and policy default,
// cold, recalled from the policy and from the item's L1, and with no
// policy at all — with the link disarmed and armed: each denial appears
// exactly once per call in the Auditor, each allow exactly once in the
// armed link and nowhere while it is disarmed, and self calls never.
func TestAuditEveryDecisionPath(t *testing.T) {
	granted, banned := callerFor("nowhere"), callerFor("friends")
	callers := []security.Principal{granted, banned, callerFor("friends"), callerFor("nowhere")}
	acl := security.NewACL(security.DenyObject(banned.Object), security.AllowObject(granted.Object))
	echo := NewNativeBody("audit.echo", func(_ *Invocation, args []value.Value) (value.Value, error) {
		return argAt(args, 0), nil
	})
	for _, armed := range []bool{false, true} {
		for _, withPolicy := range []bool{true, false} {
			var pol *security.Policy
			if withPolicy {
				pol = security.NewPolicy()
				pol.GradeDomain("friends", security.Trusted)
			}
			aud, link := security.NewAuditor(256), security.NewAuditor(256)
			b := NewBuilder(gen, "Audited", WithPolicy(pol), WithAuditor(aud))
			b.FixedMethod("acl", echo, WithACL(acl))
			b.FixedMethod("hidden", echo, WithACL(acl), Hidden())
			obj := b.MustBuild()
			if armed {
				obj.ArmAudit(link)
			}
			call := func(c security.Principal, method, path string) {
				t.Helper()
				if got := servedBy(obj, pol, method, c); got != path {
					t.Fatalf("armed %v, policy %v: %s by %v is served %s, want %s", armed, withPolicy, method, c, got, path)
				}
				allowed := c == granted || (method == "acl" && withPolicy && c.Domain == "friends" && c != banned)
				sink, other := aud, link
				if allowed {
					sink, other = link, aud
				}
				before, otherBefore := len(sink.Events()), len(other.Events())
				if _, err := obj.Invoke(c, method, value.NewInt(1)); (err == nil) != allowed {
					t.Fatalf("%s by %v: err %v, want allowed %v", method, c, err, allowed)
				}
				recorded := 1
				if allowed && !armed {
					recorded = 0
				}
				got := sink.Events()
				if len(got) != before+recorded || len(other.Events()) != otherBefore {
					t.Fatalf("armed %v, policy %v, %s path: %s by %v (allowed %v) left %d+%d events, want %d+0",
						armed, withPolicy, path, method, c, allowed, len(got)-before, len(other.Events())-otherBefore, recorded)
				}
				if recorded == 1 {
					if e := got[len(got)-1]; e.Object != obj.ID() || e.Principal != c ||
						e.Action != security.ActionInvoke || e.Item != method || e.Allowed != allowed {
						t.Fatalf("%s by %v recorded %+v", method, c, e)
					}
				}
				if _, err := obj.InvokeSelf(method, value.NewInt(1)); err != nil {
					t.Fatal(err)
				}
				if len(sink.Events()) != len(got) || len(other.Events()) != otherBefore {
					t.Fatalf("a self call of %s was recorded", method)
				}
			}
			for _, method := range []string{"acl", "hidden"} {
				for _, c := range callers {
					call(c, method, "cold")
				}
				for _, c := range callers { // the L1 holds the previous caller's verdict
					recalled, l1 := "recall", "L1"
					if !withPolicy {
						recalled, l1 = "cold", "cold"
					}
					call(c, method, recalled)
					call(c, method, l1)
				}
			}
		}
	}
}

// TestDenialSurvivesArmedAllows: allowed traffic goes to the armed link,
// so however much of it there is, it cannot push a denial out of the
// object's Auditor.
func TestDenialSurvivesArmedAllows(t *testing.T) {
	const capacity = 8
	pol := security.NewPolicy()
	pol.GradeDomain("friends", security.Trusted)
	aud, link := security.NewAuditor(capacity), security.NewAuditor(capacity)
	obj := testObject(t, WithPolicy(pol), WithAuditor(aud))
	obj.ArmAudit(link)
	foe, friend := callerFor("nowhere"), callerFor("friends")
	if _, err := obj.Invoke(foe, "double", value.NewInt(1)); !errors.Is(err, security.ErrDenied) {
		t.Fatalf("foe's call = %v, want ErrDenied", err)
	}
	for i := 0; i < 2*capacity; i++ {
		if _, err := obj.Invoke(friend, "double", value.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	if d := aud.Denials(); len(d) != 1 || d[0].Principal != foe {
		t.Errorf("denials after %d allowed calls = %v, want the foe's one", 2*capacity, d)
	}
	if ev := link.Events(); len(ev) != capacity || !ev[0].Allowed || ev[0].Principal != friend {
		t.Errorf("link holds %v, want the last %d allows", ev, capacity)
	}
}

// TestArmAuditWhileCalling arms and disarms the link while two goroutines
// make warm foreign calls, half of them denied: every denial lands in the
// Auditor once, the link holds allows only, and under -race the link is
// published as the table's policy and auditor are.
func TestArmAuditWhileCalling(t *testing.T) {
	const calls = 2000 // per goroutine
	pol := security.NewPolicy()
	pol.GradeDomain("friends", security.Trusted)
	aud, link := security.NewAuditor(2*calls), security.NewAuditor(2*calls)
	obj := testObject(t, WithPolicy(pol), WithAuditor(aud))
	callers := []security.Principal{callerFor("friends"), callerFor("nowhere"), callerFor("friends"), callerFor("nowhere")}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				c := callers[i%len(callers)]
				if _, err := obj.Invoke(c, "double", value.NewInt(1)); (err == nil) != (c.Domain == "friends") {
					t.Errorf("call by %v: %v", c, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < calls/8; i++ {
			if i%2 == 0 {
				obj.ArmAudit(link)
			} else {
				obj.ArmAudit(nil)
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	if d, all := len(aud.Denials()), len(aud.Events()); d != calls || all != calls {
		t.Errorf("auditor holds %d events, %d denials; want %d denials only", all, d, calls)
	}
	for _, e := range link.Events() {
		if !e.Allowed {
			t.Fatalf("the link recorded a denial: %+v", e)
		}
	}
}
