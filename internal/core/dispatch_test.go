package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/security"
	"repro/internal/value"
)

// callerFor returns a fixed external principal (cache hits require the same
// principal on every call, unlike stranger() which mints fresh IDs).
func callerFor(domain string) security.Principal {
	return security.Principal{Object: gen.New(), Domain: domain}
}

// revocableObject builds an object with an extensible method "probe"
// returning a constant, invocable by anyone via an allow-all policy.
func revocableObject(t *testing.T) *Object {
	t.Helper()
	b := NewBuilder(gen, "Revocable", WithPolicy(allowAllPolicy()))
	b.ExtScriptMethod("probe", `fn() { return "v1"; }`)
	b.ExtData("d", value.NewInt(7))
	return b.MustBuild()
}

// TestDispatchCacheServesRepeats: repeat invocations come from the cache
// and still return correct results.
func TestDispatchCacheServesRepeats(t *testing.T) {
	obj := revocableObject(t)
	caller := callerFor("elsewhere")
	for i := 0; i < 10; i++ {
		v, err := obj.Invoke(caller, "probe")
		if err != nil {
			t.Fatal(err)
		}
		if v.String() != "v1" {
			t.Fatalf("call %d = %v", i, v)
		}
	}
}

// TestDispatchCacheInvalidatesOnBodySwap: setMethod replacing the body must
// be visible on the very next invocation.
func TestDispatchCacheInvalidatesOnBodySwap(t *testing.T) {
	obj := revocableObject(t)
	caller := callerFor("elsewhere")
	for i := 0; i < 5; i++ {
		if _, err := obj.Invoke(caller, "probe"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := obj.InvokeSelf("setMethod", value.NewString("probe"),
		value.NewMap(map[string]value.Value{"body": value.NewString(`fn() { return "v2"; }`)})); err != nil {
		t.Fatal(err)
	}
	v, err := obj.Invoke(caller, "probe")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "v2" {
		t.Fatalf("stale body after setMethod: got %v, want v2", v)
	}
}

// TestDispatchCacheRevokeDeniedNextCall is the mutate-mid-stream
// acceptance test: after many cached allows, an ACL revoke must deny the
// very next invocation by the revoked principal.
func TestDispatchCacheRevokeDeniedNextCall(t *testing.T) {
	obj := revocableObject(t)
	caller := callerFor("elsewhere")
	for i := 0; i < 100; i++ {
		if _, err := obj.Invoke(caller, "probe"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := obj.InvokeSelf("setMethod", value.NewString("probe"),
		value.NewMap(map[string]value.Value{"aclDeny": value.NewString("domain:elsewhere")})); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Invoke(caller, "probe"); !errors.Is(err, security.ErrDenied) {
		t.Fatalf("stale allow after revoke: err = %v, want ErrDenied", err)
	}
}

// TestDispatchCacheDataRevoke: same guarantee for the data-access decision
// cache — a get that was repeatedly allowed is denied right after the
// item's ACL revokes the caller.
func TestDispatchCacheDataRevoke(t *testing.T) {
	obj := revocableObject(t)
	caller := callerFor("elsewhere")
	for i := 0; i < 100; i++ {
		if _, err := obj.Get(caller, "d"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := obj.InvokeSelf("setDataItem", value.NewString("d"),
		value.NewMap(map[string]value.Value{"aclDeny": value.NewString("domain:elsewhere")})); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Get(caller, "d"); !errors.Is(err, security.ErrDenied) {
		t.Fatalf("stale allow on data item after revoke: err = %v, want ErrDenied", err)
	}
}

// TestDispatchCachePolicyFlip: a decision that fell through to the site
// policy must be re-evaluated after the policy changes — even though the
// object itself was not touched.
func TestDispatchCachePolicyFlip(t *testing.T) {
	pol := security.NewPolicy()
	pol.SetDefault(security.Untrusted, security.Allow)
	b := NewBuilder(gen, "PolicyGoverned", WithPolicy(pol))
	b.ExtScriptMethod("probe", `fn() { return 1; }`)
	obj := b.MustBuild()

	caller := callerFor("untrusted.zone")
	for i := 0; i < 50; i++ {
		if _, err := obj.Invoke(caller, "probe"); err != nil {
			t.Fatal(err)
		}
	}
	pol.SetDefault(security.Untrusted, security.Deny)
	if _, err := obj.Invoke(caller, "probe"); !errors.Is(err, security.ErrDenied) {
		t.Fatalf("stale allow after policy flip: err = %v, want ErrDenied", err)
	}
	// Flip back: the caller is admitted again (no stale deny either).
	pol.SetDefault(security.Untrusted, security.Allow)
	if _, err := obj.Invoke(caller, "probe"); err != nil {
		t.Fatalf("stale deny after policy restore: %v", err)
	}
}

// TestDispatchCacheDeleteMethod: a cached method must vanish on the very
// next call after deleteMethod.
func TestDispatchCacheDeleteMethod(t *testing.T) {
	obj := revocableObject(t)
	caller := callerFor("elsewhere")
	for i := 0; i < 5; i++ {
		if _, err := obj.Invoke(caller, "probe"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := obj.InvokeSelf("deleteMethod", value.NewString("probe")); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Invoke(caller, "probe"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale method after delete: err = %v, want ErrNotFound", err)
	}
}

// TestFlushDispatchCache: manual flush keeps the object fully functional
// (the cold path simply refills).
func TestFlushDispatchCache(t *testing.T) {
	obj := revocableObject(t)
	caller := callerFor("elsewhere")
	for i := 0; i < 5; i++ {
		obj.FlushDispatchCache()
		v, err := obj.Invoke(caller, "probe")
		if err != nil {
			t.Fatal(err)
		}
		if v.String() != "v1" {
			t.Fatalf("flushed call = %v", v)
		}
	}
}

// TestDispatchCacheConcurrentRevoke races parallel invokers against an ACL
// revoke. Protocol: the mutator revokes, then sets the flag; any invoker
// that reads the flag as set *before* calling must be denied — observing an
// allow after that point is a stale cached decision.
func TestDispatchCacheConcurrentRevoke(t *testing.T) {
	obj := revocableObject(t)
	var revoked atomic.Bool
	var wg sync.WaitGroup

	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			caller := callerFor("elsewhere")
			for i := 0; i < 2000; i++ {
				sawRevoked := revoked.Load()
				_, err := obj.Invoke(caller, "probe")
				if sawRevoked {
					if !errors.Is(err, security.ErrDenied) {
						t.Errorf("worker %d: stale allow after revoke returned (err=%v)", w, err)
						return
					}
				} else if err != nil && !errors.Is(err, security.ErrDenied) {
					// Mid-revoke calls may see either decision, but never
					// another failure mode.
					t.Errorf("worker %d: unexpected error %v", w, err)
					return
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := obj.InvokeSelf("setMethod", value.NewString("probe"),
			value.NewMap(map[string]value.Value{"aclDeny": value.NewString("domain:elsewhere")})); err != nil {
			t.Error(err)
			return
		}
		revoked.Store(true)
	}()
	wg.Wait()
}

// TestDispatchCacheConcurrentBodySwap races parallel invokers against a
// setMethod body replacement: once the swap has returned (flag set), no
// invoker may observe the old body's result.
func TestDispatchCacheConcurrentBodySwap(t *testing.T) {
	obj := revocableObject(t)
	var swapped atomic.Bool
	var wg sync.WaitGroup

	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			caller := callerFor("elsewhere")
			for i := 0; i < 2000; i++ {
				sawSwapped := swapped.Load()
				v, err := obj.Invoke(caller, "probe")
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if sawSwapped && v.String() != "v2" {
					t.Errorf("worker %d: stale body result %v after swap returned", w, v)
					return
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := obj.InvokeSelf("setMethod", value.NewString("probe"),
			value.NewMap(map[string]value.Value{"body": value.NewString(`fn() { return "v2"; }`)})); err != nil {
			t.Error(err)
			return
		}
		swapped.Store(true)
	}()
	wg.Wait()
}

// TestDispatchCacheConcurrentPolicyMutation races invokers against policy
// default flips; after the final flip to Deny returns, the next call by
// every worker must be denied.
func TestDispatchCacheConcurrentPolicyMutation(t *testing.T) {
	pol := security.NewPolicy()
	pol.SetDefault(security.Untrusted, security.Allow)
	b := NewBuilder(gen, "PolicyRace", WithPolicy(pol))
	b.ExtScriptMethod("probe", `fn() { return 1; }`)
	obj := b.MustBuild()

	var denied atomic.Bool
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			caller := callerFor("untrusted.zone")
			for i := 0; i < 2000; i++ {
				sawDenied := denied.Load()
				_, err := obj.Invoke(caller, "probe")
				if sawDenied && !errors.Is(err, security.ErrDenied) {
					t.Errorf("worker %d: stale policy allow (err=%v)", w, err)
					return
				}
				if err != nil && !errors.Is(err, security.ErrDenied) {
					t.Errorf("worker %d: unexpected error %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			pol.SetDefault(security.Untrusted, security.Deny)
			pol.SetDefault(security.Untrusted, security.Allow)
		}
		pol.SetDefault(security.Untrusted, security.Deny)
		denied.Store(true)
	}()
	wg.Wait()
}

// TestSelfInvocationAuditIsTemperatureIndependent: self access is not
// audited anywhere — not by Match, and not by a cache hit either, so the
// trail of an object calling itself is the same cold and warm.
func TestSelfInvocationAuditIsTemperatureIndependent(t *testing.T) {
	aud := security.NewAuditor(64)
	b := NewBuilder(gen, "SelfAudited", WithPolicy(allowAllPolicy()), WithAuditor(aud))
	b.ExtData("n", value.NewInt(0))
	b.ExtScriptMethod("work", `fn() { self.n = self.n + 1; return self.n; }`)
	obj := b.MustBuild()
	obj.ArmAudit(aud)
	for call := 1; call <= 4; call++ {
		if _, err := obj.InvokeSelf("work"); err != nil {
			t.Fatal(err)
		}
		if got := aud.Events(); len(got) != 0 {
			t.Fatalf("after %d self calls the auditor holds %d events, want 0: %v", call, len(got), got)
		}
	}
	// A stranger's calls are recorded once each, cold and warm alike.
	caller := callerFor("elsewhere")
	for call := 1; call <= 4; call++ {
		if _, err := obj.Invoke(caller, "work"); err != nil {
			t.Fatal(err)
		}
		if got := len(aud.Events()); got != call {
			t.Fatalf("after %d stranger calls the auditor holds %d events, want %d", call, got, call)
		}
	}
}
