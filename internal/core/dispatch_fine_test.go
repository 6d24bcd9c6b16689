package core

// Tests for the per-entry granularity of dispatch-cache invalidation:
// editing one item must be observed on the very next call (freshness) while
// leaving cached entries for every other item untouched (warmth). Warmth is
// asserted white-box — the neighbor's snapshot pointer survives the edit —
// and via structGen, which per-item edits must not advance.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/security"
	"repro/internal/value"
)

// neighborObject builds an object with two ext methods and two ext data
// items, invocable by anyone via an allow-all policy.
func neighborObject(t *testing.T) *Object {
	t.Helper()
	b := NewBuilder(gen, "Neighbors", WithPolicy(allowAllPolicy()))
	b.ExtScriptMethod("a", `fn() { return "a1"; }`)
	b.ExtScriptMethod("b", `fn() { return "b1"; }`)
	b.ExtData("x", value.NewInt(1))
	b.ExtData("y", value.NewInt(2))
	return b.MustBuild()
}

// cachedMethodSnap reads the snapshot the table holds for name, if any.
func cachedMethodSnap(o *Object, name string) *methodSnap {
	t := o.cache.tables.Load()
	if t == nil || t.gen != o.structGen.Load() {
		return nil
	}
	return t.method(name)
}

// cachedDataSnap reads the snapshot the table holds for data item name, if any.
func cachedDataSnap(o *Object, name string) *itemSnap {
	t := o.cache.tables.Load()
	if t == nil || t.gen != o.structGen.Load() {
		return nil
	}
	return t.data(name)
}

// TestPerItemInvalidationKeepsMethodNeighborsWarm: editing method "a" must
// be visible immediately, while the cached snapshot for "b" survives the
// edit — and the object's structural generation does not move.
func TestPerItemInvalidationKeepsMethodNeighborsWarm(t *testing.T) {
	obj := neighborObject(t)
	caller := callerFor("elsewhere")
	for i := 0; i < 10; i++ {
		if _, err := obj.Invoke(caller, "a"); err != nil {
			t.Fatal(err)
		}
		if _, err := obj.Invoke(caller, "b"); err != nil {
			t.Fatal(err)
		}
	}
	snapB := cachedMethodSnap(obj, "b")
	if snapB == nil {
		t.Fatal("no cached snapshot for b after warming")
	}
	sg := obj.structGen.Load()

	if _, err := obj.InvokeSelf("setMethod", value.NewString("a"),
		value.NewMap(map[string]value.Value{"body": value.NewString(`fn() { return "a2"; }`)})); err != nil {
		t.Fatal(err)
	}

	if got := obj.structGen.Load(); got != sg {
		t.Errorf("structGen moved on a per-item edit: %d -> %d", sg, got)
	}
	v, err := obj.Invoke(caller, "a")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "a2" {
		t.Errorf("stale body for edited method: got %v, want a2", v)
	}
	if got := cachedMethodSnap(obj, "b"); got != snapB {
		t.Errorf("neighbor b's snapshot was evicted by an edit of a")
	} else if !got.fresh() {
		t.Errorf("neighbor b's snapshot went stale without an edit")
	}
	if v, err := obj.Invoke(caller, "b"); err != nil || v.String() != "b1" {
		t.Errorf("neighbor b = (%v, %v), want b1", v, err)
	}
}

// TestPerItemInvalidationKeepsDataNeighborsWarm: revoking access to data
// item "y" denies the next get on y, while x's snapshot and the verdict it
// serves stay in place.
func TestPerItemInvalidationKeepsDataNeighborsWarm(t *testing.T) {
	obj := neighborObject(t)
	caller := callerFor("elsewhere")
	for i := 0; i < 10; i++ {
		if _, err := obj.Get(caller, "x"); err != nil {
			t.Fatal(err)
		}
		if _, err := obj.Get(caller, "y"); err != nil {
			t.Fatal(err)
		}
	}
	sg := obj.structGen.Load()
	entX := cachedDataSnap(obj, "x")
	if entX == nil || entX.hot.Load() == nil {
		t.Fatal("no cached snapshot and verdict for x after warming")
	}
	verdictX := entX.hot.Load()

	if _, err := obj.InvokeSelf("setDataItem", value.NewString("y"),
		value.NewMap(map[string]value.Value{"aclDeny": value.NewString("domain:elsewhere")})); err != nil {
		t.Fatal(err)
	}

	if got := obj.structGen.Load(); got != sg {
		t.Errorf("structGen moved on a per-item edit: %d -> %d", sg, got)
	}
	if _, err := obj.Get(caller, "y"); !errors.Is(err, security.ErrDenied) {
		t.Errorf("stale allow on y after revoke: err = %v, want ErrDenied", err)
	}
	got := cachedDataSnap(obj, "x")
	if got != entX || got.hot.Load() != verdictX {
		t.Errorf("neighbor x's snapshot or verdict was evicted by an edit of y")
	} else if !got.fresh() {
		t.Errorf("neighbor x's snapshot went stale without an edit")
	}
	if v, err := obj.Get(caller, "x"); err != nil || !v.Equal(value.NewInt(1)) {
		t.Errorf("neighbor x = (%v, %v), want 1", v, err)
	}
}

// TestDispatchCacheConcurrentNeighborEdit races readers of method "b" and
// data item "x" against a mutator that keeps editing method "a" and data
// item "y". The neighbors must never miss a beat, and their cached entries
// must survive the whole storm.
func TestDispatchCacheConcurrentNeighborEdit(t *testing.T) {
	obj := neighborObject(t)
	warm := callerFor("elsewhere")
	for i := 0; i < 5; i++ {
		if _, err := obj.Invoke(warm, "b"); err != nil {
			t.Fatal(err)
		}
		if _, err := obj.Get(warm, "x"); err != nil {
			t.Fatal(err)
		}
	}
	snapB := cachedMethodSnap(obj, "b")
	if snapB == nil {
		t.Fatal("no cached snapshot for b after warming")
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			caller := callerFor("elsewhere")
			for !stop.Load() {
				if v, err := obj.Invoke(caller, "b"); err != nil || v.String() != "b1" {
					t.Errorf("worker %d: b = (%v, %v)", w, v, err)
					return
				}
				if v, err := obj.Get(caller, "x"); err != nil || !v.Equal(value.NewInt(1)) {
					t.Errorf("worker %d: x = (%v, %v)", w, v, err)
					return
				}
			}
		}(w)
	}

	bodies := []string{`fn() { return "a2"; }`, `fn() { return "a3"; }`}
	for i := 0; i < 100; i++ {
		if _, err := obj.InvokeSelf("setMethod", value.NewString("a"),
			value.NewMap(map[string]value.Value{"body": value.NewString(bodies[i%2])})); err != nil {
			t.Error(err)
			break
		}
		if _, err := obj.InvokeSelf("setDataItem", value.NewString("y"),
			value.NewMap(map[string]value.Value{"visible": value.NewBool(i%2 == 0)})); err != nil {
			t.Error(err)
			break
		}
		if _, err := obj.Invoke(warm, "a"); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()

	if got := cachedMethodSnap(obj, "b"); got != snapB {
		t.Errorf("neighbor b's snapshot was evicted during the edit storm")
	} else if !got.fresh() {
		t.Errorf("neighbor b's snapshot went stale during the edit storm")
	}
}

// TestDispatchCacheContendedRotation races many distinct callers over the
// lock-free table read path while a mutator keeps rotating the table (cache
// flush bumps structGen) and editing a method. Readers must always see
// correct outcomes — never a stale body, a denied allow, or a torn table —
// and the cache must still converge to a warm state after the storm.
// Run under -race this pins the memory-safety of the atomic table swap.
func TestDispatchCacheContendedRotation(t *testing.T) {
	obj := neighborObject(t)
	var stop atomic.Bool
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Distinct principals: each worker owns its own caller × method
			// entries, so the table serves many keys at once.
			caller := callerFor("elsewhere")
			for !stop.Load() {
				if v, err := obj.Invoke(caller, "b"); err != nil || v.String() != "b1" {
					t.Errorf("worker %d: b = (%v, %v)", w, v, err)
					return
				}
				// "a" is being rewritten concurrently; any of its bodies is
				// fine, an error is not.
				if _, err := obj.Invoke(caller, "a"); err != nil {
					t.Errorf("worker %d: a: %v", w, err)
					return
				}
				if v, err := obj.Get(caller, "x"); err != nil || !v.Equal(value.NewInt(1)) {
					t.Errorf("worker %d: x = (%v, %v)", w, v, err)
					return
				}
			}
		}(w)
	}

	bodies := []string{`fn() { return "a2"; }`, `fn() { return "a3"; }`}
	for i := 0; i < 200; i++ {
		obj.FlushDispatchCache() // forces a table rotation under the readers
		if _, err := obj.InvokeSelf("setMethod", value.NewString("a"),
			value.NewMap(map[string]value.Value{"body": value.NewString(bodies[i%2])})); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()

	// The cache must re-warm after the churn: two calls fill, then the
	// entry is served and survives.
	caller := callerFor("elsewhere")
	for i := 0; i < 3; i++ {
		if v, err := obj.Invoke(caller, "b"); err != nil || v.String() != "b1" {
			t.Fatalf("post-storm b = (%v, %v)", v, err)
		}
	}
	if snap := cachedMethodSnap(obj, "b"); snap == nil {
		t.Error("cache did not re-warm after rotation storm")
	} else if !snap.fresh() {
		t.Error("re-warmed snapshot for b is stale")
	}
}

// TestLevelCacheObservesHandleEdit: the cached meta-invoke chain must pick
// up an edit of a level method made through its getMethod handle on the
// very next call.
func TestLevelCacheObservesHandleEdit(t *testing.T) {
	obj := revocableObject(t)
	caller := callerFor("elsewhere")
	// The meta body rewrites only "probe" results: the test's own meta
	// calls (getMethod/setMethod) descend the chain too and must pass
	// through untouched.
	if _, err := obj.InvokeSelf("setMethod", value.NewString("invoke"),
		value.NewMap(map[string]value.Value{
			"body": value.NewString(`fn(name, args) {
				if name == "probe" { return "L1:" + self.invokeNext(name, args); }
				return self.invokeNext(name, args);
			}`),
		})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		v, err := obj.Invoke(caller, "probe")
		if err != nil {
			t.Fatal(err)
		}
		if v.String() != "L1:v1" {
			t.Fatalf("call %d = %v, want L1:v1", i, v)
		}
	}

	desc, err := obj.InvokeSelf("getMethod", value.NewString("invoke"))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := desc.Map()
	handle := m["handle"].String()
	if _, err := obj.InvokeSelf("setMethod", value.NewString(handle),
		value.NewMap(map[string]value.Value{
			"body": value.NewString(`fn(name, args) {
				if name == "probe" { return "L2:" + self.invokeNext(name, args); }
				return self.invokeNext(name, args);
			}`),
		})); err != nil {
		t.Fatal(err)
	}

	v, err := obj.Invoke(caller, "probe")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "L2:v1" {
		t.Errorf("stale level body after handle edit: got %v, want L2:v1", v)
	}
}

// TestLevelCachePushPopObserved: installing and removing meta-invoke levels
// must be visible on the next call (the level cache revalidates against the
// structural generation).
func TestLevelCachePushPopObserved(t *testing.T) {
	obj := revocableObject(t)
	caller := callerFor("elsewhere")
	for i := 0; i < 5; i++ {
		if v, err := obj.Invoke(caller, "probe"); err != nil || v.String() != "v1" {
			t.Fatalf("plain call = (%v, %v)", v, err)
		}
	}
	if _, err := obj.InvokeSelf("setMethod", value.NewString("invoke"),
		value.NewMap(map[string]value.Value{
			"body": value.NewString(`fn(name, args) { return "meta:" + self.invokeNext(name, args); }`),
		})); err != nil {
		t.Fatal(err)
	}
	if v, err := obj.Invoke(caller, "probe"); err != nil || v.String() != "meta:v1" {
		t.Fatalf("after push = (%v, %v), want meta:v1", v, err)
	}
	if _, err := obj.InvokeSelf("deleteMethod", value.NewString("invoke")); err != nil {
		t.Fatal(err)
	}
	if v, err := obj.Invoke(caller, "probe"); err != nil || v.String() != "v1" {
		t.Fatalf("after pop = (%v, %v), want v1", v, err)
	}
}

// TestSharedACLVerdicts: two objects on one policy whose items carry one
// ACL ask one question, so one verdict serves both. Editing the ACL of one
// retires the verdict for it alone: the other keeps being served the very
// same verdict, and the edited one is decided afresh.
func TestSharedACLVerdicts(t *testing.T) {
	pol := security.NewPolicy()
	caller := callerFor("elsewhere") // untrusted: only the ACL lets it in
	guard := security.NewACL(security.DenyObject(gen.New()), security.AllowDomain("elsewhere"))
	echo := NewNativeBody("shared.echo", func(_ *Invocation, args []value.Value) (value.Value, error) {
		return argAt(args, 0), nil
	})
	build := func() *Object {
		b := NewBuilder(gen, "Sharer", WithPolicy(pol))
		b.ExtMethod("guarded", echo, WithACL(guard))
		return b.MustBuild()
	}
	edited, kept := build(), build()
	for _, o := range []*Object{edited, kept} {
		if _, err := o.Invoke(caller, "guarded"); err != nil {
			t.Fatal(err)
		}
	}
	item := security.NewItem(guard, "guarded", true)
	shared := pol.Recall(&item, caller, security.ActionInvoke)
	if shared == nil || pol.Verdicts() != 1 {
		t.Fatalf("after the same question from two objects: recalled %v, %d verdicts; want one", shared, pol.Verdicts())
	}
	if cachedMethodSnap(edited, "guarded").hot.Load() != shared || cachedMethodSnap(kept, "guarded").hot.Load() != shared {
		t.Fatal("the two objects do not serve the one remembered verdict")
	}

	if _, err := edited.InvokeSelf("setMethod", value.NewString("guarded"),
		value.NewMap(map[string]value.Value{"aclDeny": value.NewString("domain:elsewhere")})); err != nil {
		t.Fatal(err)
	}
	if _, err := edited.Invoke(caller, "guarded"); !errors.Is(err, security.ErrDenied) {
		t.Errorf("edited object after the revoke: %v, want ErrDenied", err)
	}
	if _, err := kept.Invoke(caller, "guarded"); err != nil {
		t.Errorf("the other object after the edit: %v", err)
	}
	if pol.Recall(&item, caller, security.ActionInvoke) != shared || cachedMethodSnap(kept, "guarded").hot.Load() != shared {
		t.Error("the other object's verdict did not survive the edit")
	}
	if got := cachedMethodSnap(edited, "guarded").hot.Load(); got == shared || got == nil || got.Err == nil {
		t.Errorf("the edited object serves %v, want a verdict of its own denying the call", got)
	}
}
