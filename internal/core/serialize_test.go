package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/value"
)

// TestSerializedObjectHasNoLostUpdates: a read-modify-write script method
// racing across goroutines loses updates on an ordinary object but not on
// a Serialized one.
func TestSerializedObjectHasNoLostUpdates(t *testing.T) {
	build := func(serialized bool) *Object {
		opts := []BuildOption{WithPolicy(allowAllPolicy())}
		if serialized {
			opts = append(opts, Serialized())
		}
		b := NewBuilder(gen, "Counter", opts...)
		b.ExtData("n", value.NewInt(0), WithDynKind(value.KindInt))
		// Deliberately racy read-modify-write across two invocations.
		b.FixedScriptMethod("incr", `fn() {
			let cur = self.get("n");
			self.set("n", cur + 1);
			return null;
		}`)
		return b.MustBuild()
	}

	run := func(obj *Object) int64 {
		const workers, per = 8, 50
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				caller := stranger()
				for i := 0; i < per; i++ {
					if _, err := obj.Invoke(caller, "incr"); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		v, err := obj.Get(obj.Principal(), "n")
		if err != nil {
			t.Fatal(err)
		}
		n, _ := v.Int()
		return n
	}

	serialized := build(true)
	if n := run(serialized); n != 400 {
		t.Errorf("serialized counter = %d, want 400 (no lost updates)", n)
	}
	// The unsynchronized object may or may not lose updates (it is a race
	// by construction); we only assert it is memory-safe and completes.
	_ = run(build(false))
}

// TestSerializedReentrancy: self-calls and meta levels must not deadlock
// a serialized object.
func TestSerializedReentrancy(t *testing.T) {
	b := NewBuilder(gen, "Reentrant", WithPolicy(allowAllPolicy()), Serialized())
	b.ExtData("n", value.NewInt(0), WithDynKind(value.KindInt))
	b.FixedScriptMethod("outer", `fn() { return self.inner() + 1; }`)
	b.FixedScriptMethod("inner", `fn() { return 41; }`)
	obj := b.MustBuild()

	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := obj.Invoke(stranger(), "outer")
		if err != nil {
			t.Error(err)
			return
		}
		if i, _ := v.Int(); i != 42 {
			t.Errorf("outer = %v", v)
		}
	}()
	<-done

	// With a meta-invoke level installed, entry + descent still works.
	if _, err := obj.InvokeSelf("setMethod", value.NewString("invoke"),
		value.NewMap(map[string]value.Value{
			"body": value.NewString(`fn(name, callArgs) { return self.invokeNext(name, callArgs); }`),
		})); err != nil {
		t.Fatal(err)
	}
	v, err := obj.Invoke(stranger(), "outer")
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 42 {
		t.Errorf("outer through meta level = %v", v)
	}
}

// TestSerializedCrossObjectCycle: A→B→A completes because the re-entering
// call belongs to a chain that already holds A's admission.
func TestSerializedCrossObjectCycle(t *testing.T) {
	reg := NewBehaviorRegistry()
	var objA, objB *Object

	reg.Register("cycle.callB", func(inv *Invocation, args []value.Value) (value.Value, error) {
		return inv.InvokeOn(objB, "callA")
	})
	reg.Register("cycle.callA", func(inv *Invocation, args []value.Value) (value.Value, error) {
		return inv.InvokeOn(objA, "leaf")
	})

	ba := NewBuilder(gen, "A", WithPolicy(allowAllPolicy()), WithRegistry(reg), Serialized())
	bodyB, _ := reg.Lookup("cycle.callB")
	ba.FixedMethod("start", bodyB)
	ba.FixedScriptMethod("leaf", `fn() { return "leaf"; }`)
	objA = ba.MustBuild()

	bb := NewBuilder(gen, "B", WithPolicy(allowAllPolicy()), WithRegistry(reg), Serialized())
	bodyA, _ := reg.Lookup("cycle.callA")
	bb.FixedMethod("callA", bodyA)
	objB = bb.MustBuild()

	v, err := objA.Invoke(stranger(), "start")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "leaf" {
		t.Errorf("cycle result = %v", v)
	}
}

// TestSerializedCrossObjectAdmission: a serialized object B reached through
// another object A must still queue — the admission used to be skipped for
// any call with depth > 0, letting two A→B chains interleave inside B's
// bodies. The probe method records enter/exit events; with admission
// enforced, enters and exits strictly alternate.
func TestSerializedCrossObjectAdmission(t *testing.T) {
	reg := NewBehaviorRegistry()
	var objB *Object

	var mu sync.Mutex
	var events []string
	reg.Register("adm.probe", func(_ *Invocation, _ []value.Value) (value.Value, error) {
		mu.Lock()
		events = append(events, "enter")
		mu.Unlock()
		// Widen the race window: without admission both chains sit here.
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		events = append(events, "exit")
		mu.Unlock()
		return value.Null, nil
	})
	reg.Register("adm.callB", func(inv *Invocation, _ []value.Value) (value.Value, error) {
		return inv.InvokeOn(objB, "probe")
	})

	bb := NewBuilder(gen, "B", WithPolicy(allowAllPolicy()), WithRegistry(reg), Serialized())
	probe, _ := reg.Lookup("adm.probe")
	bb.FixedMethod("probe", probe)
	objB = bb.MustBuild()

	ba := NewBuilder(gen, "A", WithPolicy(allowAllPolicy()), WithRegistry(reg))
	callB, _ := reg.Lookup("adm.callB")
	ba.FixedMethod("start", callB)
	objA := ba.MustBuild()

	const chains = 8
	var wg sync.WaitGroup
	for i := 0; i < chains; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := objA.Invoke(stranger(), "start"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if len(events) != 2*chains {
		t.Fatalf("recorded %d events, want %d", len(events), 2*chains)
	}
	for i, e := range events {
		want := "enter"
		if i%2 == 1 {
			want = "exit"
		}
		if e != want {
			t.Fatalf("event %d = %q, want %q — B's bodies interleaved: %v", i, e, want, events)
		}
	}
}

// TestSerializedReentryThroughPlainObject: A(serialized)→B(plain)→A must
// not deadlock — the chain already holds A when it comes back.
func TestSerializedReentryThroughPlainObject(t *testing.T) {
	reg := NewBehaviorRegistry()
	var objA, objB *Object
	reg.Register("reent.callB", func(inv *Invocation, _ []value.Value) (value.Value, error) {
		return inv.InvokeOn(objB, "callA")
	})
	reg.Register("reent.callA", func(inv *Invocation, _ []value.Value) (value.Value, error) {
		return inv.InvokeOn(objA, "leaf")
	})

	ba := NewBuilder(gen, "A", WithPolicy(allowAllPolicy()), WithRegistry(reg), Serialized())
	callB, _ := reg.Lookup("reent.callB")
	ba.FixedMethod("start", callB)
	ba.FixedScriptMethod("leaf", `fn() { return "ok"; }`)
	objA = ba.MustBuild()

	bb := NewBuilder(gen, "B", WithPolicy(allowAllPolicy()), WithRegistry(reg))
	callA, _ := reg.Lookup("reent.callA")
	bb.FixedMethod("callA", callA)
	objB = bb.MustBuild()

	done := make(chan error, 1)
	go func() {
		_, err := objA.Invoke(stranger(), "start")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("A→B→A deadlocked on serialized re-entry")
	}
}

// TestSerializedCrossingChainsReturnErrDeadlock: two chains that hold each
// other's serialized objects and then cross (chain 1: A→B while chain 2:
// B→A) used to block forever. The deadlock detector must fail exactly one of
// them with ErrDeadlock — whose abort lets the other complete — well
// before the admission timeout.
func TestSerializedCrossingChainsReturnErrDeadlock(t *testing.T) {
	reg := NewBehaviorRegistry()
	var objA, objB *Object

	// Both chains rendezvous inside their first body, guaranteeing each
	// holds its own object before crossing into the other's.
	var rendezvous sync.WaitGroup
	rendezvous.Add(2)
	cross := func(target **Object) func(*Invocation, []value.Value) (value.Value, error) {
		return func(inv *Invocation, _ []value.Value) (value.Value, error) {
			rendezvous.Done()
			rendezvous.Wait()
			return inv.InvokeOn(*target, "leaf")
		}
	}
	reg.Register("dl.crossToB", cross(&objB))
	reg.Register("dl.crossToA", cross(&objA))

	build := func(name, behavior string) *Object {
		b := NewBuilder(gen, name, WithPolicy(allowAllPolicy()), WithRegistry(reg),
			Serialized(), AdmissionTimeout(30*time.Second))
		body, _ := reg.Lookup(behavior)
		b.FixedMethod("start", body)
		b.FixedScriptMethod("leaf", `fn() { return "leaf"; }`)
		return b.MustBuild()
	}
	objA = build("DeadA", "dl.crossToB")
	objB = build("DeadB", "dl.crossToA")

	type outcome struct {
		v   value.Value
		err error
	}
	results := make(chan outcome, 2)
	for _, o := range []*Object{objA, objB} {
		go func(o *Object) {
			v, err := o.Invoke(stranger(), "start")
			results <- outcome{v, err}
		}(o)
	}

	var deadlocks, successes int
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			switch {
			case r.err == nil:
				successes++
				if r.v.String() != "leaf" {
					t.Errorf("surviving chain result = %v", r.v)
				}
			case errors.Is(r.err, ErrDeadlock):
				deadlocks++
				msg := r.err.Error()
				// The diagnostic names both objects and both chains.
				for _, want := range []string{"DeadA", "DeadB", "chain#"} {
					if !strings.Contains(msg, want) {
						t.Errorf("deadlock error missing %q: %v", want, r.err)
					}
				}
			default:
				t.Errorf("unexpected error: %v", r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("crossing chains hung: deadlock not detected")
		}
	}
	if deadlocks != 1 || successes != 1 {
		t.Errorf("deadlocks = %d, successes = %d; want exactly one of each", deadlocks, successes)
	}
}

// TestSerializedAdmissionTimeout: an admission that cannot be attributed
// to a cycle (the holder is simply stuck) fails ErrAdmissionTimeout after
// the object's configured bound instead of hanging.
func TestSerializedAdmissionTimeout(t *testing.T) {
	reg := NewBehaviorRegistry()
	block := make(chan struct{})
	entered := make(chan struct{})
	reg.Register("stuck.body", func(*Invocation, []value.Value) (value.Value, error) {
		close(entered)
		<-block
		return value.Null, nil
	})
	b := NewBuilder(gen, "Stuck", WithPolicy(allowAllPolicy()), WithRegistry(reg),
		Serialized(), AdmissionTimeout(50*time.Millisecond))
	body, _ := reg.Lookup("stuck.body")
	b.FixedMethod("hold", body)
	b.FixedScriptMethod("leaf", `fn() { return 1; }`)
	obj := b.MustBuild()

	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		obj.Invoke(stranger(), "hold")
	}()
	<-entered

	start := time.Now()
	_, err := obj.Invoke(stranger(), "leaf")
	if !errors.Is(err, ErrAdmissionTimeout) {
		t.Fatalf("blocked admission error = %v, want ErrAdmissionTimeout", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("timeout took %v, want ≈50ms", waited)
	}
	close(block)
	<-holderDone

	// The object recovers once the holder releases.
	if _, err := obj.Invoke(stranger(), "leaf"); err != nil {
		t.Errorf("post-release invoke: %v", err)
	}
}
