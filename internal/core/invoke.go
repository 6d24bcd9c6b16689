package core

import (
	"fmt"
	"sync"

	"repro/internal/mscript"
	"repro/internal/security"
	"repro/internal/value"
)

// maxReentry bounds nested invocations (self-calls and meta levels) so a
// mis-programmed meta-invoke that restarts the chain cannot loop forever.
const maxReentry = 128

// Invocation is the context of one method execution: who called, on which
// object, at which meta level. Bodies receive it to re-enter the model
// (self-calls, descending the invoke chain, reaching other objects).
//
// An Invocation is valid only for the duration of the call it describes:
// bodies must not retain it after returning (invocation frames are pooled).
// The same holds for the args slice a body receives — it may be a pooled
// scratch buffer; bodies that want to keep arguments must copy the Values
// out (keeping individual Values is fine, keeping the slice is not).
type Invocation struct {
	self   *Object
	caller security.Principal
	method string
	level  int
	depth  int
	chain  *callChain    // admissions to Serialized objects held by this call chain
	argbuf []value.Value // pooled scratch holding this frame's argument copies
}

// Caller returns the requesting principal.
func (inv *Invocation) Caller() security.Principal { return inv.caller }

// Self returns the object being invoked.
func (inv *Invocation) Self() *Object { return inv.self }

// Method returns the name of the executing method.
func (inv *Invocation) Method() string { return inv.method }

// Level returns the meta-invocation level of the executing body: 0 for an
// ordinary method, k for the body of the level-k meta-invoke.
func (inv *Invocation) Level() int { return inv.level }

func (inv *Invocation) budget() mscript.Budget { return inv.self.budget }

func (inv *Invocation) output() func(string) {
	if inv.self.output == nil {
		return nil
	}
	return inv.self.output
}

func (inv *Invocation) selfHandle() mscript.HostObject {
	return &objectHandle{obj: inv.self, caller: inv.self.Principal(), inv: inv}
}

func (inv *Invocation) ctxHandle() mscript.HostObject {
	return &ctxHandle{inv: inv}
}

// Invoke re-enters the full invocation mechanism (from the top of the
// meta-invoke chain) as the executing object. Bodies use it for self-calls.
func (inv *Invocation) Invoke(name string, args ...value.Value) (value.Value, error) {
	child := getInvocation(inv.self, inv.self.Principal(), "", 0, inv.depth+1, inv.chain)
	v, err := inv.self.invokeFrom(child, name, child.captureArgs(args))
	putInvocation(child)
	return v, err
}

// InvokeNext descends one meta level: from the body of the level-k
// meta-invoke it runs level k-1 on the (possibly rewritten) target. At
// level 1 this reaches the primitive level-0 mechanism — the stopping
// condition of the recursion.
func (inv *Invocation) InvokeNext(name string, args ...value.Value) (value.Value, error) {
	if inv.level <= 0 {
		return value.Null, fmt.Errorf("%w: invokeNext outside a meta-invoke body", ErrArity)
	}
	// The original requester flows through the chain as the caller.
	child := getInvocation(inv.self, inv.caller, "", 0, inv.depth+1, inv.chain)
	v, err := inv.self.runLevel(child, inv.level-1, name, child.captureArgs(args))
	putInvocation(child)
	return v, err
}

// InvokeOn invokes a method on another object as the executing object
// (used by bodies that hold references to peers).
func (inv *Invocation) InvokeOn(target *Object, name string, args ...value.Value) (value.Value, error) {
	child := getInvocation(target, inv.self.Principal(), "", 0, inv.depth+1, inv.chain)
	v, err := target.invokeFrom(child, name, child.captureArgs(args))
	putInvocation(child)
	return v, err
}

// invocationPool recycles invocation frames: Invoke is the model's hottest
// path, the context it needs dies with the call, and the scratch buffer
// lets every frame capture its arguments without allocating.
var invocationPool = sync.Pool{
	New: func() any { return &Invocation{argbuf: make([]value.Value, 0, 8)} },
}

// getInvocation takes a frame from the pool and initializes its context
// fields. The argument scratch buffer carries over from the previous use.
func getInvocation(self *Object, caller security.Principal, method string, level, depth int, chain *callChain) *Invocation {
	inv := invocationPool.Get().(*Invocation)
	inv.self, inv.caller, inv.method = self, caller, method
	inv.level, inv.depth, inv.chain = level, depth, chain
	return inv
}

// putInvocation returns a frame to the pool, dropping every reference it
// holds — including the argument copies, so a pooled frame cannot keep
// value payloads alive — while preserving the scratch buffer's capacity.
func putInvocation(inv *Invocation) {
	buf := inv.argbuf
	for i := range buf {
		buf[i] = value.Value{}
	}
	*inv = Invocation{argbuf: buf[:0]}
	invocationPool.Put(inv)
}

// captureArgs copies args into inv's scratch buffer and returns the copy.
// Dispatch entry points pass the copy down the chain so the caller's
// variadic slice never escapes to the heap — the whole argument hand-off
// stays on the caller's stack frame.
func (inv *Invocation) captureArgs(args []value.Value) []value.Value {
	inv.argbuf = append(inv.argbuf[:0], args...)
	return inv.argbuf
}

// Invoke is the public entry of the invocation mechanism. If meta-invoke
// levels are installed the call enters the highest level; otherwise it goes
// straight to level 0 (Lookup → Match → Apply).
func (o *Object) Invoke(caller security.Principal, name string, args ...value.Value) (value.Value, error) {
	return o.invokeChained(caller, nil, name, args)
}

// InvokeWithChain is Invoke under an adopted remote call chain (handed in
// by the site's invoke handler): admissions taken and blocks published
// during the call are attributed to the chain's global identity, so a call
// cycling back to a site re-enters its own admissions, and a cross-site
// blockage becomes a chaseable waits-for edge.
func (o *Object) InvokeWithChain(caller security.Principal, ac *AdoptedChain, name string, args ...value.Value) (value.Value, error) {
	if ac == nil || ac.ch == nil {
		return o.invokeChained(caller, nil, name, args)
	}
	return o.invokeChained(caller, ac.ch, name, args)
}

func (o *Object) invokeChained(caller security.Principal, chain *callChain, name string, args []value.Value) (value.Value, error) {
	// Short circuit for the hottest shape: no meta-invoke levels, no
	// admission gate, no pre/post guards, and the dispatch cache holds both
	// the method snapshot and the Match decision. Equivalent to
	// invokeFrom → dispatchBase → applyMethod, minus three call frames of
	// value copying.
	if o.admission == nil && o.levelCount.Load() == 0 {
		if t, snap := o.fastLookup(name); snap != nil {
			if err := o.decide(t, &snap.itemSnap, caller, security.ActionInvoke); err != nil {
				return value.Null, err
			}
			inv := getInvocation(o, caller, name, 0, 1, chain)
			argv := inv.captureArgs(args)
			var v value.Value
			var err error
			if snap.pre == nil && snap.post == nil {
				v, err = snap.body.Invoke(inv, argv)
				if err != nil {
					v, err = value.Null, fmt.Errorf("method %q: %w", name, err)
				}
			} else {
				v, err = applyMethod(inv, snap, argv)
			}
			putInvocation(inv)
			return v, err
		}
	}

	inv := getInvocation(o, caller, "", 0, 0, chain)
	v, err := o.invokeFrom(inv, name, inv.captureArgs(args))
	// A chain minted inside this call (first serialized admission) dies with
	// it: drop its detector registrations so stale probes naming it dead-end.
	// An adopted chain (chain != nil) outlives the call — its site handler
	// owns the release.
	if chain == nil && inv.chain != nil {
		inv.chain.completeLocal()
	}
	putInvocation(inv)
	return v, err
}

// InvokeSelf invokes as the object itself (owner-side convenience).
func (o *Object) InvokeSelf(name string, args ...value.Value) (value.Value, error) {
	return o.Invoke(o.Principal(), name, args...)
}

// Get reads a data item as caller (sugar for invoking `get`).
func (o *Object) Get(caller security.Principal, name string) (value.Value, error) {
	return o.Invoke(caller, "get", value.NewString(name))
}

// Set writes a data item as caller (sugar for invoking `set`).
func (o *Object) Set(caller security.Principal, name string, v value.Value) error {
	_, err := o.Invoke(caller, "set", value.NewString(name), v)
	return err
}

func (o *Object) invokeFrom(inv *Invocation, name string, args []value.Value) (value.Value, error) {
	if inv.depth > maxReentry {
		return value.Null, fmt.Errorf("%w (depth %d invoking %q)", ErrReentry, inv.depth, name)
	}
	release, err := o.admit(inv, name)
	if err != nil {
		return value.Null, err
	}
	defer release()
	if lc := o.levelCount.Load(); lc != 0 {
		return o.runLevel(inv, int(lc), name, args)
	}
	return o.dispatchBase(inv, name, args)
}

// runLevel executes level k of the invocation mechanism for target method
// name. Level 0 is the primitive dispatch; level k>0 applies the k-th
// meta-invoke method, whose body receives (name, args-as-list) — exactly
// the argument passing of the paper's Figure 1, where Mfoo is sent as a
// parameter to meta_invoke.
func (o *Object) runLevel(inv *Invocation, k int, name string, args []value.Value) (value.Value, error) {
	if inv.depth > maxReentry {
		return value.Null, fmt.Errorf("%w (depth %d at level %d)", ErrReentry, inv.depth, k)
	}
	if k == 0 {
		return o.dispatchBase(inv, name, args)
	}
	// The chain comes from the current generation's table, like the policy
	// and auditor the decision below is made and recorded with; the chain
	// may have shrunk since the caller read its depth.
	t := o.currentTable()
	if k > len(t.levels) {
		k = len(t.levels)
		if k == 0 {
			return o.dispatchBase(inv, name, args)
		}
	}
	meta := t.levels[k-1]

	// The meta-invoke is itself a method: Match applies to it, with the
	// original requester as the checked principal. Self-containment makes
	// the object's own descent free.
	if err := o.decide(t, &meta.itemSnap, inv.caller, security.ActionInvoke); err != nil {
		return value.Null, err
	}

	// The args list handed to the meta body must own its storage: args may
	// be a pooled scratch buffer, and the body is free to keep the list.
	// The two-element argument vector itself lives in the frame's scratch.
	argCopy := make([]value.Value, len(args))
	copy(argCopy, args)
	metaInv := getInvocation(o, inv.caller, meta.Name, k, inv.depth+1, inv.chain)
	metaInv.argbuf = append(metaInv.argbuf[:0], value.NewString(name), value.NewList(argCopy))
	v, err := applyMethod(metaInv, meta, metaInv.argbuf)
	putInvocation(metaInv)
	return v, err
}

// dispatchBase is the non-reflective level-0 invocation mechanism:
//
//  1. Lookup — locate and fetch the method.
//  2. Match  — match security information (ACL, policy, encapsulation).
//  3. Apply  — pre-proc, body, post-proc.
func (o *Object) dispatchBase(inv *Invocation, name string, args []value.Value) (value.Value, error) {
	// Fast path: Lookup and Match both served from the dispatch cache. inv
	// is reused as the body invocation — every dispatchBase caller hands
	// over a child (or entry) Invocation it never touches again, so
	// rewriting it in place saves an allocation per call.
	if t, snap := o.fastLookup(name); snap != nil {
		if err := o.decide(t, &snap.itemSnap, inv.caller, security.ActionInvoke); err != nil {
			return value.Null, err
		}
		inv.method = name
		inv.level = 0
		inv.depth++
		return applyMethod(inv, snap, args)
	}

	// Phase 1: Lookup. A caller new to this method misses only the decision:
	// the snapshot another caller published is reused, not replaced, so a
	// warm neighbor keeps the very entry it is running on.
	o.mu.Lock()
	m, ok := o.lookupMethod(name)
	if !ok {
		o.mu.Unlock()
		return value.Null, fmt.Errorf("%w: method %q", ErrNotFound, name)
	}
	t := o.tableLocked()
	snap := t.snapLocked(m)
	o.mu.Unlock()

	// Phase 2: Match, on the snapshot Apply will run.
	if err := o.decide(t, &snap.itemSnap, inv.caller, security.ActionInvoke); err != nil {
		return value.Null, err
	}

	// Phase 3: Apply (reusing inv as the body invocation, as above).
	inv.method = name
	inv.level = 0
	inv.depth++
	return applyMethod(inv, snap, args)
}

// applyMethod runs the Apply phase: pre-proc (false prevents the body),
// body, post-proc (false raises ErrPostconditionFailed). The post-procedure
// receives the method arguments plus the body's result appended, enabling
// result assertions.
func applyMethod(inv *Invocation, m *methodSnap, args []value.Value) (value.Value, error) {
	if m.pre != nil {
		ok, err := runGuard(inv, m.pre, args)
		if err != nil {
			return value.Null, fmt.Errorf("pre-procedure of %q: %w", m.Name, err)
		}
		if !ok {
			return value.Null, fmt.Errorf("%w: method %q", ErrPreconditionFailed, m.Name)
		}
	}
	result, err := m.body.Invoke(inv, args)
	if err != nil {
		return value.Null, fmt.Errorf("method %q: %w", m.Name, err)
	}
	if m.post != nil {
		postArgs := make([]value.Value, 0, len(args)+1)
		postArgs = append(postArgs, args...)
		postArgs = append(postArgs, result)
		ok, err := runGuard(inv, m.post, postArgs)
		if err != nil {
			return value.Null, fmt.Errorf("post-procedure of %q: %w", m.Name, err)
		}
		if !ok {
			return value.Null, fmt.Errorf("%w: method %q", ErrPostconditionFailed, m.Name)
		}
	}
	return result, nil
}

// runGuard executes a pre- or post-procedure, coercing its result to bool
// ("both operations always return a boolean value").
func runGuard(inv *Invocation, guard Body, args []value.Value) (bool, error) {
	v, err := guard.Invoke(inv, args)
	if err != nil {
		return false, err
	}
	b, err := value.Coerce(v, value.KindBool)
	if err != nil {
		return false, err
	}
	ok, _ := b.Bool()
	return ok, nil
}
