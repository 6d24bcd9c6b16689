package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/mscript"
	"repro/internal/value"
)

// NativeFunc is the Go signature of a native method body. Per the paper's
// weak-typing rule, bodies "receive an arbitrary number of untyped objects
// as parameters … realized by passing an array of … objects as a single
// parameter".
type NativeFunc func(inv *Invocation, args []value.Value) (value.Value, error)

// BodyKind discriminates body representations.
type BodyKind uint8

// Body kinds.
const (
	// BodyNative is a compiled-in Go function, identified across sites by
	// its registry name. This substitutes for Java's "both sites share the
	// class" case: the code does not travel, only its name does.
	BodyNative BodyKind = iota + 1
	// BodyScript is an MScript function; its source travels with the
	// object, making the method genuinely mobile.
	BodyScript
)

// String returns the kind name used on the wire.
func (k BodyKind) String() string {
	switch k {
	case BodyNative:
		return "native"
	case BodyScript:
		return "script"
	default:
		return fmt.Sprintf("bodykind(%d)", uint8(k))
	}
}

// BodyDescriptor is the serializable identity of a body: a registry name
// for natives, source text for scripts.
type BodyDescriptor struct {
	Kind   BodyKind
	Name   string // BodyNative: registry name
	Source string // BodyScript: canonical source of the fn literal
}

// Body is an invocable method component: the main body, or a pre- or
// post-procedure.
type Body interface {
	// Invoke runs the body under an invocation context.
	Invoke(inv *Invocation, args []value.Value) (value.Value, error)
	// Descriptor returns the serializable identity of the body.
	Descriptor() BodyDescriptor
}

// nativeBody wraps a registered Go function.
type nativeBody struct {
	name string
	fn   NativeFunc
}

var _ Body = (*nativeBody)(nil)

func (b *nativeBody) Invoke(inv *Invocation, args []value.Value) (value.Value, error) {
	return b.fn(inv, args)
}

func (b *nativeBody) Descriptor() BodyDescriptor {
	return BodyDescriptor{Kind: BodyNative, Name: b.name}
}

// scriptBody wraps a parsed MScript function.
type scriptBody struct {
	fn  *mscript.FnLit
	src string // canonical source, computed once
}

var _ Body = (*scriptBody)(nil)

// scriptCache memoizes parsed, mobility-checked function literals by
// source text. An agent image re-materializes its script methods at every
// hop, and an itinerary replays the same few bodies over and over — the
// cache turns re-landing into a lookup instead of a lex+parse+resolve.
// Sharing the parsed literal is safe because a scriptBody already serves
// every concurrent invocation from one *FnLit: ParseFunction finishes
// resolving it before returning and the interpreter never writes to a
// parsed function. A full cache is swapped for an empty one, so a peer
// that lands scriptCacheCap distinct bodies costs the process one round of
// re-parsing, and a site's steady working set of mobile bodies refills it
// at once.
var scriptCache atomic.Pointer[scriptCacheGen]

func init() { scriptCache.Store(new(scriptCacheGen)) }

const scriptCacheCap = 1024

// scriptCacheGen is one generation of the cache: source string →
// *scriptCacheEntry, and how many entries it holds.
type scriptCacheGen struct {
	m    sync.Map
	size atomic.Int64
}

type scriptCacheEntry struct {
	fn    *mscript.FnLit
	canon string // canonical source, computed once at parse
}

// NewScriptBody parses src as a function literal and verifies it is mobile
// (self-contained up to the host bindings self/args/ctx).
func NewScriptBody(src string) (Body, error) {
	gen := scriptCache.Load()
	if e, ok := gen.m.Load(src); ok {
		ent := e.(*scriptCacheEntry)
		return &scriptBody{fn: ent.fn, src: ent.canon}, nil
	}
	fn, err := mscript.ParseFunction(src)
	if err != nil {
		return nil, fmt.Errorf("script body: %w", err)
	}
	if err := mscript.CheckMobile(fn); err != nil {
		return nil, fmt.Errorf("script body: %w", err)
	}
	canon := (&mscript.Closure{Fn: fn}).Source()
	if gen.size.Load() >= scriptCacheCap {
		scriptCache.CompareAndSwap(gen, new(scriptCacheGen)) // a racing swap won: use its generation
		gen = scriptCache.Load()
	}
	if _, loaded := gen.m.LoadOrStore(src, &scriptCacheEntry{fn: fn, canon: canon}); !loaded {
		gen.size.Add(1)
	}
	return &scriptBody{fn: fn, src: canon}, nil
}

// BodyFromClosure converts an interpreter closure (e.g. a fn literal a
// script passed to addMethod) into a script body, enforcing mobility. The
// literal was resolved inside the program that made it, so the body is
// built from its source, exactly as it will be wherever it travels.
func BodyFromClosure(c *mscript.Closure) (Body, error) {
	return NewScriptBody(c.Source())
}

// interpPool recycles interpreters, and with them the stack a script's
// frames and argument vectors live on.
var interpPool = sync.Pool{New: func() any { return mscript.NewInterp() }}

func (b *scriptBody) Invoke(inv *Invocation, args []value.Value) (value.Value, error) {
	interp := interpPool.Get().(*mscript.Interp)
	interp.Reset(inv.budget(), inv.output())
	// Host bindings: the standard scope re-created at every site, each
	// built only for a body that mentions it.
	env := mscript.NewEnv()
	if b.fn.Mentions("self") {
		env.Define("self", mscript.FromObject(inv.selfHandle()))
	}
	if b.fn.Mentions("args") {
		env.Define("args", mscript.FromValue(value.NewList(append([]value.Value(nil), args...))))
	}
	if b.fn.Mentions("ctx") {
		env.Define("ctx", mscript.FromObject(inv.ctxHandle()))
	}
	var buf [4]mscript.Val
	callArgs := buf[:0]
	for _, a := range args {
		callArgs = append(callArgs, mscript.FromValue(a))
	}
	out, err := interp.CallClosure(&mscript.Closure{Fn: b.fn, Env: env}, callArgs)
	interp.Reset(mscript.Budget{}, nil) // drop the sink before pooling
	interpPool.Put(interp)
	if err != nil {
		return value.Null, err
	}
	if c, ok := out.Closure(); ok {
		// A script body may return a function literal (e.g. to hand a new
		// body to setMethod at a meta level); surface it as source text.
		return value.NewString(c.Source()), nil
	}
	if o, ok := out.Object(); ok {
		return value.NewRef(o.HostName()), nil
	}
	d, err := out.Data()
	if err != nil {
		return value.Null, err
	}
	return d, nil
}

func (b *scriptBody) Descriptor() BodyDescriptor {
	return BodyDescriptor{Kind: BodyScript, Source: b.src}
}

// BehaviorRegistry maps stable names to native functions, so an object
// image mentioning a native body can be reconstructed at a site that has
// the same behaviors compiled in. It is safe for concurrent use.
type BehaviorRegistry struct {
	mu sync.RWMutex
	m  map[string]NativeFunc
}

// NewBehaviorRegistry returns an empty registry.
func NewBehaviorRegistry() *BehaviorRegistry {
	return &BehaviorRegistry{m: make(map[string]NativeFunc)}
}

// Register adds a behavior; re-registering a name overwrites it.
func (r *BehaviorRegistry) Register(name string, fn NativeFunc) Body {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[name] = fn
	return &nativeBody{name: name, fn: fn}
}

// Lookup resolves a behavior name to a Body.
func (r *BehaviorRegistry) Lookup(name string) (Body, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.m[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBehavior, name)
	}
	return &nativeBody{name: name, fn: fn}, nil
}

// Names lists registered behavior names, sorted.
func (r *BehaviorRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NewNativeBody wraps fn as an unregistered native body. Such a body works
// locally but cannot be reconstructed from an image; prefer
// BehaviorRegistry.Register for anything that may travel or persist.
func NewNativeBody(name string, fn NativeFunc) Body {
	return &nativeBody{name: name, fn: fn}
}

// RebuildBody materializes a descriptor: scripts re-parse from source,
// natives resolve through the registry.
func RebuildBody(d BodyDescriptor, reg *BehaviorRegistry) (Body, error) {
	switch d.Kind {
	case BodyScript:
		return NewScriptBody(d.Source)
	case BodyNative:
		if reg == nil {
			return nil, fmt.Errorf("%w: %q (no registry)", ErrUnknownBehavior, d.Name)
		}
		return reg.Lookup(d.Name)
	default:
		return nil, fmt.Errorf("%w: descriptor kind %d", ErrUnknownBehavior, d.Kind)
	}
}
