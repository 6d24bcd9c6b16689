package mscript

import (
	"fmt"
	"sort"
)

// Static name resolution. Parse and ParseFunction run it once, before the
// AST is published, so a cached function literal is never written again.
// Every identifier learns where its binding may live and every function
// how large its frame is; the interpreter then runs on []Val frames and
// FreeVars reads what the same pass found unbound.
//
// A function activation owns one frame. A block's variables are a slot
// range of the frame around it, unless an inner function literal reaches
// one of them: then the block is marked heap and gets a frame of its own on
// every entry, so closures made in different loop turns hold different
// bindings. A function's frame is marked heap when an inner function
// reaches it or reaches past it; otherwise it lives on the interpreter's
// stack.

// slotRef addresses a slot: depth frames up the chain, then slot.
type slotRef struct{ depth, slot int32 }

// fnInfo is what the resolver records about a function; a Program counts
// as one without parameters.
type fnInfo struct {
	nslots int
	heap   bool
	// root marks an outermost function: it runs without an enclosing
	// frame. free lists the names its text leaves unbound, in order of
	// first mention; name i lives in the frame's slot nslots-len(free)+i
	// and is copied from the caller's Env when an activation starts.
	root bool
	free []string
}

type scopeVar struct {
	slot int
	done bool // its let has run for everything resolved from here on
}

// layout hands out the slots of one frame. Sibling blocks reuse a range.
type layout struct{ next, max int }

func (l *layout) alloc() int {
	l.next++
	if l.next > l.max {
		l.max = l.next
	}
	return l.next - 1
}

type scope struct {
	outer *scope
	fn    *fnInfo // set on a function's scope (parameters and body)
	heap  *bool
	lay   *layout
	saved int // lay.next to restore on leaving a block that shares lay
	vars  map[string]*scopeVar
}

func (s *scope) ownsFrame() bool { return s.fn != nil || *s.heap }

// resolver walks an outermost function to lay its frames out and write the
// annotations (emit). Which frames are heap has to be known before slots
// are numbered, so text with inner functions is first walked once just to
// mark them.
type resolver struct {
	emit     bool
	scope    *scope
	root     *fnInfo
	freeIdx  map[string]int // name → index in root.free
	freeRefs []*slotRef     // emitted references to root.free[-slot-1], numbered last
}

func resolveRoot(info *fnInfo, params []string, body []Stmt, inner bool) {
	r := &resolver{root: info, freeIdx: map[string]int{}}
	info.root = true
	if inner {
		r.function(info, params, body)
	}
	r.emit = true
	r.function(info, params, body)
	// The free names go behind everything else in the root frame.
	for _, ref := range r.freeRefs {
		ref.slot = int32(info.nslots) - ref.slot - 1
	}
	info.nslots += len(info.free)
}

func (r *resolver) function(info *fnInfo, params []string, body []Stmt) {
	r.enter(info, &info.heap, params, body)
	r.stmts(body)
	info.nslots = r.leave()
}

// enter opens a scope holding bound (already set on entry: parameters, a
// loop variable) and, hoisted, every name a let directly in stmts declares.
func (r *resolver) enter(fn *fnInfo, heap *bool, bound []string, stmts []Stmt) {
	s := &scope{outer: r.scope, fn: fn, heap: heap}
	if s.ownsFrame() {
		s.lay = &layout{}
	} else {
		s.lay, s.saved = r.scope.lay, r.scope.lay.next
	}
	r.scope = s
	for _, name := range bound {
		s.declare(name).done = true
	}
	for _, st := range stmts {
		if let, ok := st.(*Let); ok {
			s.declare(let.Name)
		}
	}
}

func (s *scope) declare(name string) *scopeVar {
	if v := s.vars[name]; v != nil {
		return v
	}
	if s.vars == nil {
		s.vars = map[string]*scopeVar{}
	}
	v := &scopeVar{slot: s.lay.alloc()}
	s.vars[name] = v
	return v
}

// leave closes the current scope and returns the size of the frame it
// owned, 0 if it shared one.
func (r *resolver) leave() int {
	s := r.scope
	r.scope = s.outer
	if s.ownsFrame() {
		return s.lay.max
	}
	s.lay.next = s.saved
	return 0
}

// lookup lists the slots name may be bound in at this point of the text,
// innermost first. Inside the current function only a let already passed
// counts, and it is certain. A scope of an enclosing function counts
// whenever it declares the name at all — the let may run after the closure
// is made and before it is called — and then the search goes on behind it,
// since at run time that slot may still be unset. A name no scope binds
// for certain ends in the root's slot for it.
func (r *resolver) lookup(name string) []slotRef {
	var refs []slotRef
	depth, crossed := 0, false
	for s := r.scope; ; s = s.outer {
		if v := s.vars[name]; v != nil && (v.done || crossed) {
			refs = r.ref(refs, s, depth, v.slot, crossed)
			if v.done {
				return refs
			}
		}
		if s.outer == nil {
			i, ok := r.freeIdx[name]
			if !ok {
				i = len(r.root.free)
				r.freeIdx[name] = i
				r.root.free = append(r.root.free, name)
			}
			if refs = r.ref(refs, s, depth, -i-1, crossed); r.emit {
				r.freeRefs = append(r.freeRefs, &refs[len(refs)-1]) // refs grows no more
			}
			return refs
		}
		if s.fn != nil {
			// Leaving a function. One left before this one holds a
			// pointer to this one's frame as a link of its chain.
			s.fn.heap = s.fn.heap || crossed
			crossed = true
		}
		if s.ownsFrame() {
			depth++
		}
	}
}

func (r *resolver) ref(refs []slotRef, s *scope, depth, slot int, crossed bool) []slotRef {
	if crossed {
		*s.heap = true
	}
	if r.emit {
		refs = append(refs, slotRef{int32(depth), int32(slot)})
	}
	return refs
}

func (r *resolver) block(b *Block) {
	r.enter(nil, &b.heap, nil, b.Stmts)
	r.stmts(b.Stmts)
	b.nslots = r.leave()
}

func (r *resolver) stmts(stmts []Stmt) {
	for _, st := range stmts {
		r.stmt(st)
	}
}

func (r *resolver) stmt(st Stmt) {
	switch t := st.(type) {
	case *Let:
		r.expr(t.Expr)
		v := r.scope.vars[t.Name]
		v.done, t.slot = true, v.slot
	case *Assign:
		r.expr(t.Expr)
		r.expr(t.Target)
	case *ExprStmt:
		r.expr(t.Expr)
	case *Return:
		if t.Expr != nil {
			r.expr(t.Expr)
		}
	case *If:
		r.expr(t.Cond)
		r.block(t.Then)
		if t.Else != nil {
			r.stmt(t.Else)
		}
	case *While:
		r.expr(t.Cond)
		r.block(t.Body)
	case *ForIn:
		r.expr(t.Iter)
		r.enter(nil, &t.Body.heap, []string{t.Var}, t.Body.Stmts)
		t.slot = r.scope.vars[t.Var].slot
		r.stmts(t.Body.Stmts)
		t.Body.nslots = r.leave()
	case *Block:
		r.block(t)
	}
}

func (r *resolver) expr(e Expr) {
	switch t := e.(type) {
	case *Ident:
		t.refs = r.lookup(t.Name)
	case *ListLit:
		for _, el := range t.Elems {
			r.expr(el)
		}
	case *MapLit:
		for _, p := range t.Pairs {
			r.expr(p.Value)
		}
	case *FnLit:
		r.function(&t.fnInfo, t.Params, t.Body.Stmts)
	case *Unary:
		r.expr(t.X)
	case *Binary:
		r.expr(t.X)
		r.expr(t.Y)
	case *Call:
		if id, ok := t.Fn.(*Ident); ok {
			t.builtin = builtins[id.Name]
		}
		r.expr(t.Fn)
		r.exprs(t.Args)
	case *Index:
		r.expr(t.X)
		r.expr(t.Idx)
	case *Field:
		r.expr(t.X)
	case *MethodCall:
		r.expr(t.X)
		r.exprs(t.Args)
	}
}

func (r *resolver) exprs(es []Expr) {
	for _, e := range es {
		r.expr(e)
	}
}

// FreeVars computes the free variables of a function literal: identifiers
// referenced in its body that are neither parameters, declared with let
// before the reference, loop variables, nor builtins.
//
// This check is how the model enforces self-containment of mobile code:
// a closure installed as an MROM method serializes as source, so captured
// environment would be silently lost in transit. CheckMobile rejects such
// closures up front, except for the well-known bindings the host re-supplies
// at the destination (the method's standard scope: self, args, ctx).
//
// A literal nested in a larger program was resolved against that program;
// it is judged by its own source, as it would be after travelling.
func FreeVars(fn *FnLit) []string {
	fn, err := rooted(fn)
	if err != nil {
		return nil
	}
	var out []string
	for _, name := range fn.free {
		if !IsBuiltin(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func rooted(fn *FnLit) (*FnLit, error) {
	if fn.root {
		return fn, nil
	}
	return ParseFunction((&Closure{Fn: fn}).Source())
}

// Mentions reports whether the outermost function fn leaves name unbound,
// so that a host supplying it in the Env is not wasting the effort.
func (fn *FnLit) Mentions(name string) bool {
	for _, f := range fn.free {
		if f == name {
			return true
		}
	}
	return false
}

// HostBindings are the names the method-invocation machinery defines before
// running a script body, so they are permitted free variables in mobile code.
var HostBindings = map[string]bool{
	"self": true,
	"args": true,
	"ctx":  true,
}

// CheckMobile verifies fn is self-contained enough to travel: every free
// variable must be a host binding. It returns a descriptive error otherwise.
func CheckMobile(fn *FnLit) error {
	fn, err := rooted(fn)
	if err != nil {
		return err
	}
	var offending []string
	for _, v := range FreeVars(fn) {
		if !HostBindings[v] {
			offending = append(offending, v)
		}
	}
	if len(offending) > 0 {
		return fmt.Errorf("%w: function captures %v; mobile method bodies must be self-contained (only %v are re-bound at the destination)",
			ErrRuntime, offending, hostBindingNames())
	}
	return nil
}

func hostBindingNames() []string {
	out := make([]string, 0, len(HostBindings))
	for n := range HostBindings {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
