package mscript

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/value"
)

// ErrRuntime reports MScript evaluation failures (bad operands, unknown
// variables, budget exhaustion, user-raised errors).
var ErrRuntime = errors.New("mscript runtime error")

// ErrBudget reports that a script exceeded its step or depth budget. It
// wraps ErrRuntime so both checks work with errors.Is.
var ErrBudget = fmt.Errorf("%w: execution budget exceeded", ErrRuntime)

// HostObject is the interpreter's view of an MROM object (or any other
// host entity). Method calls on such a value dispatch through Call — for
// MROM objects that is the full invocation mechanism, meta-methods
// included, so mobile code manipulates objects only through the model.
type HostObject interface {
	// Call invokes the named method with evaluated arguments.
	Call(name string, args []Val) (Val, error)
	// HostName identifies the object for diagnostics.
	HostName() string
}

// Val is an MScript runtime value: either an MROM data value, a closure,
// or a handle on a host object. The zero Val is the data value Null.
type Val struct {
	data value.Value
	fn   *Closure
	obj  HostObject
}

// FromValue wraps an MROM value.
func FromValue(v value.Value) Val { return Val{data: v} }

// FromClosure wraps a closure.
func FromClosure(c *Closure) Val { return Val{fn: c} }

// FromObject wraps a host object handle.
func FromObject(o HostObject) Val { return Val{obj: o} }

// NullVal is the null runtime value.
var NullVal = Val{}

// IsClosure reports whether v holds a closure.
func (v Val) IsClosure() bool { return v.fn != nil }

// IsObject reports whether v holds a host object.
func (v Val) IsObject() bool { return v.obj != nil }

// IsData reports whether v holds a plain data value.
func (v Val) IsData() bool { return v.fn == nil && v.obj == nil }

// Closure returns the closure payload, if any.
func (v Val) Closure() (*Closure, bool) { return v.fn, v.fn != nil }

// Object returns the host object payload, if any.
func (v Val) Object() (HostObject, bool) { return v.obj, v.obj != nil }

// Data returns the data payload. For closures and objects it returns an
// error: those cannot cross into the MROM value plane implicitly.
func (v Val) Data() (value.Value, error) {
	switch {
	case v.fn != nil:
		return value.Null, fmt.Errorf("%w: a function is not a data value (install it with addMethod/setMethod)", ErrRuntime)
	case v.obj != nil:
		return value.Null, fmt.Errorf("%w: object %s is not a data value (pass its name)", ErrRuntime, v.obj.HostName())
	default:
		return v.data, nil
	}
}

// Truthy reports the boolean interpretation: closures and objects are true.
func (v Val) Truthy() bool {
	if v.fn != nil || v.obj != nil {
		return true
	}
	return v.data.Truthy()
}

// String renders the value for diagnostics and print().
func (v Val) String() string {
	switch {
	case v.fn != nil:
		return fmt.Sprintf("fn/%d", len(v.fn.Fn.Params))
	case v.obj != nil:
		return "object(" + v.obj.HostName() + ")"
	default:
		return v.data.String()
	}
}

// Closure is a function literal together with what it closes over: the
// frame it was made in (up) when the interpreter made it, or — for an
// outermost function a host or test wraps by hand — the Env its free names
// are bound from.
type Closure struct {
	Fn  *FnLit
	Env *Env
	up  *frame
}

// Source renders the closure's canonical source text. This is the mobile
// representation of code: ship the source, re-parse at the destination.
// Captured environment does not travel; see FreeVars for the check that a
// function is self-contained before it is installed as a method.
func (c *Closure) Source() string {
	var sb strings.Builder
	c.Fn.render(&sb, 0)
	return sb.String()
}

// frame holds the variables of one function activation, or of one entry
// of a block whose variables a closure captures; up is the frame lexically
// around it.
type frame struct {
	slots []Val
	up    *frame
}

// unset marks a slot whose let has not run (or a root name the Env does
// not define): reads and assignments fall through to the next binding out.
var unset = Val{fn: new(Closure)}

func newFrame(n int, up *frame) *frame {
	f := &frame{slots: make([]Val, n), up: up}
	for i := range f.slots {
		f.slots[i] = unset
	}
	return f
}

// lookup returns the first set slot among refs, nil if none is.
func (f *frame) lookup(refs []slotRef) *Val {
	for _, r := range refs {
		t := f
		for d := r.depth; d > 0; d-- {
			t = t.up
		}
		if v := &t.slots[r.slot]; v.fn != unset.fn {
			return v
		}
	}
	return nil
}

// Env is the root table a caller supplies to Run or wraps in a Closure:
// the names an outermost function leaves free (self, args, ctx, whatever a
// test defines) are copied from it into the frame when an activation
// starts. The interpreter never writes to it.
type Env struct{ vars []envVar }

type envVar struct {
	name string
	val  Val
}

// NewEnv returns an empty root table.
func NewEnv() *Env { return &Env{} }

// Define binds name, replacing an earlier binding.
func (e *Env) Define(name string, v Val) {
	if p := e.find(name); p != nil {
		*p = v
		return
	}
	e.vars = append(e.vars, envVar{name, v})
}

// Lookup finds name; a nil Env defines nothing.
func (e *Env) Lookup(name string) (Val, bool) {
	if p := e.find(name); p != nil {
		return *p, true
	}
	return NullVal, false
}

func (e *Env) find(name string) *Val {
	if e != nil {
		for i := range e.vars {
			if e.vars[i].name == name {
				return &e.vars[i].val
			}
		}
	}
	return nil
}
