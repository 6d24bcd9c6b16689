package core

import (
	"fmt"

	"repro/internal/mscript"
	"repro/internal/security"
	"repro/internal/value"
)

// objectHandle adapts an Object to the interpreter's HostObject interface.
// Every method call made through the handle goes through the full MROM
// invocation mechanism as the handle's caller principal — mobile code has
// no side door around Match.
type objectHandle struct {
	obj    *Object
	caller security.Principal
	inv    *Invocation
	chain  *callChain // admission chain for handles without an inv (ctx.lookup)
}

// chainRef is the admission chain a call through this handle belongs to:
// the executing invocation's chain when there is one, otherwise the chain
// recorded at handle creation.
func (h *objectHandle) chainRef() *callChain {
	if h.inv != nil {
		return h.inv.chain
	}
	return h.chain
}

var _ mscript.HostObject = (*objectHandle)(nil)

// HostName identifies the object in script diagnostics.
func (h *objectHandle) HostName() string { return h.obj.id.String() }

// Call dispatches a script-level method call. Two names are primitives
// rather than stored methods: invokeNext (descend one meta level; only
// meaningful inside a meta-invoke body on the same object) and nothing
// else — everything else is a real invocation.
func (h *objectHandle) Call(name string, args []mscript.Val) (mscript.Val, error) {
	vals, err := convertScriptArgs(args)
	if err != nil {
		return mscript.NullVal, fmt.Errorf("call %q: %w", name, err)
	}
	if name == "invokeNext" {
		if h.inv == nil || h.inv.self != h.obj {
			return mscript.NullVal, fmt.Errorf("%w: invokeNext outside a meta-invoke body", ErrArity)
		}
		target, err := argString(vals, 0, "method name")
		if err != nil {
			return mscript.NullVal, err
		}
		out, err := h.inv.InvokeNext(target, argList(vals, 1)...)
		if err != nil {
			return mscript.NullVal, err
		}
		return mscript.FromValue(out), nil
	}

	child := getInvocation(h.obj, h.caller, "", 0, childDepth(h.inv), h.chainRef())
	out, err := h.obj.invokeFrom(child, name, vals)
	putInvocation(child)
	if err != nil {
		return mscript.NullVal, err
	}
	return mscript.FromValue(out), nil
}

func childDepth(inv *Invocation) int {
	if inv == nil {
		return 1
	}
	return inv.depth + 1
}

// convertScriptArgs lowers interpreter values to model values. Closures
// become script-body descriptors (so `self.addMethod("m", fn(a){…})` works
// naturally), object handles become refs.
func convertScriptArgs(args []mscript.Val) ([]value.Value, error) {
	out := make([]value.Value, len(args))
	for i, a := range args {
		v, err := lowerScriptVal(a)
		if err != nil {
			return nil, fmt.Errorf("argument %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

func lowerScriptVal(a mscript.Val) (value.Value, error) {
	if c, ok := a.Closure(); ok {
		body, err := BodyFromClosure(c)
		if err != nil {
			return value.Null, err
		}
		return DescriptorToValue(body.Descriptor()), nil
	}
	if o, ok := a.Object(); ok {
		return value.NewRef(o.HostName()), nil
	}
	return a.Data()
}

// ctxHandle exposes the invocation context to scripts:
//
//	ctx.caller()       → caller principal string
//	ctx.callerDomain() → caller's trust domain
//	ctx.level()        → meta level of the executing body
//	ctx.method()       → executing method name
//	ctx.site()         → hosting site name ("" when unhosted)
//	ctx.lookup(name)   → handle on another object via the site resolver
//	ctx.log(args…)     → emit a line to the object's output sink
type ctxHandle struct {
	inv *Invocation
}

var _ mscript.HostObject = (*ctxHandle)(nil)

func (c *ctxHandle) HostName() string { return "ctx" }

func (c *ctxHandle) Call(name string, args []mscript.Val) (mscript.Val, error) {
	switch name {
	case "caller":
		return mscript.FromValue(value.NewString(c.inv.caller.String())), nil
	case "callerDomain":
		return mscript.FromValue(value.NewString(c.inv.caller.Domain)), nil
	case "level":
		return mscript.FromValue(value.NewInt(int64(c.inv.level))), nil
	case "method":
		return mscript.FromValue(value.NewString(c.inv.method)), nil
	case "site":
		c.inv.self.mu.Lock()
		r := c.inv.self.resolver
		c.inv.self.mu.Unlock()
		if r == nil {
			return mscript.FromValue(value.NewString("")), nil
		}
		return mscript.FromValue(value.NewString(r.SiteName())), nil
	case "lookup":
		vals, err := convertScriptArgs(args)
		if err != nil {
			return mscript.NullVal, err
		}
		objName, err := argString(vals, 0, "object name")
		if err != nil {
			return mscript.NullVal, err
		}
		c.inv.self.mu.Lock()
		r := c.inv.self.resolver
		c.inv.self.mu.Unlock()
		if r == nil {
			return mscript.NullVal, fmt.Errorf("%w: object has no resolver", ErrNotFound)
		}
		target, err := r.ResolveObject(objName)
		if err != nil {
			return mscript.NullVal, err
		}
		return mscript.FromObject(&objectHandle{
			obj:    target,
			caller: c.inv.self.Principal(),
			inv:    nil, // cross-object calls never see the meta-level primitives
			chain:  c.inv.chain,
		}), nil
	case "log":
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.String()
		}
		if sink := c.inv.output(); sink != nil {
			sink(joinSpace(parts))
		}
		return mscript.NullVal, nil
	default:
		return mscript.NullVal, fmt.Errorf("%w: ctx has no operation %q", ErrNotFound, name)
	}
}

func joinSpace(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " "
		}
		out += p
	}
	return out
}
