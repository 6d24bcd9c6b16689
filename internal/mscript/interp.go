package mscript

import (
	"fmt"
	"sort"

	"repro/internal/value"
)

// Budget bounds what a script run may consume. Hosts impose budgets on
// arriving mobile code: a step is one AST node evaluation, depth is the
// call-stack limit.
type Budget struct {
	MaxSteps int
	MaxDepth int
}

// DefaultBudget is generous enough for interoperability programs while
// still terminating runaway loops.
var DefaultBudget = Budget{MaxSteps: 5_000_000, MaxDepth: 256}

// Interp evaluates MScript programs and closures. An Interp is intended
// for single-goroutine use, one method invocation at a time; Reset readies
// it for the next.
type Interp struct {
	budget Budget
	steps  int
	depth  int
	out    func(string) // print sink; nil discards
	// stack holds the frames no closure captures and the argument vector
	// of every call in flight; everything past its length is zero. A slice
	// of it stays valid if the stack is regrown under it: the old array
	// keeps the values and whoever holds the slice is the only user.
	stack  []Val
	frames []*frame // frames[d]: the stack frame of the activation at depth d
}

// Option configures an Interp.
type Option func(*Interp)

// WithBudget overrides the execution budget.
func WithBudget(b Budget) Option {
	return func(i *Interp) { i.budget = b }
}

// WithOutput directs print() output to sink.
func WithOutput(sink func(string)) Option {
	return func(i *Interp) { i.out = sink }
}

// NewInterp returns an interpreter with the default budget.
func NewInterp(opts ...Option) *Interp {
	i := &Interp{budget: DefaultBudget}
	for _, o := range opts {
		o(i)
	}
	return i
}

// maxIdleStack is the stack (in values) an interpreter keeps across Reset.
const maxIdleStack = 4096

// Reset readies a used interpreter for another run under budget b with
// print sink out (nil discards), so that a host can pool interpreters.
func (in *Interp) Reset(b Budget, out func(string)) {
	in.budget, in.out, in.steps, in.depth = b, out, 0, 0
	if cap(in.stack) > maxIdleStack {
		in.stack, in.frames = nil, nil
	}
}

// Steps reports how many evaluation steps the interpreter has consumed.
func (in *Interp) Steps() int { return in.steps }

// control-flow signals inside the evaluator; they never escape the API.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

func (in *Interp) step(pos Pos) error {
	in.steps++
	if in.budget.MaxSteps > 0 && in.steps > in.budget.MaxSteps {
		return in.exhausted(pos)
	}
	return nil
}

func (in *Interp) exhausted(pos Pos) error {
	return fmt.Errorf("%w (steps > %d at %s)", ErrBudget, in.budget.MaxSteps, pos)
}

// push extends the stack by n zero values and returns them.
func (in *Interp) push(n int) []Val {
	base := len(in.stack)
	if base+n > cap(in.stack) {
		grown := make([]Val, base, 2*cap(in.stack)+n+16)
		copy(grown, in.stack)
		in.stack = grown
	}
	in.stack = in.stack[:base+n]
	return in.stack[base : base+n : base+n]
}

// pop drops the stack back to base, zeroing what it gives up.
func (in *Interp) pop(base int) {
	clear(in.stack[base:])
	in.stack = in.stack[:base]
}

// activate builds the frame of one activation of a function: parameters
// from args (missing ones Null, extra ones ignored), then the names an
// outermost function leaves free, from env.
func (in *Interp) activate(fn *fnInfo, nparams int, args []Val, env *Env, up *frame) *frame {
	var fr *frame
	if fn.heap {
		fr = newFrame(fn.nslots, up)
	} else {
		for len(in.frames) <= in.depth {
			in.frames = append(in.frames, new(frame))
		}
		fr = in.frames[in.depth]
		fr.slots, fr.up = in.push(fn.nslots), up
	}
	n := copy(fr.slots[:nparams], args)
	clear(fr.slots[n:nparams])
	for i, name := range fn.free {
		v, ok := env.Lookup(name)
		if !ok {
			v = unset
		}
		fr.slots[fn.nslots-len(fn.free)+i] = v
	}
	return fr
}

// Run evaluates a program; names it leaves free are read from env. The
// value of a trailing `return` (or Null) is returned.
func (in *Interp) Run(p *Program, env *Env) (Val, error) {
	base := len(in.stack)
	v, c, err := in.execStmts(p.Stmts, in.activate(&p.fnInfo, 0, nil, env, nil))
	in.pop(base)
	if err != nil {
		return NullVal, err
	}
	if c == ctrlBreak || c == ctrlContinue {
		return NullVal, fmt.Errorf("%w: break/continue outside loop", ErrRuntime)
	}
	return v, nil
}

// CallClosure applies a closure to arguments. Missing arguments are Null;
// extra arguments are ignored.
func (in *Interp) CallClosure(c *Closure, args []Val) (Val, error) {
	base := len(in.stack)
	v, err := in.call(c, args)
	in.pop(base)
	return v, err
}

func (in *Interp) call(c *Closure, args []Val) (Val, error) {
	if c.up == nil && !c.Fn.root {
		return NullVal, fmt.Errorf("%w: a function lifted out of its program must be re-parsed from its Source()", ErrRuntime)
	}
	if in.budget.MaxDepth > 0 && in.depth >= in.budget.MaxDepth {
		return NullVal, fmt.Errorf("%w (depth > %d)", ErrBudget, in.budget.MaxDepth)
	}
	in.depth++
	base := len(in.stack)
	fr := in.activate(&c.Fn.fnInfo, len(c.Fn.Params), args, c.Env, c.up)
	v, ctl, err := in.execStmts(c.Fn.Body.Stmts, fr)
	in.depth--
	if err != nil {
		return NullVal, err // whoever entered the interpreter pops what this leaves
	}
	in.pop(base)
	if ctl == ctrlBreak || ctl == ctrlContinue {
		return NullVal, fmt.Errorf("%w: break/continue outside loop", ErrRuntime)
	}
	if ctl == ctrlReturn {
		return v, nil
	}
	return NullVal, nil
}

func (in *Interp) execStmts(stmts []Stmt, fr *frame) (Val, ctrl, error) {
	for _, s := range stmts {
		v, c, err := in.execStmt(s, fr)
		if err != nil {
			return NullVal, ctrlNone, err
		}
		if c != ctrlNone {
			return v, c, nil
		}
	}
	return NullVal, ctrlNone, nil
}

// execBlock runs a block in its own scope: a fresh frame if a closure
// captures its variables, otherwise slots of fr that nothing else uses.
func (in *Interp) execBlock(b *Block, fr *frame) (Val, ctrl, error) {
	if b.heap {
		fr = newFrame(b.nslots, fr)
	}
	return in.execStmts(b.Stmts, fr)
}

func (in *Interp) execStmt(s Stmt, fr *frame) (Val, ctrl, error) {
	switch st := s.(type) {
	case *Let:
		if err := in.step(st.Pos); err != nil {
			return NullVal, ctrlNone, err
		}
		v, err := in.eval(st.Expr, fr)
		if err != nil {
			return NullVal, ctrlNone, err
		}
		fr.slots[st.slot] = v
		return NullVal, ctrlNone, nil

	case *Assign:
		if err := in.step(st.Pos); err != nil {
			return NullVal, ctrlNone, err
		}
		v, err := in.eval(st.Expr, fr)
		if err != nil {
			return NullVal, ctrlNone, err
		}
		return NullVal, ctrlNone, in.assign(st.Target, v, fr)

	case *ExprStmt:
		if err := in.step(st.Pos); err != nil {
			return NullVal, ctrlNone, err
		}
		_, err := in.eval(st.Expr, fr)
		return NullVal, ctrlNone, err

	case *Return:
		if err := in.step(st.Pos); err != nil {
			return NullVal, ctrlNone, err
		}
		if st.Expr == nil {
			return NullVal, ctrlReturn, nil
		}
		v, err := in.eval(st.Expr, fr)
		if err != nil {
			return NullVal, ctrlNone, err
		}
		return v, ctrlReturn, nil

	case *If:
		if err := in.step(st.Pos); err != nil {
			return NullVal, ctrlNone, err
		}
		cond, err := in.eval(st.Cond, fr)
		if err != nil {
			return NullVal, ctrlNone, err
		}
		if cond.Truthy() {
			return in.execBlock(st.Then, fr)
		}
		if st.Else != nil {
			return in.execStmt(st.Else, fr) // a block, or an else-if in this scope
		}
		return NullVal, ctrlNone, nil

	case *While:
		for {
			if err := in.step(st.Pos); err != nil {
				return NullVal, ctrlNone, err
			}
			cond, err := in.eval(st.Cond, fr)
			if err != nil {
				return NullVal, ctrlNone, err
			}
			if !cond.Truthy() {
				return NullVal, ctrlNone, nil
			}
			v, c, err := in.execBlock(st.Body, fr)
			if err != nil {
				return NullVal, ctrlNone, err
			}
			switch c {
			case ctrlReturn:
				return v, c, nil
			case ctrlBreak:
				return NullVal, ctrlNone, nil
			}
		}

	case *ForIn:
		if err := in.step(st.Pos); err != nil {
			return NullVal, ctrlNone, err
		}
		iter, err := in.eval(st.Iter, fr)
		if err != nil {
			return NullVal, ctrlNone, err
		}
		it, err := iterate(iter)
		if err != nil {
			return NullVal, ctrlNone, fmt.Errorf("%s: %w", st.Pos, err)
		}
		for i := 0; i < it.n; i++ {
			if err := in.step(st.Pos); err != nil {
				return NullVal, ctrlNone, err
			}
			scope := fr
			if st.Body.heap {
				scope = newFrame(st.Body.nslots, fr)
			}
			scope.slots[st.slot] = it.at(i)
			v, c, err := in.execStmts(st.Body.Stmts, scope)
			if err != nil {
				return NullVal, ctrlNone, err
			}
			switch c {
			case ctrlReturn:
				return v, c, nil
			case ctrlBreak:
				return NullVal, ctrlNone, nil
			}
		}
		return NullVal, ctrlNone, nil

	case *Break:
		return NullVal, ctrlBreak, in.step(st.Pos)
	case *Continue:
		return NullVal, ctrlContinue, in.step(st.Pos)
	case *Block:
		return in.execBlock(st, fr)
	default:
		return NullVal, ctrlNone, fmt.Errorf("%w: unknown statement %T", ErrRuntime, s)
	}
}

// iteration is what a for-in walks: list elements (copied when the loop
// starts — the body may store into the list), map keys (sorted for
// determinism), string bytes as 1-char strings, or 0..n-1 for an Int n.
// Ranges and strings are counted, never built, so a loop costs the host
// nothing the step budget has not seen.
type iteration struct {
	n     int
	elems []value.Value // list
	keys  []string      // map
	str   string
}

func (it *iteration) at(i int) Val {
	switch {
	case it.elems != nil:
		return FromValue(it.elems[i])
	case it.keys != nil:
		return FromValue(value.NewString(it.keys[i]))
	case it.str != "":
		return FromValue(value.NewString(it.str[i : i+1]))
	default:
		return FromValue(value.NewInt(int64(i)))
	}
}

func iterate(v Val) (iteration, error) {
	if !v.IsData() {
		return iteration{}, fmt.Errorf("%w: cannot iterate %s", ErrRuntime, v)
	}
	d := v.data
	switch d.Kind() {
	case value.KindList:
		l, _ := d.List()
		return iteration{n: len(l), elems: append(make([]value.Value, 0, len(l)), l...)}, nil
	case value.KindMap:
		m, _ := d.Map()
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return iteration{n: len(keys), keys: keys}, nil
	case value.KindString:
		s, _ := d.Str()
		return iteration{n: len(s), str: s}, nil
	case value.KindInt:
		n, _ := d.Int()
		if n < 0 {
			return iteration{}, fmt.Errorf("%w: cannot iterate negative range %d", ErrRuntime, n)
		}
		const maxRange = 10_000_000
		if n > maxRange {
			return iteration{}, fmt.Errorf("%w: range %d too large", ErrRuntime, n)
		}
		return iteration{n: int(n)}, nil
	default:
		return iteration{}, fmt.Errorf("%w: cannot iterate %s", ErrRuntime, d.Kind())
	}
}

func (in *Interp) assign(target Expr, v Val, fr *frame) error {
	switch t := target.(type) {
	case *Ident:
		slot := fr.lookup(t.refs)
		if slot == nil {
			return fmt.Errorf("%w: %s: assignment to undeclared variable %q (use let)", ErrRuntime, t.Pos, t.Name)
		}
		*slot = v
		return nil
	case *Index:
		container, err := in.eval(t.X, fr)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.Idx, fr)
		if err != nil {
			return err
		}
		return storeIndex(container, idx, v, t.Pos)
	case *Field:
		container, err := in.eval(t.X, fr)
		if err != nil {
			return err
		}
		if obj, ok := container.Object(); ok {
			// Field write on a host object is sugar for set(name, value).
			_, err := in.callHost(obj, "set", FromValue(value.NewString(t.Name)), v)
			return err
		}
		return storeIndex(container, FromValue(value.NewString(t.Name)), v, t.Pos)
	default:
		return fmt.Errorf("%w: invalid assignment target %T", ErrRuntime, target)
	}
}

func storeIndex(container, idx, v Val, pos Pos) error {
	if !container.IsData() {
		return fmt.Errorf("%w: %s: cannot index-assign into %s", ErrRuntime, pos, container)
	}
	dv, err := v.Data()
	if err != nil {
		return fmt.Errorf("%s: %w", pos, err)
	}
	d := container.data
	switch d.Kind() {
	case value.KindList:
		l, _ := d.List()
		iv, err := idx.Data()
		if err != nil {
			return err
		}
		ci, err := value.Coerce(iv, value.KindInt)
		if err != nil {
			return fmt.Errorf("%s: %w", pos, err)
		}
		i, _ := ci.Int()
		if i < 0 || int(i) >= len(l) {
			return fmt.Errorf("%w: %s: index %d out of range [0,%d)", ErrRuntime, pos, i, len(l))
		}
		l[i] = dv // lists are mutable reference values inside a script run
		return nil
	case value.KindMap:
		m, _ := d.Map()
		kv, err := idx.Data()
		if err != nil {
			return err
		}
		ks, err := value.Coerce(kv, value.KindString)
		if err != nil {
			return fmt.Errorf("%s: %w", pos, err)
		}
		m[ks.String()] = dv
		return nil
	default:
		return fmt.Errorf("%w: %s: cannot index-assign into %s", ErrRuntime, pos, d.Kind())
	}
}

func (in *Interp) eval(e Expr, fr *frame) (Val, error) {
	in.steps++ // step, inlined: e.pos() is a dynamic call only a failure needs
	if in.budget.MaxSteps > 0 && in.steps > in.budget.MaxSteps {
		return NullVal, in.exhausted(e.pos())
	}
	switch ex := e.(type) {
	case *IntLit:
		return FromValue(value.NewInt(ex.Value)), nil
	case *FloatLit:
		return FromValue(value.NewFloat(ex.Value)), nil
	case *StringLit:
		return FromValue(value.NewString(ex.Value)), nil
	case *BoolLit:
		return FromValue(value.NewBool(ex.Value)), nil
	case *NullLit:
		return NullVal, nil

	case *Ident:
		if v := fr.lookup(ex.refs); v != nil {
			return *v, nil
		}
		return NullVal, fmt.Errorf("%w: %s: undefined variable %q", ErrRuntime, ex.Pos, ex.Name)

	case *ListLit:
		elems := make([]value.Value, len(ex.Elems))
		for i, el := range ex.Elems {
			v, err := in.eval(el, fr)
			if err != nil {
				return NullVal, err
			}
			d, err := v.Data()
			if err != nil {
				return NullVal, fmt.Errorf("%s: %w", ex.Pos, err)
			}
			elems[i] = d
		}
		return FromValue(value.NewList(elems)), nil

	case *MapLit:
		m := make(map[string]value.Value, len(ex.Pairs))
		for _, p := range ex.Pairs {
			v, err := in.eval(p.Value, fr)
			if err != nil {
				return NullVal, err
			}
			d, err := v.Data()
			if err != nil {
				return NullVal, fmt.Errorf("%s: %w", ex.Pos, err)
			}
			m[p.Key] = d
		}
		return FromValue(value.NewMap(m)), nil

	case *FnLit:
		return FromClosure(&Closure{Fn: ex, up: fr}), nil

	case *Unary:
		x, err := in.eval(ex.X, fr)
		if err != nil {
			return NullVal, err
		}
		switch ex.Op {
		case TokBang:
			return FromValue(value.NewBool(!x.Truthy())), nil
		case TokMinus:
			d, err := x.Data()
			if err != nil {
				return NullVal, fmt.Errorf("%s: %w", ex.Pos, err)
			}
			r, err := value.Neg(d)
			if err != nil {
				return NullVal, fmt.Errorf("%s: %w", ex.Pos, err)
			}
			return FromValue(r), nil
		default:
			return NullVal, fmt.Errorf("%w: %s: unknown unary %s", ErrRuntime, ex.Pos, ex.Op)
		}

	case *Binary:
		return in.evalBinary(ex, fr)

	case *Call:
		// Builtins are bare identifiers resolved only when no variable
		// shadows them, so scripts can redefine `len` locally if they wish.
		base := len(in.stack)
		if ex.builtin != nil && fr.lookup(ex.Fn.(*Ident).refs) == nil {
			args, err := in.evalArgs(ex.Args, fr)
			if err != nil {
				return NullVal, err
			}
			v, err := ex.builtin(in, args)
			in.pop(base)
			return v, err
		}
		fnv, err := in.eval(ex.Fn, fr)
		if err != nil {
			return NullVal, err
		}
		args, err := in.evalArgs(ex.Args, fr)
		if err != nil {
			return NullVal, err
		}
		v, err := in.apply(fnv, args, ex.Pos)
		in.pop(base)
		return v, err

	case *Index:
		x, err := in.eval(ex.X, fr)
		if err != nil {
			return NullVal, err
		}
		idx, err := in.eval(ex.Idx, fr)
		if err != nil {
			return NullVal, err
		}
		return loadIndex(x, idx, ex.Pos)

	case *Field:
		x, err := in.eval(ex.X, fr)
		if err != nil {
			return NullVal, err
		}
		if obj, ok := x.Object(); ok {
			// Field read on a host object is sugar for get(name).
			return in.callHost(obj, "get", FromValue(value.NewString(ex.Name)))
		}
		return loadIndex(x, FromValue(value.NewString(ex.Name)), ex.Pos)

	case *MethodCall:
		x, err := in.eval(ex.X, fr)
		if err != nil {
			return NullVal, err
		}
		base := len(in.stack)
		args, err := in.evalArgs(ex.Args, fr)
		if err != nil {
			return NullVal, err
		}
		var v Val
		if obj, ok := x.Object(); ok {
			v, err = obj.Call(ex.Name, args)
		} else if v, err = loadIndex(x, FromValue(value.NewString(ex.Name)), ex.Pos); err == nil {
			v, err = in.apply(v, args, ex.Pos) // a function stored in a map entry
		}
		in.pop(base)
		return v, err

	default:
		return NullVal, fmt.Errorf("%w: unknown expression %T", ErrRuntime, e)
	}
}

// evalArgs evaluates a call's arguments onto the stack; the caller pops
// them when the call returns. Builtins and host objects must not keep the
// slice they are handed.
func (in *Interp) evalArgs(exprs []Expr, fr *frame) ([]Val, error) {
	base := len(in.stack)
	in.push(len(exprs))
	for i, a := range exprs {
		v, err := in.eval(a, fr)
		if err != nil {
			return nil, err
		}
		in.stack[base+i] = v
	}
	return in.stack[base : base+len(exprs)], nil
}

// callHost calls a host object's method with args handed over on the
// stack: through the interface call a slice of the caller's would escape.
func (in *Interp) callHost(obj HostObject, name string, args ...Val) (Val, error) {
	base := len(in.stack)
	copy(in.push(len(args)), args)
	v, err := obj.Call(name, in.stack[base:])
	in.pop(base)
	return v, err
}

// apply calls a closure value.
func (in *Interp) apply(fnv Val, args []Val, pos Pos) (Val, error) {
	if c, ok := fnv.Closure(); ok {
		return in.call(c, args)
	}
	return NullVal, fmt.Errorf("%w: %s: %s is not callable", ErrRuntime, pos, fnv)
}

func loadIndex(x, idx Val, pos Pos) (Val, error) {
	if !x.IsData() {
		return NullVal, fmt.Errorf("%w: %s: cannot index %s", ErrRuntime, pos, x)
	}
	iv, err := idx.Data()
	if err != nil {
		return NullVal, fmt.Errorf("%s: %w", pos, err)
	}
	d := x.data
	switch d.Kind() {
	case value.KindMap:
		ks, err := value.Coerce(iv, value.KindString)
		if err != nil {
			return NullVal, fmt.Errorf("%s: %w", pos, err)
		}
		e, _ := d.Get(ks.String())
		return FromValue(e), nil
	case value.KindList, value.KindString, value.KindBytes:
		ci, err := value.Coerce(iv, value.KindInt)
		if err != nil {
			return NullVal, fmt.Errorf("%s: %w", pos, err)
		}
		i, _ := ci.Int()
		e, err := d.Index(int(i))
		if err != nil {
			return NullVal, fmt.Errorf("%s: %w", pos, err)
		}
		return FromValue(e), nil
	default:
		return NullVal, fmt.Errorf("%w: %s: cannot index %s", ErrRuntime, pos, d.Kind())
	}
}

func (in *Interp) evalBinary(ex *Binary, fr *frame) (Val, error) {
	// Short-circuit logical operators.
	if ex.Op == TokAnd || ex.Op == TokOr {
		x, err := in.eval(ex.X, fr)
		if err != nil {
			return NullVal, err
		}
		if ex.Op == TokAnd && !x.Truthy() {
			return FromValue(value.False), nil
		}
		if ex.Op == TokOr && x.Truthy() {
			return FromValue(value.True), nil
		}
		y, err := in.eval(ex.Y, fr)
		if err != nil {
			return NullVal, err
		}
		return FromValue(value.NewBool(y.Truthy())), nil
	}

	xv, err := in.eval(ex.X, fr)
	if err != nil {
		return NullVal, err
	}
	yv, err := in.eval(ex.Y, fr)
	if err != nil {
		return NullVal, err
	}
	return binaryOp(ex, xv, yv)
}

// binaryOp applies a non-short-circuit operator to evaluated operands.
func binaryOp(ex *Binary, xv, yv Val) (Val, error) {
	// Equality works across all runtime values.
	if ex.Op == TokEq || ex.Op == TokNe {
		eq := valEqual(xv, yv)
		if ex.Op == TokNe {
			eq = !eq
		}
		return FromValue(value.NewBool(eq)), nil
	}

	x, err := xv.Data()
	if err != nil {
		return NullVal, fmt.Errorf("%s: %w", ex.Pos, err)
	}
	y, err := yv.Data()
	if err != nil {
		return NullVal, fmt.Errorf("%s: %w", ex.Pos, err)
	}

	var r value.Value
	switch ex.Op {
	case TokPlus:
		r, err = value.Add(x, y)
	case TokMinus:
		r, err = value.Sub(x, y)
	case TokStar:
		r, err = value.Mul(x, y)
	case TokSlash:
		r, err = value.Div(x, y)
	case TokPercent:
		r, err = value.Mod(x, y)
	case TokLt, TokLe, TokGt, TokGe:
		var c int
		c, err = value.Compare(x, y)
		if err == nil {
			var b bool
			switch ex.Op {
			case TokLt:
				b = c < 0
			case TokLe:
				b = c <= 0
			case TokGt:
				b = c > 0
			case TokGe:
				b = c >= 0
			}
			r = value.NewBool(b)
		}
	default:
		return NullVal, fmt.Errorf("%w: %s: unknown operator %s", ErrRuntime, ex.Pos, ex.Op)
	}
	if err != nil {
		return NullVal, fmt.Errorf("%s: %w", ex.Pos, err)
	}
	return FromValue(r), nil
}

func valEqual(a, b Val) bool {
	switch {
	case a.IsData() && b.IsData():
		return value.LooseEqual(a.data, b.data)
	case a.IsClosure() && b.IsClosure():
		af, _ := a.Closure()
		bf, _ := b.Closure()
		return af == bf
	case a.IsObject() && b.IsObject():
		ao, _ := a.Object()
		bo, _ := b.Object()
		return ao == bo
	default:
		return false
	}
}
