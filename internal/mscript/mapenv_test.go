package mscript

// The evaluator MScript had before names were resolved statically: one
// map per scope, every identifier a walk up the chain. It is kept here,
// unchanged but for its names, as the executable specification of the
// language's scoping that TestSlotsEqualMapEnv and FuzzEval hold the slot
// frames to. It shares with the interpreter only what does not touch a
// scope: builtins, indexing, arithmetic's value layer and for-in's
// iteration order.

import (
	"errors"
	"fmt"

	"repro/internal/value"
)

type refEnv struct {
	parent *refEnv
	vars   map[string]Val
}

func newRefEnv() *refEnv { return &refEnv{vars: make(map[string]Val)} }

func (e *refEnv) Child() *refEnv { return &refEnv{parent: e, vars: make(map[string]Val)} }

func (e *refEnv) Define(name string, v Val) { e.vars[name] = v }

func (e *refEnv) Lookup(name string) (Val, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return NullVal, false
}

func (e *refEnv) Set(name string, v Val) bool {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return true
		}
	}
	return false
}

type refInterp struct {
	budget Budget
	steps  int
	depth  int
	host   *Interp              // what builtins are handed: carries the print sink
	envs   map[*Closure]*refEnv // the environment each closure captured
	// maxWeight, when set, stops a run with errTooBig as soon as a value
	// weighs more: the language bounds steps and depth, not memory, and a
	// generated program that doubles a string per turn must not take the
	// machine down. The reference runs first, so the slot frames never
	// see such a program.
	maxWeight int
}

var errTooBig = errors.New("value outgrew the harness")

// weight counts a value's bytes and elements as a tree (shared and cyclic
// parts count every time they are reached), giving up once over limit.
func weight(v value.Value, limit int) int {
	w := 1
	switch v.Kind() {
	case value.KindString, value.KindBytes:
		w += v.Len()
	case value.KindList:
		l, _ := v.List()
		for _, e := range l {
			if w > limit {
				break
			}
			w += weight(e, limit-w)
		}
	case value.KindMap:
		m, _ := v.Map()
		for _, e := range m {
			if w > limit {
				break
			}
			w += weight(e, limit-w)
		}
	}
	return w
}

func (in *refInterp) checkWeight(v Val) error {
	if in.maxWeight > 0 && v.IsData() && weight(v.data, in.maxWeight) > in.maxWeight {
		return errTooBig
	}
	return nil
}

func newRefInterp(b Budget, out func(string)) *refInterp {
	return &refInterp{budget: b, host: &Interp{out: out}, envs: map[*Closure]*refEnv{}}
}

func (in *refInterp) closure(fn *FnLit, env *refEnv) *Closure {
	c := &Closure{Fn: fn}
	in.envs[c] = env
	return c
}

func (in *refInterp) Steps() int { return in.steps }

func (in *refInterp) step(pos Pos) error {
	in.steps++
	if in.budget.MaxSteps > 0 && in.steps > in.budget.MaxSteps {
		return fmt.Errorf("%w (steps > %d at %s)", ErrBudget, in.budget.MaxSteps, pos)
	}
	return nil
}

// Run evaluates a program in env. The value of a trailing `return` (or
// Null) is returned.
func (in *refInterp) Run(p *Program, env *refEnv) (Val, error) {
	v, c, err := in.execStmts(p.Stmts, env)
	if err != nil {
		return NullVal, err
	}
	if c == ctrlBreak || c == ctrlContinue {
		return NullVal, fmt.Errorf("%w: break/continue outside loop", ErrRuntime)
	}
	return v, nil
}

// CallClosure applies a closure to arguments. Missing arguments are Null;
// extra arguments are bound to the trailing variadic-style name "args" if
// declared, otherwise ignored.
func (in *refInterp) CallClosure(c *Closure, args []Val) (Val, error) {
	in.depth++
	defer func() { in.depth-- }()
	if in.budget.MaxDepth > 0 && in.depth > in.budget.MaxDepth {
		return NullVal, fmt.Errorf("%w (depth > %d)", ErrBudget, in.budget.MaxDepth)
	}
	env := in.envs[c].Child()
	for i, p := range c.Fn.Params {
		if i < len(args) {
			env.Define(p, args[i])
		} else {
			env.Define(p, NullVal)
		}
	}
	v, ctl, err := in.execStmts(c.Fn.Body.Stmts, env)
	if err != nil {
		return NullVal, err
	}
	if ctl == ctrlBreak || ctl == ctrlContinue {
		return NullVal, fmt.Errorf("%w: break/continue outside loop", ErrRuntime)
	}
	if ctl == ctrlReturn {
		return v, nil
	}
	return NullVal, nil
}

func (in *refInterp) execStmts(stmts []Stmt, env *refEnv) (Val, ctrl, error) {
	for _, s := range stmts {
		v, c, err := in.execStmt(s, env)
		if err != nil {
			return NullVal, ctrlNone, err
		}
		if c != ctrlNone {
			return v, c, nil
		}
	}
	return NullVal, ctrlNone, nil
}

func (in *refInterp) execStmt(s Stmt, env *refEnv) (Val, ctrl, error) {
	switch st := s.(type) {
	case *Let:
		if err := in.step(st.Pos); err != nil {
			return NullVal, ctrlNone, err
		}
		v, err := in.eval(st.Expr, env)
		if err != nil {
			return NullVal, ctrlNone, err
		}
		env.Define(st.Name, v)
		return NullVal, ctrlNone, nil

	case *Assign:
		if err := in.step(st.Pos); err != nil {
			return NullVal, ctrlNone, err
		}
		v, err := in.eval(st.Expr, env)
		if err != nil {
			return NullVal, ctrlNone, err
		}
		return NullVal, ctrlNone, in.assign(st.Target, v, env)

	case *ExprStmt:
		if err := in.step(st.Pos); err != nil {
			return NullVal, ctrlNone, err
		}
		_, err := in.eval(st.Expr, env)
		return NullVal, ctrlNone, err

	case *Return:
		if err := in.step(st.Pos); err != nil {
			return NullVal, ctrlNone, err
		}
		if st.Expr == nil {
			return NullVal, ctrlReturn, nil
		}
		v, err := in.eval(st.Expr, env)
		if err != nil {
			return NullVal, ctrlNone, err
		}
		return v, ctrlReturn, nil

	case *If:
		if err := in.step(st.Pos); err != nil {
			return NullVal, ctrlNone, err
		}
		cond, err := in.eval(st.Cond, env)
		if err != nil {
			return NullVal, ctrlNone, err
		}
		if cond.Truthy() {
			return in.execStmts(st.Then.Stmts, env.Child())
		}
		if st.Else != nil {
			switch e := st.Else.(type) {
			case *Block:
				return in.execStmts(e.Stmts, env.Child())
			default:
				return in.execStmt(st.Else, env)
			}
		}
		return NullVal, ctrlNone, nil

	case *While:
		for {
			if err := in.step(st.Pos); err != nil {
				return NullVal, ctrlNone, err
			}
			cond, err := in.eval(st.Cond, env)
			if err != nil {
				return NullVal, ctrlNone, err
			}
			if !cond.Truthy() {
				return NullVal, ctrlNone, nil
			}
			v, c, err := in.execStmts(st.Body.Stmts, env.Child())
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
		iter, err := in.eval(st.Iter, env)
		if err != nil {
			return NullVal, ctrlNone, err
		}
		it, err := iterate(iter)
		if err != nil {
			return NullVal, ctrlNone, fmt.Errorf("%s: %w", st.Pos, err)
		}
		for i := 0; i < it.n; i++ {
			el := it.at(i)
			if err := in.step(st.Pos); err != nil {
				return NullVal, ctrlNone, err
			}
			scope := env.Child()
			scope.Define(st.Var, el)
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
		return in.execStmts(st.Stmts, env.Child())
	default:
		return NullVal, ctrlNone, fmt.Errorf("%w: unknown statement %T", ErrRuntime, s)
	}
}

func (in *refInterp) assign(target Expr, v Val, env *refEnv) error {
	switch t := target.(type) {
	case *Ident:
		if !env.Set(t.Name, v) {
			return fmt.Errorf("%w: %s: assignment to undeclared variable %q (use let)", ErrRuntime, t.Pos, t.Name)
		}
		return nil
	case *Index:
		container, err := in.eval(t.X, env)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.Idx, env)
		if err != nil {
			return err
		}
		if err := storeIndex(container, idx, v, t.Pos); err != nil {
			return err
		}
		return in.checkWeight(container)
	case *Field:
		container, err := in.eval(t.X, env)
		if err != nil {
			return err
		}
		if obj, ok := container.Object(); ok {
			// Field write on a host object is sugar for set(name, value).
			_, err := obj.Call("set", []Val{FromValue(value.NewString(t.Name)), v})
			return err
		}
		if err := storeIndex(container, FromValue(value.NewString(t.Name)), v, t.Pos); err != nil {
			return err
		}
		return in.checkWeight(container)
	default:
		return fmt.Errorf("%w: invalid assignment target %T", ErrRuntime, target)
	}
}

func (in *refInterp) eval(e Expr, env *refEnv) (Val, error) {
	v, err := in.evalNode(e, env)
	if err == nil {
		err = in.checkWeight(v)
	}
	return v, err
}

func (in *refInterp) evalNode(e Expr, env *refEnv) (Val, error) {
	if err := in.step(e.pos()); err != nil {
		return NullVal, err
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
		v, ok := env.Lookup(ex.Name)
		if !ok {
			return NullVal, fmt.Errorf("%w: %s: undefined variable %q", ErrRuntime, ex.Pos, ex.Name)
		}
		return v, nil

	case *ListLit:
		elems := make([]value.Value, len(ex.Elems))
		for i, el := range ex.Elems {
			v, err := in.eval(el, env)
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
			v, err := in.eval(p.Value, env)
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
		return FromClosure(in.closure(ex, env)), nil

	case *Unary:
		x, err := in.eval(ex.X, env)
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
		return in.evalBinary(ex, env)

	case *Call:
		// Builtins are bare identifiers resolved only when no variable
		// shadows them, so scripts can redefine `len` locally if they wish.
		if id, ok := ex.Fn.(*Ident); ok {
			if _, shadowed := env.Lookup(id.Name); !shadowed {
				if fn, ok := builtins[id.Name]; ok {
					args, err := in.evalArgs(ex.Args, env)
					if err != nil {
						return NullVal, err
					}
					return fn(in.host, args)
				}
			}
		}
		fnv, err := in.eval(ex.Fn, env)
		if err != nil {
			return NullVal, err
		}
		args, err := in.evalArgs(ex.Args, env)
		if err != nil {
			return NullVal, err
		}
		return in.apply(fnv, args, ex.Pos)

	case *Index:
		x, err := in.eval(ex.X, env)
		if err != nil {
			return NullVal, err
		}
		idx, err := in.eval(ex.Idx, env)
		if err != nil {
			return NullVal, err
		}
		return loadIndex(x, idx, ex.Pos)

	case *Field:
		x, err := in.eval(ex.X, env)
		if err != nil {
			return NullVal, err
		}
		if obj, ok := x.Object(); ok {
			// Field read on a host object is sugar for get(name).
			return obj.Call("get", []Val{FromValue(value.NewString(ex.Name))})
		}
		return loadIndex(x, FromValue(value.NewString(ex.Name)), ex.Pos)

	case *MethodCall:
		x, err := in.eval(ex.X, env)
		if err != nil {
			return NullVal, err
		}
		args, err := in.evalArgs(ex.Args, env)
		if err != nil {
			return NullVal, err
		}
		if obj, ok := x.Object(); ok {
			return obj.Call(ex.Name, args)
		}
		// Calling a function stored in a map entry.
		member, err := loadIndex(x, FromValue(value.NewString(ex.Name)), ex.Pos)
		if err != nil {
			return NullVal, err
		}
		return in.apply(member, args, ex.Pos)

	default:
		return NullVal, fmt.Errorf("%w: unknown expression %T", ErrRuntime, e)
	}
}

func (in *refInterp) evalArgs(exprs []Expr, env *refEnv) ([]Val, error) {
	args := make([]Val, len(exprs))
	for i, a := range exprs {
		v, err := in.eval(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return args, nil
}

// apply calls a closure value.
func (in *refInterp) apply(fnv Val, args []Val, pos Pos) (Val, error) {
	if c, ok := fnv.Closure(); ok {
		return in.CallClosure(c, args)
	}
	return NullVal, fmt.Errorf("%w: %s: %s is not callable", ErrRuntime, pos, fnv)
}

func (in *refInterp) evalBinary(ex *Binary, env *refEnv) (Val, error) {
	// Short-circuit logical operators.
	if ex.Op == TokAnd || ex.Op == TokOr {
		x, err := in.eval(ex.X, env)
		if err != nil {
			return NullVal, err
		}
		if ex.Op == TokAnd && !x.Truthy() {
			return FromValue(value.False), nil
		}
		if ex.Op == TokOr && x.Truthy() {
			return FromValue(value.True), nil
		}
		y, err := in.eval(ex.Y, env)
		if err != nil {
			return NullVal, err
		}
		return FromValue(value.NewBool(y.Truthy())), nil
	}

	xv, err := in.eval(ex.X, env)
	if err != nil {
		return NullVal, err
	}
	yv, err := in.eval(ex.Y, env)
	if err != nil {
		return NullVal, err
	}
	return binaryOp(ex, xv, yv)
}
