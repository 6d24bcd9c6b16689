package mscript

import "testing"

// fnAt digs the function literal out of `return fn…;` or `let x = fn…;`.
func fnAt(t *testing.T, st Stmt) *FnLit {
	t.Helper()
	var e Expr
	switch s := st.(type) {
	case *Return:
		e = s.Expr
	case *Let:
		e = s.Expr
	}
	fn, ok := e.(*FnLit)
	if !ok {
		t.Fatalf("no function literal in %T", st)
	}
	return fn
}

// The resolver's layout decisions: which scopes get a frame of their own,
// and how large frames are. The differential test cannot see these — a
// frame allocated needlessly computes the same values.
func TestResolveLayout(t *testing.T) {
	quote := parseFn(t, `fn(keys) {
		let recs = self.records; let total = 0; let n = 0;
		for k in keys { if has(recs, k) { total = total + recs[k]["price"]; n = n + 1; } }
		return {"total": total, "count": n};
	}`)
	loop := quote.Body.Stmts[3].(*ForIn)
	if quote.heap || loop.Body.heap || loop.Body.Stmts[0].(*If).Then.heap {
		t.Error("a body without inner functions has a scope marked heap")
	}
	// keys; recs, total, n; k; and last the free names, self and has.
	if quote.nslots != 7 || loop.slot != 4 {
		t.Errorf("quote: %d slots, loop variable in %d; want 7 and 4", quote.nslots, loop.slot)
	}
	if !quote.Mentions("self") || quote.Mentions("args") || quote.Mentions("ctx") || quote.Mentions("recs") {
		t.Errorf("quote mentions: free = %v", quote.free)
	}

	siblings := parseFn(t, `fn() { { let a = 1; } { let b = 2; let c = 3; { let d = 4; } } { let e = 5; } }`)
	if siblings.nslots != 3 {
		t.Errorf("sibling blocks share slots: frame of %d, want 3", siblings.nslots)
	}

	perTurn := parseFn(t, `fn(xs) { let f = 0; for x in xs { let k = x; f = fn() { return k; }; } while f { let w = 1; } return f; }`)
	body := perTurn.Body.Stmts[1].(*ForIn).Body
	if !body.heap || body.nslots != 2 || perTurn.Body.Stmts[1].(*ForIn).slot != 0 {
		t.Errorf("a loop body a closure captures: heap %v, %d slots", body.heap, body.nslots)
	}
	if perTurn.heap || perTurn.Body.Stmts[2].(*While).Body.heap {
		t.Error("scopes no closure reaches were marked heap")
	}

	adder := parseFn(t, `fn(n) { return fn(x) { return x + n; }; }`)
	if !adder.heap || fnAt(t, adder.Body.Stmts[0]).heap {
		t.Error("a captured parameter: the outer frame must be heap, the inner one not")
	}

	// The middle function binds nothing the innermost uses, but its frame
	// is the link from the innermost to the outermost.
	chain := parseFn(t, `fn(a) { return fn(b) { return fn(c) { return a; }; }; }`)
	mid := fnAt(t, chain.Body.Stmts[0])
	if !chain.heap || !mid.heap || fnAt(t, mid.Body.Stmts[0]).heap {
		t.Error("frames on the way to a captured variable must be heap, the innermost not")
	}

	// A root name reached from an inner function lives in the root frame.
	hostUser := parseFn(t, `fn() { let h = fn() { return self.n; }; return h(); }`)
	if !hostUser.heap {
		t.Error("an inner function that mentions self must keep the root frame")
	}
	inner := parseFn(t, `fn(v) { let h = fn(x) { return x + 1; }; return h(v); }`)
	if inner.heap || fnAt(t, inner.Body.Stmts[0]).heap {
		t.Error("a closed inner function must not cost its maker a frame")
	}
}

// A function lifted out of the program it was resolved in is refused, not
// run against frames that are not there.
func TestLiftedFunctionIsRefused(t *testing.T) {
	outer := parseFn(t, `fn(n) { return fn(x) { return x + n; }; }`)
	lifted := &Closure{Fn: fnAt(t, outer.Body.Stmts[0]), Env: NewEnv()}
	if _, err := NewInterp().CallClosure(lifted, []Val{FromValue(intV(1))}); err == nil {
		t.Error("a lifted inner function ran")
	}
	// Its free variables are those of its own source.
	if got := FreeVars(lifted.Fn); len(got) != 1 || got[0] != "n" {
		t.Errorf("FreeVars of a lifted function = %v, want [n]", got)
	}
	if err := CheckMobile(lifted.Fn); err == nil {
		t.Error("a lifted function that captures passed CheckMobile")
	}
}
