package mscript

// Differential oracle for static name resolution: every program is run by
// the slot-frame interpreter and by the map-per-scope evaluator it replaced
// (mapenv_test.go), and the two must agree on the result, the error text,
// the print output, the host object's final state and Steps().

import (
	"errors"
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/value"
)

// outcome is everything a caller can observe of one run.
type outcome struct {
	Result string
	Err    string
	Out    []string
	Self   string // the host object's items afterwards
	Steps  int
}

func describe(v Val) string {
	switch {
	case v.IsClosure():
		return "fn " + v.fn.Source()
	case v.IsObject():
		return "object " + v.obj.HostName()
	default:
		return v.data.Kind().String() + " " + v.data.String()
	}
}

func newSelf() *fakeObject {
	return &fakeObject{name: "self", items: map[string]value.Value{"n": value.NewInt(41)}}
}

func finish(o *outcome, v Val, err error, self *fakeObject, steps int) {
	if err != nil {
		o.Err = err.Error()
	} else {
		o.Result = describe(v)
	}
	o.Self = value.NewMap(self.items).String()
	o.Steps = steps
}

// The root table both evaluators get: a host object and one plain value.
var rootLimit = FromValue(value.NewInt(3))

// callArgs are what a bare function literal is applied to.
var callArgs = []Val{FromValue(value.NewInt(5)), FromValue(value.NewInt(2))}

// runSlots runs a program (or applies a function literal) on slot frames.
func runSlots(p *Program, fn *FnLit, b Budget) (o outcome) {
	self := newSelf()
	env := NewEnv()
	env.Define("self", FromObject(self))
	env.Define("limit", rootLimit)
	in := NewInterp(WithBudget(b), WithOutput(func(s string) { o.Out = append(o.Out, s) }))
	var v Val
	var err error
	if p != nil {
		v, err = in.Run(p, env)
	} else {
		v, err = in.CallClosure(&Closure{Fn: fn, Env: env}, callArgs)
	}
	finish(&o, v, err, self, in.Steps())
	return o
}

// runMapEnv is runSlots on the reference evaluator.
func runMapEnv(p *Program, fn *FnLit, b Budget, maxWeight int) (o outcome, tooBig bool) {
	self := newSelf()
	env := newRefEnv()
	env.Define("self", FromObject(self))
	env.Define("limit", rootLimit)
	in := newRefInterp(b, func(s string) { o.Out = append(o.Out, s) })
	in.maxWeight = maxWeight
	var v Val
	var err error
	if p != nil {
		v, err = in.Run(p, env)
	} else {
		v, err = in.CallClosure(in.closure(fn, env), callArgs)
	}
	finish(&o, v, err, self, in.Steps())
	return o, errors.Is(err, errTooBig)
}

// harnessWeight bounds the values of generated and fuzzed programs.
const harnessWeight = 1 << 14

// disagree runs src (a program, or else a function literal) both ways and
// describes the first difference; "" means the evaluators agree, or that
// src does not parse or outgrew the harness.
func disagree(src string, b Budget) string {
	diff, _ := compare(src, b)
	return diff
}

// compare is disagree that also reports whether the run ended without error.
func compare(src string, b Budget) (diff string, finished bool) {
	p, err := Parse(src)
	var fn *FnLit
	if err != nil {
		if fn, err = ParseFunction(src); err != nil {
			return "", false
		}
		p = nil
	}
	want, tooBig := runMapEnv(p, fn, b, harnessWeight)
	if tooBig {
		return "", false
	}
	got := runSlots(p, fn, b)
	if !reflect.DeepEqual(got, want) {
		diff = fmt.Sprintf("budget %+v\n slots: %+v\nmapenv: %+v", b, got, want)
	}
	return diff, got.Err == ""
}

// corners are the scoping rules DESIGN §4 lists, one program each (some
// two): what a resolver that hoists, caches or shares too much gets wrong.
var corners = map[string]string{
	"a: read before let falls through to the outer binding": `
let x = 1; let seen = 0;
{ seen = x; let x = 2; seen = seen * 10 + x; }
for i in 2 { seen = seen * 10 + x; let x = 7; }
return seen;`,
	"a: read before let falls through to a builtin": `
let n = len([1, 2]); let len = fn(l) { return 99; }; return n * 100 + len([1]);`,
	"a: read before let, nothing outside, is undefined": `
{ print(y); let y = 1; }`,
	"a: an unset slot behind a closure is absent, not null": `
let x = 1;
{ let g = fn() { return x; }; let first = g(); let x = 5; return first * 10 + g(); }`,
	"a: root table behind an unset local": `
{ let g = fn() { return limit; }; let first = g(); let limit = 8; return first * 10 + g(); }`,
	"b: a second let overwrites in place": `
let x = 1; let g = fn() { return x; }; let x = 2; return g();`,
	"b: let over a parameter and over a loop variable": `
let f = fn(a) { let a = a + 1; return a; };
let t = 0; for i in 3 { let i = i * 10; t = t + i; }
return f(1) * 1000 + t;`,
	"c: a closure sees a variable declared after it": `
let fib = fn(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); };
return fib(10);`,
	"c: mutual recursion, and a call before the let has run": `
let even = fn(n) { if n == 0 { return true; } return odd(n - 1); };
let early = 0;
if false { early = even(3); }
let odd = fn(n) { if n == 0 { return false; } return even(n - 1); };
return even(10);`,
	"c: called too early it is undefined": `
let f = fn() { return later; }; f(); let later = 1;`,
	"d: closures of different loop turns hold different bindings": `
let a = null; let b = null;
for i in 3 { let k = i * 10; if i == 0 { a = fn() { k = k + 1; return k; }; } if i == 2 { b = fn() { return k + i; }; } }
let n = 0; let c = null; let d = null;
while n < 2 { let w = n; n = n + 1; if w == 0 { c = fn() { return w; }; } else { d = fn() { return w; }; } }
return [a(), a(), b(), c(), d()];`,
	"e: let len shadows from that statement on, in its scope only": `
let a = len([1, 2, 3]);
{ let b = len([1]); let len = fn(x) { return 42; }; a = a * 100 + b * 10 + len([1]); }
return a * 10 + len([1, 2]);`,
	"e: a builtin name as a parameter, and as a plain value": `
let f = fn(max) { return max + 1; };
let g = fn() { return max; };
print(f(1)); return g();`,
	"e: a builtin name the root table defines is shadowed everywhere": `
return limit + (fn(limit) { return limit; })(4);`,
	"f: assignment to an undeclared name": `
{ let x = 1; } x = 2;`,
	"f: assignment writes the nearest defined binding": `
let x = 1;
{ x = 2; let x = 10; x = 11; { x = 12; } print(x); }
let set = fn() { x = x + 100; };
set();
return x;`,
	"f: assignment through a closure to an unset slot goes further out": `
let x = 1; let r = 0;
{ let set = fn(v) { x = v; }; set(5); let x = 7; set(9); r = x; }
return r * 10 + x;`,
	"f: assignment to a root name stays in the activation": `
limit = limit + 1; return limit;`,
	"g: a returned closure keeps its captures alive and mutable": `
let counter = fn() { let n = 0; return fn() { n = n + 1; return n; }; };
let c1 = counter(); let c2 = counter();
c1(); c1();
return c1() * 10 + c2();`,
	"g: a closure two functions deep": `
let outer = fn(a) { return fn(b) { return fn(c) { a = a + 1; return a * 100 + b * 10 + c; }; }; };
let f = outer(1)(2);
f(3); return f(4);`,
	"g: a function passed down and called under other frames": `
let apply = fn(f, v) { let x = 1000; return f(v); };
let x = 1; let add = fn(v) { return v + x; };
return apply(add, 5) + apply(fn(v) { return apply(add, v) * 2; }, 1);`,
	"h: the budget ends a run at the same step": `
let t = 0; for i in 1000 { let sq = fn(v) { return v * v; }; t = t + sq(i); } return t;`,
	"h: the depth limit": `
let f = fn(n) { return f(n + 1); }; return f(0);`,
	"h: break and continue outside a loop, inside a function": `
let f = fn() { break; }; f();`,
	"host object sugar and arguments on the stack": `
self.n = self.n + 1; let e = fn(v) { return self.echo(v); };
return self.echo(e(self.n) + self.get("n"));`,
	"a list mutated while it is iterated": `
let l = [1, 2, 3]; let t = 0; for x in l { l[2] = 99; t = t + x; } return t * 1000 + l[2];`,
}

var cornerBudgets = []Budget{
	DefaultBudget,
	{MaxSteps: 10_000, MaxDepth: 32},
	{MaxSteps: 500, MaxDepth: 8},
	{MaxSteps: 37, MaxDepth: 3},
}

// corpus collects every string literal of the package's test files that
// parses as a program or a function literal — so every program
// interp_test.go, freevars_test.go, the benchmarks and the golden vectors
// run.
func corpus(t testing.TB) []string {
	var out []string
	add := func(src string) {
		if _, err := Parse(src); err == nil && strings.TrimSpace(src) != "" {
			out = append(out, src)
		} else if _, err := ParseFunction(src); err == nil {
			out = append(out, src)
		}
	}
	files, err := filepath.Glob("*_test.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no test files to read programs from: %v", err)
	}
	for _, name := range files {
		if name == "slots_test.go" {
			continue // the corners run on their own, under more budgets
		}
		f, err := goparser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					add(s)
				}
			}
			return true
		})
	}
	if len(out) < 150 {
		t.Fatalf("only %d programs found in the test files", len(out))
	}
	return out
}

// ---- random programs ----

// node is a generated statement: text, or a header with nested bodies, so
// that a failing program can be shrunk by deleting nodes at any depth.
type node struct {
	head string  // "let a = 1;", or "if a < 2" / "while a < 3" / "for i in 3" / "" (bare block)
	body []*node // nil for a simple statement
	els  []*node // else branch of an if
	wrap string  // "let f = fn(p) " … ";" : body is a function body
}

func (n *node) render(sb *strings.Builder) {
	if n.body == nil {
		sb.WriteString(n.head + "\n")
		return
	}
	sb.WriteString(n.head + " {\n")
	renderAll(sb, n.body)
	sb.WriteString("}")
	if n.els != nil {
		sb.WriteString(" else {\n")
		renderAll(sb, n.els)
		sb.WriteString("}")
	}
	sb.WriteString(n.wrap + "\n")
}

func renderAll(sb *strings.Builder, ns []*node) {
	for _, n := range ns {
		n.render(sb)
	}
}

func source(prog []*node) string {
	var sb strings.Builder
	renderAll(&sb, prog)
	return sb.String()
}

// gen draws programs over a deliberately small pool of names, two of them
// builtins and one defined by the root table, so that shadowing, forward
// references and captures happen by themselves. It keeps track of what
// the text has declared so far and of which kind (a number or a function)
// and mostly uses names accordingly, so that most programs run to their
// end; the rest of the time it picks any name at all.
type gen struct {
	r      *rand.Rand
	scopes []map[string]kind // innermost last
	loops  int               // loop nesting inside the current function
	fns    int               // function nesting
}

type kind int

const (
	kInt kind = iota
	kFn
)

var (
	intNames = []string{"a", "b", "c", "limit", "len"}
	fnNames  = []string{"f", "g", "max", "len"}
	anyNames = []string{"a", "b", "c", "limit", "f", "g", "len", "max"}
)

func (g *gen) pick(options ...string) string { return options[g.r.Intn(len(options))] }

func (g *gen) chance(percent int) bool { return g.r.Intn(100) < percent }

func (g *gen) push() { g.scopes = append(g.scopes, map[string]kind{}) }
func (g *gen) pop()  { g.scopes = g.scopes[:len(g.scopes)-1] }

func (g *gen) declare(name string, k kind) { g.scopes[len(g.scopes)-1][name] = k }

// visible picks a declared name of kind k, or any name now and then.
func (g *gen) visible(k kind) string {
	var names []string
	for _, n := range anyNames {
		for i := len(g.scopes) - 1; i >= 0; i-- {
			if got, ok := g.scopes[i][n]; ok {
				if got == k {
					names = append(names, n)
				}
				break
			}
		}
	}
	if len(names) == 0 || g.chance(2) {
		return g.pick(anyNames...)
	}
	return g.pick(names...)
}

func (g *gen) num(depth int) string {
	if depth <= 0 || g.chance(30) {
		if g.chance(50) {
			return strconv.Itoa(g.r.Intn(5))
		}
		return g.visible(kInt)
	}
	d := depth - 1
	switch g.r.Intn(11) {
	case 0, 1, 2:
		return "(" + g.num(d) + " " + g.pick("+", "-", "*") + " " + g.num(d) + ")"
	case 3, 4, 5:
		return g.visible(kFn) + "(" + g.num(d) + ")"
	case 6:
		return g.pick("len(["+g.num(d)+", 1])", "max("+g.num(d)+", "+g.num(d)+")", "abs("+g.num(d)+")")
	case 7:
		return "(" + g.fn(d, "p") + ")(" + g.num(d) + ")"
	case 8:
		return g.pick("self.n", "self.echo("+g.num(d)+")", "[1, 2, 3][("+g.num(d)+" % 3)]")
	case 9:
		return "-" + g.num(d)
	default:
		return g.visible(kInt)
	}
}

func (g *gen) cond(depth int) string {
	switch g.r.Intn(6) {
	case 0:
		return g.pick("true", "false", "!"+g.visible(kInt))
	case 1:
		return "(" + g.cond(depth-1) + " " + g.pick("&&", "||") + " " + g.num(depth) + ")"
	default:
		return "(" + g.num(depth) + " " + g.pick("<", "==", ">=", "!=") + " " + g.num(depth) + ")"
	}
}

// fn renders a function literal; its body ends in a return of a number.
func (g *gen) fn(depth int, params string) string {
	var sb strings.Builder
	g.fnBody(depth, params).render(&sb)
	return strings.TrimSuffix(sb.String(), "\n")
}

func (g *gen) fnBody(depth int, params string) *node {
	loops := g.loops
	g.loops, g.fns = 0, g.fns+1
	g.push()
	for _, p := range strings.Split(params, ", ") {
		if p != "" {
			g.declare(p, kInt)
		}
	}
	body := g.stmts(depth, 3)
	if g.chance(85) {
		body = append(body, &node{head: "return " + g.num(depth) + ";"})
	}
	g.pop()
	g.loops, g.fns = loops, g.fns-1
	return &node{head: "fn(" + params + ")", body: body}
}

// block generates statements in a scope of their own, which bound (a loop
// variable) is already part of.
func (g *gen) block(depth, max int, bound ...string) []*node {
	g.push()
	for _, n := range bound {
		g.declare(n, kInt)
	}
	out := g.stmts(depth, max)
	g.pop()
	return out
}

func (g *gen) stmts(depth, max int) []*node {
	n := 1 + g.r.Intn(max)
	out := make([]*node, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.stmt(depth))
	}
	return out
}

func (g *gen) loop(head string, depth int, tail *node, bound ...string) *node {
	g.loops++
	body := g.block(depth, 3, bound...)
	g.loops--
	if tail != nil {
		body = append(body, tail)
	}
	return &node{head: head, body: body}
}

func (g *gen) stmt(depth int) *node {
	d := depth - 1
	if depth <= 0 {
		return &node{head: g.visible(kInt) + " = " + g.num(1) + ";"}
	}
	switch g.r.Intn(21) {
	case 20:
		if g.loops > 0 {
			// A closure made on one turn only, over a variable of that
			// turn when there is one: it outlives the turn.
			v := g.visible(kInt)
			for name, k := range g.scopes[len(g.scopes)-1] {
				if k == kInt && name < v {
					v = name // the choice must not depend on map order
				}
			}
			n := &node{head: g.visible(kFn) + " = fn(p) { return (" + v + " * 10) + " + g.num(1) + "; };"}
			return &node{head: "if (" + v + " == " + strconv.Itoa(g.r.Intn(3)) + ")", body: []*node{n}}
		}
		fallthrough
	case 0, 1, 2:
		name, val := g.pick(intNames...), g.num(depth)
		g.declare(name, kInt)
		return &node{head: "let " + name + " = " + val + ";"}
	case 3, 4, 5:
		// A function under a name, declared only after its body is
		// drawn: a body that calls it by name reads a later let.
		name := g.pick(fnNames...)
		n := g.fnBody(d, g.pick("", "p", "p, q", "a", "len"))
		if g.chance(75) {
			n.head = "let " + name + " = " + n.head
			g.declare(name, kFn)
		} else {
			n.head = g.visible(kFn) + " = " + n.head
		}
		n.wrap = ";"
		return n
	case 6, 7:
		return &node{head: g.visible(kInt) + " = " + g.num(depth) + ";"}
	case 8:
		return &node{head: "print(" + g.num(d) + ");"}
	case 9:
		return &node{head: g.visible(kFn) + "(" + g.num(d) + ");"}
	case 10, 11:
		n := &node{head: "if " + g.cond(d), body: g.block(d, 3)}
		if g.chance(50) {
			n.els = g.block(d, 2)
		}
		return n
	case 12:
		v := g.visible(kInt)
		return g.loop("while "+v+" < "+strconv.Itoa(1+g.r.Intn(3)), d, &node{head: v + " = " + v + " + 1;"})
	case 13:
		return g.loop("while "+g.cond(d), d, nil)
	case 14, 15:
		v := g.pick(intNames...)
		return g.loop("for "+v+" in "+g.pick("2", "3", "[1, 2]", "[4]", g.visible(kInt)), d, nil, v)
	case 16:
		if g.loops > 0 || g.chance(5) {
			return &node{head: g.pick("break;", "continue;")}
		}
		return &node{head: "self.n = " + g.num(d) + ";"}
	case 17:
		if g.fns > 0 || g.chance(3) {
			return &node{head: "return " + g.num(d) + ";"}
		}
		return &node{head: "print(" + g.visible(kInt) + ");"}
	default:
		return &node{head: "", body: g.block(d, 3)}
	}
}

func (g *gen) program() []*node {
	g.push()
	g.declare("limit", kInt) // the root table's
	// Most programs start with most names bound, or nearly all of them
	// would end at the first undefined variable.
	var prog []*node
	for _, n := range []string{"a", "b", "c"} {
		if g.chance(80) {
			prog = append(prog, &node{head: "let " + n + " = " + strconv.Itoa(g.r.Intn(4)) + ";"})
			g.declare(n, kInt)
		}
	}
	for _, n := range []string{"f", "g"} {
		if g.chance(70) {
			fn := g.fnBody(1, "p")
			fn.head, fn.wrap = "let "+n+" = "+fn.head, ";"
			prog = append(prog, fn)
			g.declare(n, kFn)
		}
	}
	prog = append(prog, g.stmts(3, 6)...)
	if g.chance(10) {
		prog = append(prog, &node{head: "let rec = fn(n) { return rec(n + 1) + a; }; rec(0);"})
	}
	return append(prog, &node{head: "return [" + g.num(2) + ", " + g.num(1) + "];"})
}

func (g *gen) budget() Budget {
	steps := []int{25, 80, 300, 2_000, 10_000, 10_000}
	depths := []int{2, 5, 32, 32}
	return Budget{MaxSteps: steps[g.r.Intn(len(steps))], MaxDepth: depths[g.r.Intn(len(depths))]}
}

// shrink deletes nodes, at any depth, for as long as the program still
// fails, and returns the smallest failing program it reaches.
func shrink(prog []*node, fails func([]*node) bool) []*node {
	for changed := true; changed; {
		changed = false
		var try func(list *[]*node) bool
		try = func(list *[]*node) bool {
			for i := 0; i < len(*list); i++ {
				saved := *list
				*list = append(append([]*node{}, saved[:i]...), saved[i+1:]...)
				if fails(prog) {
					return true
				}
				*list = saved
				if n := saved[i]; try(&n.body) || try(&n.els) {
					return true
				}
			}
			return false
		}
		changed = try(&prog)
	}
	return prog
}

func TestSlotsEqualMapEnv(t *testing.T) {
	t.Run("test-files", func(t *testing.T) {
		for _, src := range corpus(t) {
			for _, b := range cornerBudgets[:2] {
				if diff := disagree(src, b); diff != "" {
					t.Errorf("program:\n%s\n%s", src, diff)
				}
			}
		}
	})
	t.Run("corners", func(t *testing.T) {
		for name, src := range corners {
			if _, err := Parse(src); err != nil {
				t.Fatalf("corner %q does not parse: %v", name, err)
			}
			for _, b := range cornerBudgets {
				if diff := disagree(src, b); diff != "" {
					t.Errorf("corner %q:\n%s", name, diff)
				}
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		seeds := 600
		if testing.Short() {
			seeds = 150
		}
		finished := 0
		for seed := 1; seed <= seeds; seed++ {
			g := &gen{r: rand.New(rand.NewSource(int64(seed)))}
			prog, b := g.program(), g.budget()
			src := source(prog)
			if _, err := Parse(src); err != nil {
				t.Fatalf("seed %d: generated program does not parse: %v\n%s", seed, err, src)
			}
			diff, ok := compare(src, b)
			if diff != "" {
				small := shrink(prog, func(p []*node) bool { return disagree(source(p), b) != "" })
				t.Fatalf("seed %d: evaluators disagree; shrunk to\n%s\n%s", seed, source(small), disagree(source(small), b))
			}
			if ok {
				finished++
			}
		}
		// The generator is only a test if a fair share of its programs
		// get somewhere: errors are compared too, but they end a run.
		t.Logf("%d of %d generated programs ran to completion", finished, seeds)
		if finished*5 < seeds {
			t.Errorf("only %d of %d generated programs ran to completion", finished, seeds)
		}
	})
}

// FuzzEval: any source that lexes, parses and resolves runs under a small
// budget on both evaluators without panicking, and they agree.
func FuzzEval(f *testing.F) {
	for _, src := range corpus(f) {
		f.Add(src)
	}
	for _, src := range corners {
		f.Add(src)
	}
	for seed := int64(1); seed <= 20; seed++ {
		f.Add(source((&gen{r: rand.New(rand.NewSource(seed))}).program()))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if diff := disagree(src, Budget{MaxSteps: 10_000, MaxDepth: 32}); diff != "" {
			t.Fatalf("evaluators disagree on\n%s\n%s", src, diff)
		}
	})
}

// A for-in over a range is counted, not built: the budget, not the host's
// memory, is what a huge range runs into.
func TestRangeIsNotMaterialised(t *testing.T) {
	p := mustParse(t, `for i in 10000000 { break; }`)
	in := NewInterp(WithBudget(Budget{MaxSteps: 100}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := in.Run(p, NewEnv())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("a range loop left after one turn allocated %d bytes, want < 64 KB", got)
	}

	p = mustParse(t, `let t = 0; for i in 10000000 { t = t + 1; } return t;`)
	in = NewInterp(WithBudget(Budget{MaxSteps: 100_000}))
	runtime.ReadMemStats(&before)
	_, err = in.Run(p, NewEnv())
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("a range beyond the step budget: %v, want ErrBudget", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("a range loop stopped by its budget allocated %d bytes, want < 64 KB", got)
	}
	if _, err := runErr(`for i in 10000001 { }`); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Errorf("range above maxRange: %v", err)
	}
	// A list is copied when the loop starts: the body may store into it.
	wantInt(t, run(t, `let l = [1, 2, 3]; let t = 0; for x in l { l[2] = 99; t = t + x; } return t * 1000 + l[2];`), 6099)
	// String bytes are counted too.
	wantStr(t, run(t, `let out = ""; for ch in "héy" { out = out + len(ch); } return out;`), "1111")
}
