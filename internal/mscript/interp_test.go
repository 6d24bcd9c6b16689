package mscript

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/value"
)

// run evaluates src in a fresh environment and returns the program result.
func run(t *testing.T, src string) Val {
	t.Helper()
	v, err := runErr(src)
	if err != nil {
		t.Fatalf("run(%q): %v", src, err)
	}
	return v
}

func runErr(src string) (Val, error) {
	p, err := Parse(src)
	if err != nil {
		return NullVal, err
	}
	in := NewInterp()
	return in.Run(p, NewEnv())
}

func wantInt(t *testing.T, v Val, want int64) {
	t.Helper()
	d, err := v.Data()
	if err != nil {
		t.Fatalf("not data: %v", err)
	}
	i, ok := d.Int()
	if !ok || i != want {
		t.Fatalf("got %s, want %d", d, want)
	}
}

func wantStr(t *testing.T, v Val, want string) {
	t.Helper()
	d, err := v.Data()
	if err != nil {
		t.Fatalf("not data: %v", err)
	}
	if d.String() != want {
		t.Fatalf("got %q, want %q", d.String(), want)
	}
}

func TestArithmeticAndVariables(t *testing.T) {
	wantInt(t, run(t, "let x = 2; let y = 3; return x * y + 1;"), 7)
	wantInt(t, run(t, "let x = 10; x = x - 4; return x;"), 6)
	wantInt(t, run(t, "return 7 % 3;"), 1)
	wantStr(t, run(t, `return "a" + "b" + 3;`), "ab3")
	wantInt(t, run(t, `return int("<b>12</b>") + 30;`), 42)
}

func TestComparisonsAndLogic(t *testing.T) {
	tests := []struct {
		src  string
		want bool
	}{
		{"return 1 < 2;", true},
		{"return 2 <= 2;", true},
		{"return 3 > 4;", false},
		{"return 3 >= 4;", false},
		{"return 1 == 1.0;", true},
		{"return 1 != 2;", true},
		{`return "a" == "a";`, true},
		{"return true && false;", false},
		{"return true || false;", true},
		{"return !false;", true},
		{"return null == null;", true},
	}
	for _, tt := range tests {
		v := run(t, tt.src)
		d, _ := v.Data()
		b, ok := d.Bool()
		if !ok || b != tt.want {
			t.Errorf("%q = %v, want %v", tt.src, d, tt.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// Right side would error (undefined var); short-circuit must skip it.
	v := run(t, "return false && boom();")
	d, _ := v.Data()
	if d.Truthy() {
		t.Error("false && … was true")
	}
	v = run(t, "return true || boom();")
	d, _ = v.Data()
	if !d.Truthy() {
		t.Error("true || … was false")
	}
}

func TestControlFlow(t *testing.T) {
	wantInt(t, run(t, `
let total = 0;
for i in 10 { total = total + i; }
return total;`), 45)

	wantInt(t, run(t, `
let n = 0;
while true { n = n + 1; if n == 5 { break; } }
return n;`), 5)

	wantInt(t, run(t, `
let total = 0;
for i in [1, 2, 3, 4] { if i % 2 == 0 { continue; } total = total + i; }
return total;`), 4)

	wantStr(t, run(t, `
if 1 > 2 { return "a"; } else if 2 > 2 { return "b"; } else { return "c"; }`), "c")

	// For over map iterates sorted keys.
	wantStr(t, run(t, `
let out = "";
for k in {b: 1, a: 2, c: 3} { out = out + k; }
return out;`), "abc")

	// For over string iterates bytes.
	wantStr(t, run(t, `
let out = "";
for ch in "xyz" { out = ch + out; }
return out;`), "zyx")
}

func TestFunctionsAndClosures(t *testing.T) {
	wantInt(t, run(t, `
let add = fn(a, b) { return a + b; };
return add(2, 3);`), 5)

	// Closures capture environment.
	wantInt(t, run(t, `
let make = fn(n) { return fn(x) { return x + n; }; };
let add10 = make(10);
return add10(32);`), 42)

	// Recursion via self-reference in scope.
	wantInt(t, run(t, `
let fact = fn(n) { if n <= 1 { return 1; } return n * fact(n - 1); };
return fact(6);`), 720)

	// Missing arguments are null; extra ignored.
	v := run(t, `let f = fn(a, b) { return b; }; return f(1);`)
	d, _ := v.Data()
	if !d.IsNull() {
		t.Errorf("missing arg = %v, want null", d)
	}
	wantInt(t, run(t, `let f = fn(a) { return a; }; return f(9, 8, 7);`), 9)

	// Function with no return yields null.
	v = run(t, `let f = fn() { let x = 3; }; return f();`)
	d, _ = v.Data()
	if !d.IsNull() {
		t.Errorf("no-return fn = %v", d)
	}
}

func TestListsAndMaps(t *testing.T) {
	wantInt(t, run(t, "let l = [10, 20, 30]; return l[1];"), 20)
	wantInt(t, run(t, "let l = [1, 2]; l[0] = 9; return l[0];"), 9)
	wantInt(t, run(t, `let m = {a: 5}; return m["a"];`), 5)
	wantInt(t, run(t, `let m = {a: 5}; return m.a;`), 5)
	wantInt(t, run(t, `let m = {}; m["k"] = 7; return m.k;`), 7)
	wantInt(t, run(t, `let m = {}; m.k = 7; return m["k"];`), 7)
	// Missing map key reads null.
	v := run(t, `let m = {}; return m.absent;`)
	d, _ := v.Data()
	if !d.IsNull() {
		t.Errorf("missing key = %v", d)
	}
	// Nested updates.
	wantInt(t, run(t, `
let m = {inner: [1, 2, 3]};
m.inner[2] = 42;
return m.inner[2];`), 42)
	// Functions cannot be stored in maps (data-plane boundary); see
	// TestDataBoundaryErrors.
}

func TestBuiltins(t *testing.T) {
	wantInt(t, run(t, `return len([1, 2, 3]);`), 3)
	wantInt(t, run(t, `return len("abcd");`), 4)
	wantStr(t, run(t, `return str(12) + str(true);`), "12true")
	wantInt(t, run(t, `return int("99");`), 99)
	v := run(t, `return float("2.5");`)
	d, _ := v.Data()
	if f, _ := d.Float(); f != 2.5 {
		t.Errorf("float = %v", d)
	}
	wantStr(t, run(t, `return str(bool(1)) + str(bool(0)) + str(bool("x")) + str(bool(null)) + str(bool(fn() { }));`),
		"truefalsetruefalsetrue")
	if _, err := runErr(`return bool();`); err == nil {
		t.Error("bool() with no argument succeeded")
	}
	wantStr(t, run(t, `return type([1]);`), "list")
	wantStr(t, run(t, `return type(fn() { });`), "function")
	wantInt(t, run(t, `let l = push([1], 2); return len(l);`), 2)
	wantInt(t, run(t, `return pop([1, 7]);`), 7)
	wantStr(t, run(t, `return join(keys({b: 1, a: 2}), ",");`), "a,b")
	v = run(t, `return has({k: 1}, "k");`)
	d, _ = v.Data()
	if !d.Truthy() {
		t.Error("has = false")
	}
	wantInt(t, run(t, `return len(remove({a: 1, b: 2}, "a"));`), 1)
	wantStr(t, run(t, `return slice("hello", 1, 3);`), "el")
	wantInt(t, run(t, `return len(slice([1,2,3,4], 1, 4));`), 3)
	v = run(t, `return contains("hello", "ell");`)
	d, _ = v.Data()
	if !d.Truthy() {
		t.Error("contains string = false")
	}
	v = run(t, `return contains([1, 2], 2);`)
	d, _ = v.Data()
	if !d.Truthy() {
		t.Error("contains list = false")
	}
	wantStr(t, run(t, `return upper("abc") + lower("DEF");`), "ABCdef")
	wantStr(t, run(t, `return trim("  x  ");`), "x")
	wantStr(t, run(t, `return join(split("a,b,c", ","), "-");`), "a-b-c")
	wantInt(t, run(t, `return abs(-4);`), 4)
	wantInt(t, run(t, `return min(3, 1, 2);`), 1)
	wantInt(t, run(t, `return max(3, 1, 2);`), 3)
	wantStr(t, run(t, `return striphtml("<td>hi there</td>");`), "hi there")

	// error() raises.
	if _, err := runErr(`error("custom failure");`); err == nil || !strings.Contains(err.Error(), "custom failure") {
		t.Errorf("error() = %v", err)
	}
	// Builtins can be shadowed.
	wantInt(t, run(t, `let len = fn(x) { return 42; }; return len([1]);`), 42)
}

func TestPrintOutput(t *testing.T) {
	p, err := Parse(`print("a", 1, [2]); print("b");`)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	in := NewInterp(WithOutput(func(s string) { lines = append(lines, s) }))
	if _, err := in.Run(p, NewEnv()); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || lines[0] != "a 1 [2]" || lines[1] != "b" {
		t.Errorf("print lines: %q", lines)
	}
	// Without a sink print is a no-op.
	in2 := NewInterp()
	if _, err := in2.Run(p, NewEnv()); err != nil {
		t.Errorf("print without sink: %v", err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	bad := []string{
		"return undefinedVar;",
		"x = 3;", // assignment without let
		"return 1 / 0;",
		"return [1][5];",
		"return 5[0];",
		"return {} + 1;",                // map not numeric
		`return "a" < 1;`,               // unordered comparison
		"let l = [1]; l[9] = 0;",        // out-of-range store
		"let i = 3; i[0] = 1;",          // index-assign into int
		"return (fn(){})() + nocall();", // calling non-callable after fn
		"for i in -3 { }",               // negative range
		"for i in null { }",             // non-iterable
		"len();",                        // missing builtin arg
		"pop([]);",
		"keys(3);",
		"slice([1], 0, 5);",
		"join(3, \",\");",
		"break;", // outside loop
	}
	for _, src := range bad {
		if _, err := runErr(src); err == nil {
			t.Errorf("runErr(%q) succeeded, want error", src)
		} else if !errors.Is(err, ErrRuntime) && !errors.Is(err, value.ErrBadType) {
			// Value-layer failures keep their ErrBadType identity; both are
			// script-visible runtime failures.
			t.Errorf("runErr(%q) error %v is neither ErrRuntime nor ErrBadType", src, err)
		}
	}
}

func TestStepBudget(t *testing.T) {
	p, err := Parse("while true { }")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp(WithBudget(Budget{MaxSteps: 1000, MaxDepth: 16}))
	_, err = in.Run(p, NewEnv())
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("infinite loop error = %v, want ErrBudget", err)
	}
	if in.Steps() < 1000 {
		t.Errorf("Steps() = %d", in.Steps())
	}
}

func TestDepthBudget(t *testing.T) {
	p, err := Parse("let f = fn(n) { return f(n + 1); }; return f(0);")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp(WithBudget(Budget{MaxSteps: 1_000_000, MaxDepth: 32}))
	_, err = in.Run(p, NewEnv())
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("infinite recursion error = %v, want ErrBudget", err)
	}
}

// fakeObject is a HostObject for tests: get/set over a map plus an "echo"
// method.
type fakeObject struct {
	name  string
	items map[string]value.Value
	calls []string
}

func (f *fakeObject) HostName() string { return f.name }

func (f *fakeObject) Call(name string, args []Val) (Val, error) {
	f.calls = append(f.calls, name)
	if (name == "get" && len(args) < 1) || (name == "set" && len(args) < 2) {
		return NullVal, fmt.Errorf("%w: %s takes more arguments", ErrRuntime, name)
	}
	switch name {
	case "get":
		d, err := args[0].Data()
		if err != nil {
			return NullVal, err
		}
		return FromValue(f.items[d.String()]), nil
	case "set":
		k, err := args[0].Data()
		if err != nil {
			return NullVal, err
		}
		v, err := args[1].Data()
		if err != nil {
			return NullVal, err
		}
		f.items[k.String()] = v
		return NullVal, nil
	case "echo":
		if len(args) == 0 {
			return NullVal, nil
		}
		return args[0], nil
	default:
		return NullVal, fmt.Errorf("%w: no method %q", ErrRuntime, name)
	}
}

func TestHostObjectIntegration(t *testing.T) {
	obj := &fakeObject{name: "o", items: map[string]value.Value{"n": value.NewInt(41)}}
	p, err := Parse(`
self.set("n", self.get("n") + 1);
let direct = self.n;
self.m = direct * 2;
return self.echo(self.m);`)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	env.Define("self", FromObject(obj))
	in := NewInterp()
	v, err := in.Run(p, env)
	if err != nil {
		t.Fatal(err)
	}
	wantInt(t, v, 84)
	if !obj.items["n"].Equal(value.NewInt(42)) {
		t.Errorf("n = %v", obj.items["n"])
	}
	if !obj.items["m"].Equal(value.NewInt(84)) {
		t.Errorf("m = %v", obj.items["m"])
	}
}

func TestObjectEqualityAndTruthiness(t *testing.T) {
	obj := &fakeObject{name: "o", items: map[string]value.Value{}}
	env := NewEnv()
	env.Define("a", FromObject(obj))
	env.Define("b", FromObject(obj))
	p, err := Parse(`if a == b { return 1; } return 0;`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewInterp().Run(p, env)
	if err != nil {
		t.Fatal(err)
	}
	wantInt(t, v, 1)

	// Objects and closures are truthy; mixed equality is false.
	p2, _ := Parse(`let f = fn() { }; if a && f { if a == f { return 2; } return 1; } return 0;`)
	v, err = NewInterp().Run(p2, env)
	if err != nil {
		t.Fatal(err)
	}
	wantInt(t, v, 1)
}

func TestDataBoundaryErrors(t *testing.T) {
	// Functions cannot be stored in lists/maps destined for the data plane.
	if _, err := runErr(`let l = [fn() { }];`); err == nil {
		t.Error("function in list literal accepted")
	}
	if _, err := runErr(`let m = {f: fn() { }};`); err == nil {
		t.Error("function in map literal accepted")
	}
	if _, err := runErr(`return -fn() { };`); err == nil {
		t.Error("negating a function accepted")
	}
	if _, err := runErr(`return fn() { } + 1;`); err == nil {
		t.Error("adding a function accepted")
	}
}

func TestClosureSource(t *testing.T) {
	v := run(t, `return fn(a, b) { return a + b; };`)
	// Run returns the closure itself from the trailing return.
	c, ok := v.Closure()
	if !ok {
		t.Fatal("not a closure")
	}
	src := c.Source()
	fn, err := ParseFunction(src)
	if err != nil {
		t.Fatalf("ParseFunction(Source()=%q): %v", src, err)
	}
	if len(fn.Params) != 2 {
		t.Errorf("round-tripped params: %v", fn.Params)
	}
}

func TestInterpStepsAccumulate(t *testing.T) {
	in := NewInterp()
	p, _ := Parse("let x = 1; return x;")
	if _, err := in.Run(p, NewEnv()); err != nil {
		t.Fatal(err)
	}
	if in.Steps() == 0 {
		t.Error("no steps recorded")
	}
}

func TestSortReverseIndexOf(t *testing.T) {
	wantStr(t, run(t, `return join(sort(["b", "a", "c"]), "");`), "abc")
	wantInt(t, run(t, `return sort([3, 1, 2])[0];`), 1)
	wantStr(t, run(t, `return join(reverse(["a", "b"]), "");`), "ba")
	wantStr(t, run(t, `return reverse("abc");`), "cba")
	wantInt(t, run(t, `return indexof([10, 20, 30], 20);`), 1)
	wantInt(t, run(t, `return indexof([10], 99);`), -1)
	wantInt(t, run(t, `return indexof("hello", "ll");`), 2)
	wantInt(t, run(t, `return indexof("hello", "z");`), -1)
	// Errors.
	if _, err := runErr(`sort(3);`); err == nil {
		t.Error("sort of int succeeded")
	}
	if _, err := runErr(`sort([1, "a"]);`); err == nil {
		t.Error("sort of unordered mix succeeded")
	}
	if _, err := runErr(`reverse(3);`); err == nil {
		t.Error("reverse of int succeeded")
	}
	if _, err := runErr(`indexof(3, 1);`); err == nil {
		t.Error("indexof on int succeeded")
	}
}
