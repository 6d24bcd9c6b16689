package mscript

import (
	"testing"

	"repro/internal/value"
)

const fibSrc = `
let fib = fn(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); };
return fib(12);
`

func BenchmarkLex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := lexAll(fibSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(fibSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalFib12(b *testing.B) {
	p, err := Parse(fibSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewInterp()
		if _, err := in.Run(p, NewEnv()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalTightLoop(b *testing.B) {
	p, err := Parse(`let t = 0; for i in 1000 { t = t + i; } return t;`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewInterp()
		if _, err := in.Run(p, NewEnv()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCallClosure(b *testing.B) {
	fn, err := ParseFunction(`fn(a, b) { return a + b; }`)
	if err != nil {
		b.Fatal(err)
	}
	c := &Closure{Fn: fn, Env: NewEnv()}
	in := NewInterp()
	args := []Val{FromValue(value.NewInt(1)), FromValue(value.NewInt(2))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Reset(DefaultBudget, nil) // one budget per call, as a host gives it
		if _, err := in.CallClosure(c, args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFreeVars(b *testing.B) {
	fn, err := ParseFunction(`fn(a) { let x = 1; for i in a { x = x + i + captured; } return fn(q) { return q + x; }; }`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FreeVars(fn)
	}
}

func BenchmarkRenderSource(b *testing.B) {
	p, err := Parse(fibSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Source()
	}
}
