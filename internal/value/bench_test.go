package value

import (
	"testing"
)

func BenchmarkCoerceIntIdentity(b *testing.B) {
	v := NewInt(5)
	for i := 0; i < b.N; i++ {
		if _, err := Coerce(v, KindInt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoerceStringToInt(b *testing.B) {
	v := NewString("12345")
	for i := 0; i < b.N; i++ {
		if _, err := Coerce(v, KindInt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoerceHTMLToInt(b *testing.B) {
	v := NewString("<td><b>Salary:</b> $12,500</td>")
	for i := 0; i < b.N; i++ {
		if _, err := Coerce(v, KindInt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAddInts(b *testing.B) {
	x, y := NewInt(3), NewInt(4)
	for i := 0; i < b.N; i++ {
		if _, err := Add(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompareMixedNumeric(b *testing.B) {
	x, y := NewInt(3), NewFloat(3.5)
	for i := 0; i < b.N; i++ {
		if _, err := Compare(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCloneNestedMap(b *testing.B) {
	v := NewMap(map[string]Value{
		"a": NewListOf(NewInt(1), NewInt(2), NewString("x")),
		"b": NewMap(map[string]Value{"c": NewBytes(make([]byte, 64))}),
	})
	for i := 0; i < b.N; i++ {
		_ = v.Clone()
	}
}

func BenchmarkStringRenderMap(b *testing.B) {
	v := NewMap(map[string]Value{"a": NewInt(1), "b": NewListOf(True, Null)})
	for i := 0; i < b.N; i++ {
		_ = v.String()
	}
}

func BenchmarkFromJSON(b *testing.B) {
	doc := []byte(`{"name":"alice","salary":12500,"tags":["ee","staff"]}`)
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		if _, err := FromJSON(doc); err != nil {
			b.Fatal(err)
		}
	}
}
