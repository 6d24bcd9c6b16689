package value

import (
	"errors"
	"testing"
)

func TestFromJSON(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want Value
	}{
		{"null", `null`, Null},
		{"true", `true`, True},
		{"int", `42`, NewInt(42)},
		{"negative int", `-7`, NewInt(-7)},
		{"big int stays exact", `9007199254740993`, NewInt(9007199254740993)},
		{"float", `2.5`, NewFloat(2.5)},
		{"exponent is float", `1e3`, NewFloat(1000)},
		{"string", `"hi"`, NewString("hi")},
		{"list", `[1, "a", null]`, NewListOf(NewInt(1), NewString("a"), Null)},
		{"object", `{"k": {"n": 1}}`, NewMap(map[string]Value{
			"k": NewMap(map[string]Value{"n": NewInt(1)}),
		})},
		{"empty object", `{}`, NewMap(nil)},
		{"empty array", `[]`, NewList(nil)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := FromJSON([]byte(tt.in))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(tt.want) {
				t.Errorf("FromJSON(%s) = %v (%s), want %v (%s)",
					tt.in, got, got.Kind(), tt.want, tt.want.Kind())
			}
		})
	}
}

func TestFromJSONErrors(t *testing.T) {
	bad := []string{``, `{`, `[1,]`, `1 2`, `{"a": }`}
	for _, s := range bad {
		if _, err := FromJSON([]byte(s)); !errors.Is(err, ErrBadType) {
			t.Errorf("FromJSON(%q): %v", s, err)
		}
	}
}
