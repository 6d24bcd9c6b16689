package core

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/value"
)

func TestClassConstructionOrder(t *testing.T) {
	base := NewClass("Component", func(b *Builder) {
		b.FixedData("kind", value.NewString("component"))
		b.FixedScriptMethod("ping", `fn() { return "pong"; }`)
	})
	sub := base.Subclass("Database", func(b *Builder) {
		// Super-class items are already declared (copied containers);
		// subclass adds its own.
		b.FixedData("engine", value.NewString("kv"))
		b.ExtData("rows", value.NewInt(0))
	})

	obj, err := sub.New(gen, WithPolicy(allowAllPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	if obj.Class() != "Database" {
		t.Errorf("Class = %q", obj.Class())
	}
	// Items from both levels present.
	for _, name := range []string{"kind", "engine", "rows"} {
		if _, err := obj.Get(obj.Principal(), name); err != nil {
			t.Errorf("Get(%q): %v", name, err)
		}
	}
	v, err := obj.Invoke(stranger(), "ping")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "pong" {
		t.Errorf("ping = %v", v)
	}
	// Insertion order: super-class items first.
	names := obj.DataItemNames(obj.Principal())
	if names[0] != "kind" || names[1] != "engine" || names[2] != "rows" {
		t.Errorf("order = %v", names)
	}
}

func TestSubclassOverrideCollides(t *testing.T) {
	base := NewClass("A", func(b *Builder) {
		b.FixedData("x", value.NewInt(1))
	})
	sub := base.Subclass("B", func(b *Builder) {
		b.FixedData("x", value.NewInt(2)) // redeclaration is an error
	})
	if _, err := sub.New(gen); !errors.Is(err, ErrExists) {
		t.Errorf("redeclared item: %v", err)
	}
}

func TestLineage(t *testing.T) {
	a := NewClass("A", nil)
	c := a.Subclass("B", nil).Subclass("C", nil)
	var got []string
	for k := c; k != nil; k = k.Parent() {
		got = append(got, k.Name())
	}
	if !slices.Equal(got, []string{"C", "B", "A"}) {
		t.Errorf("lineage = %v, want [C B A]", got)
	}
}

func TestClassRegistry(t *testing.T) {
	r := NewClassRegistry()
	a := NewClass("A", nil)
	if err := r.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(NewClass("A", nil)); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate class: %v", err)
	}
	got, err := r.Lookup("A")
	if err != nil || got != a {
		t.Errorf("Lookup = %v, %v", got, err)
	}
	if _, err := r.Lookup("Z"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing class: %v", err)
	}
}

// Instances of the same class diverge through object-level mutability —
// the paper's point that an object "may be modified in such a way that it
// does not follow the structure of its original class".
func TestInstancesDivergeFromClass(t *testing.T) {
	cls := NewClass("Proto", func(b *Builder) {
		b.ExtData("v", value.NewInt(0))
	})
	a, err := cls.New(gen, WithPolicy(allowAllPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	bo, err := cls.New(gen, WithPolicy(allowAllPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.InvokeSelf("addMethod", value.NewString("only_a"),
		value.NewString(`fn() { return "a"; }`)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.InvokeSelf("only_a"); err != nil {
		t.Errorf("a.only_a: %v", err)
	}
	if _, err := bo.InvokeSelf("only_a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("b.only_a: %v", err)
	}
}
