package core

import (
	"errors"
	"testing"

	"repro/internal/security"
	"repro/internal/value"
)

// computedObject builds an object with one computed item, "ticks", whose
// function counts its own evaluations and returns the count.
func computedObject(t *testing.T, calls *int, opts ...ItemOption) *Object {
	t.Helper()
	b := NewBuilder(gen, "Computed", WithPolicy(allowAllPolicy()))
	b.FixedData("name", value.NewString("obar"))
	b.ComputedData("ticks", func() value.Value {
		*calls++
		return value.NewInt(int64(*calls))
	}, opts...)
	obj, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestComputedDataEvaluatedPerRead: nothing caches the value — every get,
// warm decision cache or not, runs the function again.
func TestComputedDataEvaluatedPerRead(t *testing.T) {
	var calls int
	obj := computedObject(t, &calls)
	who := stranger()
	for want := int64(1); want <= 3; want++ {
		v, err := obj.Get(who, "ticks")
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := v.Int(); got != want {
			t.Fatalf("read %d returned %v", want, v)
		}
	}
	if v, err := obj.Get(obj.Principal(), "ticks"); err != nil || v.String() != "4" {
		t.Fatalf("self read = %v, %v", v, err)
	}
	if calls != 4 {
		t.Fatalf("function ran %d times for 4 reads", calls)
	}
}

// TestComputedDataCannotBeWritten: every store path refuses with ErrFixed
// and the item keeps answering from its function.
func TestComputedDataCannotBeWritten(t *testing.T) {
	var calls int
	obj := computedObject(t, &calls)
	self := obj.Principal()
	props := func(k string, v value.Value) value.Value {
		return value.NewMap(map[string]value.Value{k: v})
	}
	attempts := map[string]func() error{
		"set": func() error { return obj.Set(self, "ticks", value.NewInt(99)) },
		"set by stranger": func() error {
			return obj.Set(stranger(), "ticks", value.NewInt(99))
		},
		"setDataItem value": func() error {
			_, err := obj.InvokeSelf("setDataItem", value.NewString("ticks"), props("value", value.NewInt(99)))
			return err
		},
		"setDataItem dynKind": func() error {
			_, err := obj.InvokeSelf("setDataItem", value.NewString("ticks"), props("dynKind", value.NewString("string")))
			return err
		},
		"deleteDataItem": func() error {
			_, err := obj.InvokeSelf("deleteDataItem", value.NewString("ticks"))
			return err
		},
	}
	for what, attempt := range attempts {
		if err := attempt(); !errors.Is(err, ErrFixed) {
			t.Errorf("%s = %v, want ErrFixed", what, err)
		}
	}
	if calls != 0 {
		t.Errorf("a refused write evaluated the function %d times", calls)
	}
	if v, err := obj.Get(self, "ticks"); err != nil || v.String() != "1" {
		t.Errorf("after refused writes get = %v, %v", v, err)
	}
	desc, err := obj.InvokeSelf("getDataItem", value.NewString("ticks"))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := desc.Map()
	if m["kind"].String() != "int" || m["fixed"].String() != "true" || m["dynKind"].String() != "null" {
		t.Errorf("getDataItem = %v", desc)
	}
}

// TestComputedDataMatchPhase: a denying ACL and a hidden item behave as on
// a stored item, the decision is audited, and the function never runs for
// a refused caller.
func TestComputedDataMatchPhase(t *testing.T) {
	var calls int
	denied := computedObject(t, &calls, WithACL(security.NewACL(security.DenyAll())))
	aud := security.NewAuditor(8)
	denied.SetAuditor(aud)
	who := stranger()
	for i := 0; i < 2; i++ { // cold, then from the decision cache
		if _, err := denied.Get(who, "ticks"); !errors.Is(err, security.ErrDenied) {
			t.Fatalf("denied get = %v, want ErrDenied", err)
		}
	}
	if len(aud.Denials()) == 0 {
		t.Error("the refusal was not audited")
	}

	hidden := computedObject(t, &calls, Hidden())
	if _, err := hidden.Get(who, "ticks"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("hidden get = %v, want ErrNotFound", err)
	}
	if _, err := hidden.Invoke(who, "getDataItem", value.NewString("ticks")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("hidden getDataItem = %v, want ErrNotFound", err)
	}
	for _, n := range hidden.DataItemNames(who) {
		if n == "ticks" {
			t.Error("hidden computed item listed to a stranger")
		}
	}
	if calls != 0 {
		t.Fatalf("function ran %d times for refused callers", calls)
	}
	if v, err := hidden.Get(hidden.Principal(), "ticks"); err != nil || v.String() != "1" {
		t.Errorf("self read of hidden item = %v, %v", v, err)
	}
}

// TestComputedDataSnapshotFlattens: an image carries the value at snapshot
// time as a plain item, and the materialized copy stores like one.
func TestComputedDataSnapshotFlattens(t *testing.T) {
	var calls int
	obj := computedObject(t, &calls)
	img, err := obj.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("snapshot evaluated the function %d times", calls)
	}
	copyObj, err := FromImage(img, nil, HostPolicy(allowAllPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	self := copyObj.Principal()
	for i := 0; i < 2; i++ {
		if v, err := copyObj.Get(self, "ticks"); err != nil || v.String() != "1" {
			t.Fatalf("materialized get = %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("the image carried the function: %d evaluations", calls)
	}
	if err := copyObj.Set(self, "ticks", value.NewInt(7)); err != nil {
		t.Fatalf("set on the flattened item: %v", err)
	}
	if v, _ := copyObj.Get(self, "ticks"); v.String() != "7" {
		t.Errorf("flattened item after set = %v", v)
	}
}

// TestComputedDataMayReenterObject: the function runs outside the object
// lock on every read path, so it may use the object's own public API.
func TestComputedDataMayReenterObject(t *testing.T) {
	var obj *Object
	b := NewBuilder(gen, "Reentrant", WithPolicy(allowAllPolicy()))
	b.FixedData("name", value.NewString("obar"))
	b.ComputedData("items", func() value.Value {
		return value.NewInt(int64(len(obj.DataItemNames(obj.Principal()))))
	})
	obj = b.MustBuild()

	if v, err := obj.Get(stranger(), "items"); err != nil || v.String() != "2" {
		t.Fatalf("get = %v, %v", v, err)
	}
	if _, err := obj.InvokeSelf("getDataItem", value.NewString("items")); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

func TestComputedDataBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(gen, "NoFn").ComputedData("x", nil).Build(); !errors.Is(err, ErrArity) {
		t.Errorf("nil function: %v", err)
	}
	fn := func() value.Value { return value.Null }
	if _, err := NewBuilder(gen, "Typed").ComputedData("x", fn, WithDynKind(value.KindInt)).Build(); !errors.Is(err, ErrArity) {
		t.Errorf("dynamic kind: %v", err)
	}
	if _, err := NewBuilder(gen, "Dup").FixedData("x", value.Null).ComputedData("x", fn).Build(); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate name: %v", err)
	}
}
