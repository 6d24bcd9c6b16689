package core

// What an object holds: the meta interface shared by every default object,
// no state per handle, and the allocations of building and materializing
// an object, pinned so the footprint cannot regrow silently.

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/security"
	"repro/internal/value"
)

// raceBuild is set by race_test.go in a -race build.
var raceBuild bool

// echoObject is the population member of the repository benchmark's RPC
// workloads: one fixed data item and one fixed native method.
func echoObject(pol *security.Policy, body Body, i int) *Object {
	b := NewBuilder(gen, "Echo", WithPolicy(pol))
	b.FixedData("idx", value.NewInt(int64(i)))
	b.FixedMethod("work", body)
	return b.MustBuild()
}

// courierImage is the image of the agent workload's courier: sixteen
// extensible data items and a fixed script method.
func courierImage(t testing.TB) Image {
	b := NewBuilder(gen, "Courier", WithPolicy(allowAllPolicy()))
	b.ExtData("hops", value.NewInt(0))
	for d := 0; d < 15; d++ {
		b.ExtData(fmt.Sprintf("cargo%02d", d), value.NewString(fmt.Sprintf("parcel %d of courier", d)))
	}
	b.FixedScriptMethod("onArrival", `fn(hop) { return hop; }`)
	img, err := b.MustBuild().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// footprintRegistry rebuilds the native bodies of testObject and
// ambassadorObject from their images.
func footprintRegistry() *BehaviorRegistry {
	reg := NewBehaviorRegistry()
	for _, name := range []string{"test.double", "test.relay"} {
		reg.Register(name, func(_ *Invocation, args []value.Value) (value.Value, error) { return argAt(args, 0), nil })
	}
	return reg
}

// ambassadorObject has the Ambassador's meta options: its mutating
// meta-methods are hidden and granted to origin alone.
func ambassadorObject(t *testing.T, origin security.Principal) *Object {
	t.Helper()
	b := NewBuilder(gen, "Amb", WithPolicy(security.NewPolicy()),
		MetaACL(security.NewACL(security.AllowObject(origin.Object))), MetaHidden())
	b.ExtData("x", value.NewInt(1))
	b.FixedMethod("relay", NewNativeBody("test.relay", func(_ *Invocation, args []value.Value) (value.Value, error) {
		return argAt(args, 0), nil
	}))
	obj, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestObjectFootprint pins the allocations of an object's birth. With a
// copy of the fifteen meta-methods per object and a map per container,
// building the echo object took 91 allocations and materializing the
// courier 129.
func TestObjectFootprint(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under the race detector")
	}
	const buildAllocs, materializeAllocs = 10, 49
	pol := allowAllPolicy()
	body := NewNativeBody("test.echo", func(_ *Invocation, args []value.Value) (value.Value, error) {
		return argAt(args, 0), nil
	})
	if n := testing.AllocsPerRun(100, func() { echoObject(pol, body, 1) }); n > buildAllocs {
		t.Errorf("building a one-data, one-method object: %v allocs, want <= %d", n, buildAllocs)
	}
	img := courierImage(t)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := FromImage(img, nil, HostPolicy(pol)); err != nil {
			t.Fatal(err)
		}
	}); n > materializeAllocs {
		t.Errorf("materializing a courier image: %v allocs, want <= %d", n, materializeAllocs)
	}
}

// TestHandlesBoundedPerItem: getDataItem and getMethod are open accessors,
// so a caller the item refuses can still ask for handles. A handle is a
// function of its item, so every ask returns the same one and 20 000 asks
// leave nothing behind.
func TestHandlesBoundedPerItem(t *testing.T) {
	obj := testObject(t, WithPolicy(security.NewPolicy()))
	out := stranger() // an unknown domain: Untrusted
	if _, err := obj.Get(out, "name"); !errors.Is(err, security.ErrDenied) {
		t.Fatalf("stranger's get = %v, want denied", err)
	}
	ask := func() (data, method string) {
		d, err := obj.Invoke(out, "getDataItem", value.NewString("name"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := obj.Invoke(out, "getMethod", value.NewString("double"))
		if err != nil {
			t.Fatal(err)
		}
		dm, _ := d.Map()
		mm, _ := m.Map()
		return dm["handle"].String(), mm["handle"].String()
	}
	firstData, firstMethod := ask() // fills the dispatch cache
	before := liveHeap()
	for i := 0; i < 10_000; i++ {
		if d, m := ask(); d != firstData || m != firstMethod {
			t.Fatalf("ask %d handed out %q, %q; the first ask %q, %q", i, d, m, firstData, firstMethod)
		}
	}
	grown := liveHeap() - before
	runtime.KeepAlive(obj)
	if grown > 1024 {
		t.Errorf("20 000 asks for handles retained %.0f B, want <= 1024", grown)
	}
}

// TestMetaTableShared: default objects, built or materialized, share one
// set of meta-methods; an Ambassador has its own.
func TestMetaTableShared(t *testing.T) {
	a, b := openObject(t), openObject(t)
	img, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromImage(img, footprintRegistry())
	if err != nil {
		t.Fatal(err)
	}
	amb := ambassadorObject(t, stranger())
	for _, name := range metaNames {
		want, _ := sharedMeta.get(name)
		for _, o := range []*Object{a, b, c} {
			if m, _ := o.lookupMethod(name); m != want {
				t.Errorf("%s: a default object's meta-method is not the shared one", name)
			}
		}
		if m, _ := amb.lookupMethod(name); m == want {
			t.Errorf("%s: an Ambassador shares the default meta-method", name)
		}
	}
}

// checkSharedMetaPristine compares everything that could be written into
// the shared meta-methods with a freshly built default table.
func checkSharedMetaPristine(t *testing.T, after string) {
	t.Helper()
	state := func(c *container[*Method]) []string {
		var out []string
		c.each(func(name string, m *Method) {
			out = append(out, fmt.Sprintf("%s: acl=%v visible=%v fixed=%v gen=%d body=%v",
				name, m.acl.Entries(), m.visible, m.fixed, m.gen.Load(), m.body.Descriptor()))
		})
		return out
	}
	got, want := state(sharedMeta), state(newMetaTable(security.ACL{}, false))
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s, the shared table reads\n  %s\nwant\n  %s", after, got[i], want[i])
		}
	}
}

// TestAmbassadorLeavesSharedTableUntouched: guarding and hiding one
// object's meta-methods changes nothing any other object sees.
func TestAmbassadorLeavesSharedTableUntouched(t *testing.T) {
	origin := stranger()
	amb := ambassadorObject(t, origin)
	if amb.meta == sharedMeta {
		t.Fatal("an Ambassador uses the shared meta table")
	}
	if m, _ := amb.meta.get("addDataItem"); m.visible || m.acl.Len() != 1 {
		t.Errorf("Ambassador addDataItem: visible=%v, %d ACL entries", m.visible, m.acl.Len())
	}
	checkSharedMetaPristine(t, "after building an Ambassador")
	// A default object built afterwards still offers an open addDataItem.
	plain := openObject(t)
	if _, err := plain.Invoke(stranger(), "addDataItem", value.NewString("y"), value.NewInt(2)); err != nil {
		t.Errorf("default addDataItem after an Ambassador: %v", err)
	}
}

// TestMetaMethodsAreFixed: setMethod and deleteMethod refuse every
// meta-method, by name and through its handle, and the shared table stays
// as it was. "invoke" by name is the meta-invoke chain, not the method:
// setMethod pushes a level and deleteMethod pops one.
func TestMetaMethodsAreFixed(t *testing.T) {
	obj := openObject(t)
	props := value.NewMap(map[string]value.Value{"visible": value.False, "aclClear": value.True})
	for _, name := range metaNames {
		desc, err := obj.InvokeSelf("getMethod", value.NewString(name))
		if err != nil {
			t.Fatalf("getMethod(%s): %v", name, err)
		}
		d, _ := desc.Map()
		if _, err := obj.InvokeSelf("setMethod", d["handle"], props); !errors.Is(err, ErrFixed) {
			t.Errorf("setMethod(handle of %s) = %v, want ErrFixed", name, err)
		}
		if name == "invoke" {
			continue
		}
		if _, err := obj.InvokeSelf("setMethod", value.NewString(name), props); !errors.Is(err, ErrFixed) {
			t.Errorf("setMethod(%s) = %v, want ErrFixed", name, err)
		}
		if _, err := obj.InvokeSelf("deleteMethod", value.NewString(name)); !errors.Is(err, ErrFixed) {
			t.Errorf("deleteMethod(%s) = %v, want ErrFixed", name, err)
		}
	}
	if _, err := obj.InvokeSelf("deleteMethod", value.NewString("invoke")); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleteMethod(invoke) with no level = %v, want ErrNotFound", err)
	}
	checkSharedMetaPristine(t, "after refused edits")
}

// The listings of a plain object and of an Ambassador: the fixed methods,
// the meta-methods in metaNames order, then the extensible methods.
var (
	plainListing = []string{"double", "get", "set", "getDataItem", "setDataItem", "addDataItem",
		"deleteDataItem", "getMethod", "setMethod", "addMethod", "deleteMethod", "invoke", "atomic",
		"describe", "listDataItems", "listMethods", "tripled"}
	ambSelfListing = []string{"relay", "get", "set", "getDataItem", "setDataItem", "addDataItem",
		"deleteDataItem", "getMethod", "setMethod", "addMethod", "deleteMethod", "invoke", "atomic",
		"describe", "listDataItems", "listMethods"}
	ambOtherListing = []string{"relay", "get", "set", "getDataItem", "getMethod", "invoke", "atomic",
		"describe", "listDataItems", "listMethods"}
)

// checkListings compares listMethods and describe's methods, as caller
// sees them, with want.
func checkListings(t *testing.T, what string, obj *Object, caller security.Principal, want []string) {
	t.Helper()
	strs := func(v value.Value) []string {
		l, _ := v.List()
		out := make([]string, len(l))
		for i, e := range l {
			out[i] = e.String()
		}
		return out
	}
	listed, err := obj.Invoke(caller, "listMethods")
	if err != nil {
		t.Fatalf("%s: listMethods: %v", what, err)
	}
	desc, err := obj.Invoke(caller, "describe")
	if err != nil {
		t.Fatalf("%s: describe: %v", what, err)
	}
	d, _ := desc.Map()
	if got := strs(listed); !slices.Equal(got, want) {
		t.Errorf("%s: listMethods = %v, want %v", what, got, want)
	}
	if got := strs(d["methods"]); !slices.Equal(got, want) {
		t.Errorf("%s: describe methods = %v, want %v", what, got, want)
	}
}

// TestMetaListingsAndImages: the listings keep their order, and a
// Snapshot → FromImage round trip keeps both kinds of object working.
func TestMetaListingsAndImages(t *testing.T) {
	plain := openObject(t)
	if _, err := plain.InvokeSelf("addMethod", value.NewString("tripled"), value.NewString(`fn(x) { return 3 * x; }`)); err != nil {
		t.Fatal(err)
	}
	origin := stranger()
	amb := ambassadorObject(t, origin)
	reg := footprintRegistry()

	for pass := 0; pass < 2; pass++ {
		checkListings(t, "plain, self", plain, plain.Principal(), plainListing)
		checkListings(t, "plain, stranger", plain, stranger(), plainListing)
		checkListings(t, "Ambassador, self", amb, amb.Principal(), ambSelfListing)
		checkListings(t, "Ambassador, origin", amb, origin, ambOtherListing)
		if _, err := amb.Invoke(stranger(), "addDataItem", value.NewString("z"), value.Null); !errors.Is(err, ErrNotFound) {
			t.Errorf("pass %d: stranger's addDataItem on an Ambassador = %v, want ErrNotFound", pass, err)
		}
		if _, err := amb.Invoke(origin, "addDataItem", value.NewString(fmt.Sprint("o", pass)), value.Null); err != nil {
			t.Errorf("pass %d: origin's addDataItem on an Ambassador: %v", pass, err)
		}
		if v, err := plain.Invoke(stranger(), "tripled", value.NewInt(2)); err != nil || !v.Equal(value.NewInt(6)) {
			t.Errorf("pass %d: tripled(2) = %v, %v", pass, v, err)
		}
		// The second pass runs on the materialized copies.
		next := make([]*Object, 2)
		for i, o := range []*Object{plain, amb} {
			img, err := o.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if next[i], err = FromImage(img, reg, HostPolicy(o.policy)); err != nil {
				t.Fatal(err)
			}
		}
		plain, amb = next[0], next[1]
		if plain.meta != sharedMeta || amb.meta == sharedMeta {
			t.Errorf("materialized: plain shares %v, Ambassador shares %v; want true, false",
				plain.meta == sharedMeta, amb.meta == sharedMeta)
		}
	}
}
