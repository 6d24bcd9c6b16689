package persist

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/security"
	"repro/internal/value"
)

var gen = naming.NewGenerator("persist-test")

func openPolicy() *security.Policy {
	p := security.NewPolicy()
	p.SetDefault(security.Untrusted, security.Allow)
	return p
}

func persistentObject(t *testing.T) *core.Object {
	t.Helper()
	b := core.NewBuilder(gen, "Durable", core.WithPolicy(openPolicy()))
	b.ExtData("state", value.NewMap(map[string]value.Value{"visits": value.NewInt(0)}))
	b.FixedScriptMethod("visit", `fn() {
		let s = self.state;
		s["visits"] = s["visits"] + 1;
		self.state = s;
		return s["visits"];
	}`)
	return b.MustBuild()
}

func testStores(t *testing.T) map[string]Store {
	t.Helper()
	ws, err := NewWALStore(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	return map[string]Store{"mem": NewMemStore(), "wal": ws}
}

func TestStoreBasics(t *testing.T) {
	for name, store := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := store.Get("missing"); !errors.Is(err, ErrNoSlot) {
				t.Errorf("missing slot: %v", err)
			}
			if err := store.Put("a", []byte("one")); err != nil {
				t.Fatal(err)
			}
			if err := store.Put("b/with strange? chars", []byte{0, 1, 2}); err != nil {
				t.Fatal(err)
			}
			got, err := store.Get("a")
			if err != nil || string(got) != "one" {
				t.Errorf("Get(a) = %q, %v", got, err)
			}
			// Overwrite is atomic replacement.
			if err := store.Put("a", []byte("two")); err != nil {
				t.Fatal(err)
			}
			got, _ = store.Get("a")
			if string(got) != "two" {
				t.Errorf("overwrite = %q", got)
			}
			slots, err := store.List()
			if err != nil || len(slots) != 2 {
				t.Errorf("List = %v, %v", slots, err)
			}
			if err := store.Delete("a"); err != nil {
				t.Fatal(err)
			}
			if err := store.Delete("a"); err != nil {
				t.Errorf("double delete: %v", err)
			}
			if _, err := store.Get("a"); !errors.Is(err, ErrNoSlot) {
				t.Errorf("deleted slot: %v", err)
			}
			// Stored data is isolated from caller mutations.
			buf := []byte("mutable")
			if err := store.Put("c", buf); err != nil {
				t.Fatal(err)
			}
			buf[0] = 'X'
			got, _ = store.Get("c")
			if string(got) != "mutable" {
				t.Errorf("store aliased caller buffer: %q", got)
			}
		})
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for name, store := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			obj := persistentObject(t)
			// Accumulate state, then persist.
			for i := 0; i < 3; i++ {
				if _, err := obj.InvokeSelf("visit"); err != nil {
					t.Fatal(err)
				}
			}
			if err := SaveObject(store, obj); err != nil {
				t.Fatal(err)
			}
			// Bootstrap into a fresh object ("read itself into memory").
			re, err := LoadObject(store, obj.ID().String(), nil, core.HostPolicy(openPolicy()))
			if err != nil {
				t.Fatal(err)
			}
			if re.ID() != obj.ID() {
				t.Error("identity changed across persistence")
			}
			v, err := re.InvokeSelf("visit")
			if err != nil {
				t.Fatal(err)
			}
			if i, _ := v.Int(); i != 4 {
				t.Errorf("visits after restart = %v, want 4", v)
			}
			// Delete removes the slot.
			if err := store.Delete(obj.ID().String()); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadObject(store, obj.ID().String(), nil); !errors.Is(err, ErrNoSlot) {
				t.Errorf("load after delete: %v", err)
			}
		})
	}
}

func TestConcurrentStoreAccess(t *testing.T) {
	for name, store := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					slot := string(rune('a' + w))
					for i := 0; i < 20; i++ {
						if err := store.Put(slot, []byte{byte(i)}); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
						if _, err := store.Get(slot); err != nil {
							t.Errorf("Get: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
