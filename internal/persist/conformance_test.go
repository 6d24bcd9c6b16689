package persist

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// The Backend conformance suite: one behavioral contract, run verbatim
// against every implementation (the multi-provider pattern — Mem and WAL
// stay interchangeable because the same suite pins them both).
// Implementation-specific behavior (group commit internals, torn-tail
// recovery, compaction) lives in the per-implementation test files.

// backendFactory opens a backend implementation over a directory, and
// reopens it over the same directory to check durability. In-memory
// backends set durable=false and skip the reopen legs.
type backendFactory struct {
	name    string
	durable bool
	open    func(t *testing.T, dir string) Backend
}

func backendFactories() []backendFactory {
	return []backendFactory{
		{name: "mem", durable: false, open: func(t *testing.T, dir string) Backend {
			return NewMemStore()
		}},
		{name: "wal", durable: true, open: func(t *testing.T, dir string) Backend {
			// Small segments so the suite also crosses roll boundaries.
			s, err := OpenWALStore(dir, WALOptions{SegmentBytes: 8 << 10})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
}

func TestBackendConformance(t *testing.T) {
	for _, f := range backendFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Run("Basics", func(t *testing.T) { conformBasics(t, f) })
			t.Run("BinaryNamesAndValues", func(t *testing.T) { conformBinary(t, f) })
			t.Run("PutAll", func(t *testing.T) { conformPutAll(t, f) })
			t.Run("SyncAndClose", func(t *testing.T) { conformSyncClose(t, f) })
			t.Run("ConcurrentWriters", func(t *testing.T) { conformConcurrent(t, f) })
			if f.durable {
				t.Run("ReopenDurability", func(t *testing.T) { conformReopen(t, f) })
			}
		})
	}
}

func conformBasics(t *testing.T, f backendFactory) {
	s := f.open(t, t.TempDir())
	defer s.Close()
	if _, err := s.Get("missing"); !errors.Is(err, ErrNoSlot) {
		t.Errorf("missing slot: %v", err)
	}
	if err := s.Put("a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a")
	if err != nil || string(got) != "one" {
		t.Errorf("Get(a) = %q, %v", got, err)
	}
	// Overwrite replaces.
	if err := s.Put("a", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("a"); string(got) != "two" {
		t.Errorf("overwrite = %q", got)
	}
	// List is sorted and complete.
	if err := s.Put("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	slots, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(slots) || len(slots) != 2 {
		t.Errorf("List = %v", slots)
	}
	// Delete is idempotent and removes the slot.
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); err != nil {
		t.Errorf("double delete: %v", err)
	}
	if _, err := s.Get("a"); !errors.Is(err, ErrNoSlot) {
		t.Errorf("deleted slot: %v", err)
	}
	// The store never aliases the caller's buffer.
	buf := []byte("mutable")
	if err := s.Put("c", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	if got, _ := s.Get("c"); string(got) != "mutable" {
		t.Errorf("store aliased caller buffer: %q", got)
	}
	// Empty values round-trip as empty, not as missing.
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("empty"); err != nil || len(got) != 0 {
		t.Errorf("empty value = %q, %v", got, err)
	}
}

func conformBinary(t *testing.T, f backendFactory) {
	s := f.open(t, t.TempDir())
	defer s.Close()
	names := []string{
		"b/with strange? chars", "dots..", "\x00binary\xff", "sp ace", "ünïcødé",
	}
	for i, n := range names {
		val := bytes.Repeat([]byte{byte(i), 0xFF, 0x00}, 100+i)
		if err := s.Put(n, val); err != nil {
			t.Fatalf("Put(%q): %v", n, err)
		}
	}
	slots, err := s.List()
	if err != nil || len(slots) != len(names) {
		t.Fatalf("List = %v, %v", slots, err)
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for i := range sorted {
		if slots[i] != sorted[i] {
			t.Errorf("List[%d] = %q, want %q", i, slots[i], sorted[i])
		}
	}
	for i, n := range names {
		got, err := s.Get(n)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i), 0xFF, 0x00}, 100+i)) {
			t.Errorf("Get(%q) mismatch: %v", n, err)
		}
	}
}

func conformPutAll(t *testing.T, f backendFactory) {
	s := f.open(t, t.TempDir())
	defer s.Close()
	if err := s.PutAll(nil); err != nil {
		t.Errorf("empty PutAll: %v", err)
	}
	batch := make(map[string][]byte, 100)
	for i := 0; i < 100; i++ {
		batch[fmt.Sprintf("slot-%03d", i)] = []byte(fmt.Sprintf("value-%d", i))
	}
	if err := s.PutAll(batch); err != nil {
		t.Fatal(err)
	}
	slots, err := s.List()
	if err != nil || len(slots) != 100 {
		t.Fatalf("after PutAll: %d slots, %v", len(slots), err)
	}
	for k, want := range batch {
		got, err := s.Get(k)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("Get(%q) = %q, %v", k, got, err)
		}
	}
	// PutAll overwrites like Put does.
	if err := s.PutAll(map[string][]byte{"slot-000": []byte("rewritten")}); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("slot-000"); string(got) != "rewritten" {
		t.Errorf("PutAll overwrite = %q", got)
	}
	// A nil value deletes its slot (a missing one included); an empty
	// value is still a value.
	mixed := map[string][]byte{"slot-001": nil, "never-was": nil, "slot-002": {}, "fresh": []byte("new")}
	if err := s.PutAll(mixed); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"slot-001", "never-was"} {
		if _, err := s.Get(gone); !errors.Is(err, ErrNoSlot) {
			t.Errorf("Get(%q) after a nil PutAll entry: %v", gone, err)
		}
	}
	if got, err := s.Get("slot-002"); err != nil || len(got) != 0 {
		t.Errorf("empty PutAll value = %q, %v", got, err)
	}
	if got, _ := s.Get("fresh"); string(got) != "new" {
		t.Errorf("put beside deletes = %q", got)
	}
	if slots, _ := s.List(); len(slots) != 100 {
		t.Errorf("%d slots after 100 + 1 put - 1 delete", len(slots))
	}
}

func conformSyncClose(t *testing.T, f backendFactory) {
	s := f.open(t, t.TempDir())
	if err := s.Sync(); err != nil {
		t.Errorf("Sync on empty store: %v", err)
	}
	if err := s.Put("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Errorf("Sync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func conformConcurrent(t *testing.T, f backendFactory) {
	s := f.open(t, t.TempDir())
	defer s.Close()
	const writers, ops = 8, 25
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wr)))
			own := fmt.Sprintf("own-%d", wr)
			for i := 0; i < ops; i++ {
				if err := s.Put(own, []byte{byte(i)}); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if got, err := s.Get(own); err != nil || got[0] != byte(i) {
					t.Errorf("read-own-write: %q, %v", got, err)
					return
				}
				// Shared-slot churn: outcome is any writer's value, never
				// an error or a torn read.
				shared := fmt.Sprintf("shared-%d", rng.Intn(4))
				if err := s.Put(shared, bytes.Repeat([]byte{byte(wr)}, 64)); err != nil {
					t.Errorf("Put shared: %v", err)
					return
				}
				if got, err := s.Get(shared); err != nil {
					t.Errorf("Get shared: %v", err)
					return
				} else if len(got) != 64 || bytes.Count(got, got[:1]) != 64 {
					t.Errorf("torn shared read: %v", got)
					return
				}
				if _, err := s.List(); err != nil {
					t.Errorf("List: %v", err)
					return
				}
			}
		}(wr)
	}
	wg.Wait()
}

func conformReopen(t *testing.T, f backendFactory) {
	dir := t.TempDir()
	s := f.open(t, dir)
	if err := s.Put("keep", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("gone", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("keep2", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("keep2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutAll(map[string][]byte{"b1": []byte("b1v"), "b2": []byte("b2v"), "gone2": []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutAll(map[string][]byte{"b2": []byte("b2v2"), "gone2": nil}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := f.open(t, dir)
	defer re.Close()
	slots, err := re.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"b1", "b2", "keep", "keep2"}
	if len(slots) != len(want) {
		t.Fatalf("reopened List = %v, want %v", slots, want)
	}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("reopened List = %v, want %v", slots, want)
		}
	}
	for slot, val := range map[string]string{
		"keep": "kept", "keep2": "v2", "b1": "b1v", "b2": "b2v2",
	} {
		if got, err := re.Get(slot); err != nil || string(got) != val {
			t.Errorf("reopened Get(%q) = %q, %v; want %q", slot, got, err, val)
		}
	}
	for _, gone := range []string{"gone", "gone2"} {
		if _, err := re.Get(gone); !errors.Is(err, ErrNoSlot) {
			t.Errorf("deleted slot %q survived reopen: %v", gone, err)
		}
	}
	// Writes keep working after recovery.
	if err := re.Put("post", []byte("recovery")); err != nil {
		t.Fatal(err)
	}
	if got, _ := re.Get("post"); string(got) != "recovery" {
		t.Errorf("post-recovery write = %q", got)
	}
}
