package naming

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestIDStringParseRoundTrip(t *testing.T) {
	g := NewGenerator("site-a")
	for i := 0; i < 100; i++ {
		id := g.New()
		parsed, err := ParseID(id.String())
		if err != nil {
			t.Fatalf("ParseID(%q): %v", id.String(), err)
		}
		if parsed != id {
			t.Fatalf("round trip mismatch: %s != %s", parsed, id)
		}
	}
}

// TestIDTextForm pins the text form: a literal, the Sprintf over four hex
// groups it was once built with, for random IDs too, and what rendering
// and parsing cost. It fails on a String that is one allocation short of
// its form, or back to the Sprintf (9 allocations), and on a ParseID that
// decodes through slices of its own.
func TestIDTextForm(t *testing.T) {
	id := ID{0xa1, 0xa2, 0xa3, 0xa4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	if got, want := id.String(), "a1a2a3a4-05060708090a-0b0c-0d0e0f10"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	sprintf := func(id ID) string {
		return fmt.Sprintf("%s-%s-%s-%s", hex.EncodeToString(id[0:4]), hex.EncodeToString(id[4:10]),
			hex.EncodeToString(id[10:12]), hex.EncodeToString(id[12:16]))
	}
	f := func(raw [16]byte) bool {
		s := ID(raw).String()
		back, err := ParseID(s)
		return s == sprintf(ID(raw)) && err == nil && back == ID(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	s := id.String()
	if n := testing.AllocsPerRun(100, func() { s = id.String() }); n != 1 {
		t.Errorf("String: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { id, _ = ParseID(s) }); n != 0 {
		t.Errorf("ParseID: %v allocs, want 0", n)
	}
}

func TestParseIDRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"short",
		"zzzzzzzz-zzzzzzzzzzzz-zzzz-zzzzzzzz",    // non-hex
		"00000000+000000000000-0000-00000000",    // wrong separator
		"00000000-000000000000-0000-0000000",     // short last group
		"00000000-000000000000-0000-00000000-ff", // too long
		"0000000-0000000000000-0000-00000000",    // group sizes off
		"00000000-000000000000_0000-00000000",    // wrong separator pos
		"g0000000-000000000000-0000-00000000",    // non-hex first group
		"00000000-g00000000000-0000-00000000",    // non-hex mid group
		"00000000-000000000000-g000-00000000",    // non-hex counter
	}
	for _, s := range bad {
		if _, err := ParseID(s); err == nil {
			t.Errorf("ParseID(%q) succeeded, want error", s)
		} else if !errors.Is(err, ErrBadID) {
			t.Errorf("ParseID(%q) error %v is not ErrBadID", s, err)
		}
	}
}

func TestIDEmbedsSiteAndTime(t *testing.T) {
	at := time.Date(2026, 7, 5, 10, 0, 0, 0, time.UTC)
	g := newGeneratorAt("tokyo", func() time.Time { return at })
	id := g.New()
	if id.Site() != g.Site() {
		t.Errorf("Site() = %d, want %d", id.Site(), g.Site())
	}
	var ms [8]byte
	copy(ms[2:], id[4:10])
	if got := int64(binary.BigEndian.Uint64(ms[:])); got != at.UnixMilli() {
		t.Errorf("embedded time = %d ms, want %d", got, at.UnixMilli())
	}
	if id.IsNil() {
		t.Error("fresh ID is nil")
	}
	if !Nil.IsNil() {
		t.Error("Nil.IsNil() = false")
	}
}

func TestGeneratorUniquenessSequential(t *testing.T) {
	g := NewGenerator("site")
	seen := make(map[ID]bool)
	for i := 0; i < 10000; i++ {
		id := g.New()
		if seen[id] {
			t.Fatalf("duplicate ID after %d mints: %s", i, id)
		}
		seen[id] = true
	}
}

func TestGeneratorUniquenessConcurrent(t *testing.T) {
	g := NewGenerator("site")
	const workers, per = 8, 500
	var mu sync.Mutex
	seen := make(map[ID]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]ID, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, g.New())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate concurrent ID %s", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

func TestDifferentSitesDifferentFingerprints(t *testing.T) {
	a := NewGenerator("site-a")
	b := NewGenerator("site-b")
	if a.Site() == b.Site() {
		t.Error("distinct site names produced equal fingerprints")
	}
	if a.New().Site() == b.New().Site() {
		t.Error("IDs from distinct sites share fingerprint")
	}
}

// Property: String form always parses back to the same ID.
func TestPropIDRoundTrip(t *testing.T) {
	f := func(raw [16]byte) bool {
		id := ID(raw)
		back, err := ParseID(id.String())
		return err == nil && back == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	g := NewGenerator("s")
	id := g.New()
	obj := &struct{ X int }{X: 1}

	if _, err := r.LookupID(id); !errors.Is(err, ErrUnbound) {
		t.Errorf("LookupID on empty registry: %v", err)
	}
	r.Register(id, obj)
	got, err := r.LookupID(id)
	if err != nil || got != obj {
		t.Fatalf("LookupID = %v, %v", got, err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}

	if err := r.Bind("payroll", id); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	got, err = r.Lookup("payroll")
	if err != nil || got != obj {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	rid, err := r.Resolve("payroll")
	if err != nil || rid != id {
		t.Fatalf("Resolve = %v, %v", rid, err)
	}

	// Rebinding the same name to the same id is idempotent.
	if err := r.Bind("payroll", id); err != nil {
		t.Errorf("idempotent Bind: %v", err)
	}
	// Binding to another id fails.
	other := g.New()
	r.Register(other, obj)
	if err := r.Bind("payroll", other); !errors.Is(err, ErrNameTaken) {
		t.Errorf("conflicting Bind: %v", err)
	}
	// Binding an unregistered id fails.
	if err := r.Bind("ghost", g.New()); !errors.Is(err, ErrUnbound) {
		t.Errorf("Bind unregistered: %v", err)
	}

	names := r.Names()
	if len(names) != 1 || names[0] != "payroll" {
		t.Errorf("Names = %v", names)
	}

	r.Unbind("payroll")
	if _, err := r.Lookup("payroll"); !errors.Is(err, ErrUnbound) {
		t.Errorf("Lookup after Unbind: %v", err)
	}
	if _, err := r.LookupID(id); err != nil {
		t.Errorf("object deregistered by Unbind: %v", err)
	}

	if err := r.Bind("p2", id); err != nil {
		t.Fatal(err)
	}
	r.Deregister(id)
	if _, err := r.LookupID(id); !errors.Is(err, ErrUnbound) {
		t.Error("Deregister left object")
	}
	// The binding is its owner's to remove; until then it is stale, and a
	// stale binding resolves to nothing.
	if _, err := r.Lookup("p2"); !errors.Is(err, ErrUnbound) {
		t.Errorf("Lookup through a stale binding: %v", err)
	}
	if got, err := r.Resolve("p2"); err != nil || got != id {
		t.Errorf("Deregister removed a binding it does not own: %v, %v", got, err)
	}
	r.Unbind("p2")
	if len(r.Names()) != 0 {
		t.Errorf("Names after Unbind = %v", r.Names())
	}
}

func TestRegistryRebind(t *testing.T) {
	r := NewRegistry()
	g := NewGenerator("s")
	oldID, newID := g.New(), g.New()
	r.Register(oldID, "old")
	r.Register(newID, "new")
	if err := r.Bind("n", oldID); err != nil {
		t.Fatal(err)
	}

	// Rebind replaces a live binding where Bind refuses.
	if err := r.Bind("n", newID); !errors.Is(err, ErrNameTaken) {
		t.Fatalf("Bind over live binding: %v", err)
	}
	if err := r.Rebind("n", newID); err != nil {
		t.Fatalf("Rebind: %v", err)
	}
	if id, _ := r.Resolve("n"); id != newID {
		t.Errorf("Resolve after Rebind = %v", id)
	}
	// Rebind also creates a binding where none exists.
	if err := r.Rebind("fresh", newID); err != nil {
		t.Fatalf("Rebind fresh name: %v", err)
	}
	// An unregistered target fails and leaves the binding untouched.
	if err := r.Rebind("n", g.New()); !errors.Is(err, ErrUnbound) {
		t.Errorf("Rebind unregistered: %v", err)
	}
	if id, _ := r.Resolve("n"); id != newID {
		t.Errorf("failed Rebind moved the binding: %v", id)
	}
}

// TestRegistryRebindNoUnboundWindow: a name being rebound must stay
// continuously resolvable — Rebind exists precisely because an Unbind/Bind
// pair exposes an unbound window to concurrent lookups.
func TestRegistryRebindNoUnboundWindow(t *testing.T) {
	r := NewRegistry()
	g := NewGenerator("s")
	a, b := g.New(), g.New()
	r.Register(a, "a")
	r.Register(b, "b")
	if err := r.Bind("n", a); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if id, err := r.Resolve("n"); err != nil {
					t.Errorf("name unbound mid-rebind: %v", err)
					return
				} else if id != a && id != b {
					t.Errorf("Resolve = %v, neither binding", id)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		id := a
		if i%2 == 0 {
			id = b
		}
		if err := r.Rebind("n", id); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	g := NewGenerator("s")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := g.New()
				r.Register(id, i)
				if _, err := r.LookupID(id); err != nil {
					t.Errorf("concurrent LookupID: %v", err)
				}
				r.Deregister(id)
			}
		}()
	}
	wg.Wait()
	if r.Len() != 0 {
		t.Errorf("registry not empty after churn: %d", r.Len())
	}
}
