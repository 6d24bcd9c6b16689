// Package naming implements the decentralized identity and naming substrate
// the paper requires: "there should be built-in decentralized mechanisms for
// assigning distinct names for objects" (§1, Identity and Naming). IDs are
// 128-bit values minted locally — no coordination between sites — composed of
// a site fingerprint, a timestamp, a per-generator counter and random bits,
// so collisions across the "very large universe of objects" are negligible.
//
// The package also provides hierarchical paths ("site!container!item") and a
// per-site Registry mapping IDs and human names to live objects.
package naming

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBadID reports an unparseable ID literal.
var ErrBadID = errors.New("malformed object id")

// ID is a 128-bit decentralized object identity.
//
// Layout: bytes 0..3 site fingerprint, 4..9 unix-milli timestamp (48 bits),
// 10..11 generator counter, 12..15 random.
type ID [16]byte

// Nil is the zero ID, used as "no object".
var Nil ID

// IsNil reports whether id is the zero ID.
func (id ID) IsNil() bool { return id == Nil }

// String renders the canonical lower-case hex form, grouped for readability:
// ssssssss-tttttttttttt-cccc-rrrrrrrr.
func (id ID) String() string {
	var b [35]byte
	for _, g := range idGroups {
		hex.Encode(b[g.from:g.to], id[g.at:g.at+(g.to-g.from)/2])
	}
	b[8], b[21], b[26] = '-', '-', '-'
	return string(b[:])
}

// Site returns the 32-bit site fingerprint embedded in the ID.
func (id ID) Site() uint32 { return binary.BigEndian.Uint32(id[0:4]) }

// idGroups are the four hex groups of the text form: their positions in
// it, and the offset of their bytes in the ID.
var idGroups = [4]struct{ from, to, at int }{{0, 8, 0}, {9, 21, 4}, {22, 26, 10}, {27, 35, 12}}

// ParseID parses the canonical String form.
func ParseID(s string) (ID, error) {
	var id ID
	if len(s) != 35 || s[8] != '-' || s[21] != '-' || s[26] != '-' {
		return Nil, fmt.Errorf("%w: %q", ErrBadID, s)
	}
	for _, g := range idGroups {
		if _, err := hex.Decode(id[g.at:], []byte(s[g.from:g.to])); err != nil {
			return Nil, fmt.Errorf("%w: %q: %v", ErrBadID, s, err)
		}
	}
	return id, nil
}

// Generator mints IDs for one site without coordination. The zero value is
// not usable; construct with NewGenerator.
type Generator struct {
	site    uint32
	counter atomic.Uint32
	now     func() time.Time
}

// NewGenerator returns a Generator whose IDs carry a fingerprint of siteName.
func NewGenerator(siteName string) *Generator {
	h := fnv.New32a()
	h.Write([]byte(siteName))
	return &Generator{site: h.Sum32(), now: time.Now}
}

// newGeneratorAt is a test seam fixing the clock.
func newGeneratorAt(siteName string, now func() time.Time) *Generator {
	g := NewGenerator(siteName)
	g.now = now
	return g
}

// New mints a fresh ID. Safe for concurrent use.
func (g *Generator) New() ID {
	var id ID
	binary.BigEndian.PutUint32(id[0:4], g.site)
	ms := uint64(g.now().UnixMilli())
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], ms)
	copy(id[4:10], buf[2:])
	binary.BigEndian.PutUint16(id[10:12], uint16(g.counter.Add(1)))
	if _, err := rand.Read(id[12:16]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to
		// counter-derived bits rather than panicking in a library.
		binary.BigEndian.PutUint32(id[12:16], g.counter.Add(1)*2654435761)
	}
	return id
}

// Site returns the generator's site fingerprint.
func (g *Generator) Site() uint32 { return g.site }

// Registry maps names and IDs to live objects at one site. It is the local
// half of the naming requirement; global uniqueness comes from the IDs
// themselves. The zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	byID   map[ID]any
	byName map[string]ID
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:   make(map[ID]any),
		byName: make(map[string]ID),
	}
}

// ErrNameTaken reports a Bind against an already-bound human name.
var ErrNameTaken = errors.New("name already bound")

// ErrUnbound reports a lookup of an unknown name or ID.
var ErrUnbound = errors.New("name not bound")

// Register associates id with obj, replacing any previous association.
func (r *Registry) Register(id ID, obj any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byID[id] = obj
}

// Deregister removes id. It does not search the name bindings for ones
// pointing at it — that walk made every departure cost the size of the
// site: whoever bound a name owns it and Unbinds (or Rebinds) it. A name
// left pointing at a deregistered id resolves to nothing: Lookup reports it
// as ErrUnbound.
func (r *Registry) Deregister(id ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.byID, id)
}

// Bind gives id a human-readable name. Names are unique per site.
func (r *Registry) Bind(name string, id ID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[name]; ok && prev != id {
		return fmt.Errorf("%w: %q", ErrNameTaken, name)
	}
	if _, ok := r.byID[id]; !ok {
		return fmt.Errorf("%w: id %s not registered", ErrUnbound, id)
	}
	r.byName[name] = id
	return nil
}

// Rebind points name at id atomically, replacing any previous binding.
// Unlike an Unbind/Bind pair, the name never passes through an unbound
// window: a concurrent Lookup sees either the old object or the new one,
// never "name not bound". The id must already be registered.
func (r *Registry) Rebind(name string, id ID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[id]; !ok {
		return fmt.Errorf("%w: id %s not registered", ErrUnbound, id)
	}
	r.byName[name] = id
	return nil
}

// Unbind removes a human name, leaving the object registered.
func (r *Registry) Unbind(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.byName, name)
}

// LookupID returns the object registered under id.
func (r *Registry) LookupID(id ID) (any, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	obj, ok := r.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %s", ErrUnbound, id)
	}
	return obj, nil
}

// Lookup resolves a human name to its object.
func (r *Registry) Lookup(name string) (any, error) {
	if obj, ok := r.Get(name); ok {
		return obj, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnbound, name)
}

// Get is Lookup without the error: false when name is unbound or its
// binding is stale. A miss is a cheap answer, not a failure.
func (r *Registry) Get(name string) (any, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.byName[name]
	if !ok {
		return nil, false
	}
	obj, ok := r.byID[id]
	return obj, ok
}

// Resolve returns the ID bound to a human name.
func (r *Registry) Resolve(name string) (ID, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.byName[name]
	if !ok {
		return Nil, fmt.Errorf("%w: %q", ErrUnbound, name)
	}
	return id, nil
}

// Names returns all bound human names, in no particular order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	return names
}

// Len reports the number of registered objects.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}
