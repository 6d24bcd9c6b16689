// Package persist implements the self-containment requirement's persistence
// half (§1): "a long-lived persistent mobile object should contain its own
// persistence scheme and be able to write itself to disk on a space
// allocated for it by the host environment, as well as read itself into
// memory following some bootstrap procedure initiated by the host
// environment."
//
// The host side is a Store — it only allocates named slots of bytes. The
// object side writes its own image (via its Snapshot) into the slot, and
// LoadObject re-materializes one from its slot. Integrity is checked
// with a per-slot checksum so a torn write surfaces as an error, not as a
// corrupted object.
package persist

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Errors of the persistence substrate.
var (
	// ErrNoSlot reports a read of an unallocated slot.
	ErrNoSlot = errors.New("no such slot")
	// ErrCorrupt reports a slot whose checksum does not match its content.
	ErrCorrupt = errors.New("slot content corrupt")
	// ErrClosed reports an operation against a closed backend.
	ErrClosed = errors.New("store closed")
)

// Store is the host-allocated space objects persist themselves into — the
// object-facing subset of the contract: an object writing itself to disk
// needs nothing beyond named slots of bytes. Implementations must be safe
// for concurrent use.
type Store interface {
	// Put writes data into a slot, replacing previous content atomically.
	Put(slot string, data []byte) error
	// Get reads a slot's content.
	Get(slot string) ([]byte, error)
	// Delete removes a slot; deleting a missing slot is not an error.
	Delete(slot string) error
	// List returns all slot names, sorted.
	List() ([]string, error)
}

// Backend is the full host-side storage contract: Store plus the batch
// and lifecycle operations a site needs to checkpoint many objects
// cheaply. Both implementations are exercised by one conformance suite
// (conformance_test.go) so they stay behaviorally interchangeable — the
// substrate can evolve without the object-side persistence scheme
// noticing.
type Backend interface {
	Store
	// PutAll applies a batch through one durability barrier: a nil value
	// deletes its slot, any other value replaces the slot's content. When
	// it returns nil the whole batch is durable, and the batch is
	// all-or-nothing across a crash: recovery finds every slot of it
	// changed or none — a state transition that spans several slots (a
	// checkpoint and its manifest, a migration's commit) is one PutAll.
	PutAll(batch map[string][]byte) error
	// Sync is a durability barrier: it returns once every previously
	// acknowledged write is on stable storage.
	Sync() error
	// Close flushes and releases the backend. Operations on a closed
	// backend may fail with ErrClosed. Close is idempotent.
	Close() error
}

// MemStore is an in-memory Store for tests and ephemeral sites.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

var _ Backend = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[string][]byte)} }

// PutAll implements Backend under one lock acquisition.
func (s *MemStore) PutAll(batch map[string][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for slot, data := range batch {
		if data == nil {
			delete(s.m, slot)
			continue
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		s.m[slot] = cp
	}
	return nil
}

// Sync implements Backend; memory has no stable storage to reach.
func (s *MemStore) Sync() error { return nil }

// Close implements Backend. The store stays usable — an in-memory store
// has nothing to release, and chaos-restart tests reuse it as the
// "disk" that survives a simulated crash.
func (s *MemStore) Close() error { return nil }

// Put implements Store.
func (s *MemStore) Put(slot string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[slot] = cp
	return nil
}

// Get implements Store.
func (s *MemStore) Get(slot string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.m[slot]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSlot, slot)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Delete implements Store.
func (s *MemStore) Delete(slot string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, slot)
	return nil
}

// List implements Store.
func (s *MemStore) List() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}
