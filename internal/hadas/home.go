package hadas

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// This file implements the sharded Home container (DESIGN.md §11). The
// paper's site serves "a dynamically changing number of APOs" to many
// simultaneous clients; a single mutex over the APO map serializes every
// lookup behind every arrival. Home is therefore split into
// homeShardCount shards keyed by an FNV-1a hash of the APO name:
//
//   - mutations take one shard's write lock — arrivals, departures and
//     installs on different names proceed in parallel;
//   - lookups are lock-free when the shard publishes a read snapshot
//     (shards at or below homeSnapLimit entries republish on every write,
//     in the spirit of the dispatch fast path's published table), and fall
//     back to the shard's read lock above that, where the O(n) republish
//     cost would dominate mutation;
//   - enumeration (APONames, PersistAll) walks the shards independently —
//     it observes a per-shard-consistent view, which is all the old
//     whole-map lock gave concurrent callers anyway.
const (
	// homeShardCount is the number of Home shards. A power of two, so the
	// hash folds with a mask; 64 spreads independent names across more
	// lock words than any plausible GOMAXPROCS.
	homeShardCount = 64

	// homeSnapLimit is the largest shard (entry count) that republishes
	// its lock-free read snapshot on every mutation. Above it, readers use
	// the shard RLock: copying tens of thousands of entries per arrival
	// would cost more than the read lock saves, and at that size the name
	// space spreads contention across shards already.
	homeSnapLimit = 1024
)

// homeShard is one lock domain of the Home container.
type homeShard struct {
	mu   sync.RWMutex
	live map[string]*core.Object
	// snap is the published read snapshot: non-nil only while the shard is
	// at or below homeSnapLimit, and always current when non-nil (writers
	// republish or invalidate before releasing mu).
	snap atomic.Pointer[map[string]*core.Object]
}

// homeContainer is the sharded Home: the site's APO container.
type homeContainer struct {
	shards [homeShardCount]homeShard
	count  atomic.Int64
}

// homeShardIndex hashes an APO name onto its shard (FNV-1a, masked).
func homeShardIndex(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h & (homeShardCount - 1)
}

func (c *homeContainer) shard(name string) *homeShard {
	return &c.shards[homeShardIndex(name)]
}

// publishLocked refreshes (or invalidates) the shard's read snapshot.
// Callers hold sh.mu.
func (sh *homeShard) publishLocked() {
	if len(sh.live) > homeSnapLimit {
		sh.snap.Store(nil)
		return
	}
	m := make(map[string]*core.Object, len(sh.live))
	for k, v := range sh.live {
		m[k] = v
	}
	sh.snap.Store(&m)
}

// get resolves a Home member. Lock-free when the shard's snapshot is
// published; otherwise one shard RLock.
func (c *homeContainer) get(name string) (*core.Object, bool) {
	sh := c.shard(name)
	if m := sh.snap.Load(); m != nil {
		o, ok := (*m)[name]
		return o, ok
	}
	sh.mu.RLock()
	o, ok := sh.live[name]
	sh.mu.RUnlock()
	return o, ok
}

// has reports Home membership without resolving the object.
func (c *homeContainer) has(name string) bool {
	_, ok := c.get(name)
	return ok
}

// add installs a member, failing (false) when the name is taken.
func (c *homeContainer) add(name string, obj *core.Object) bool {
	sh := c.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.live == nil {
		sh.live = make(map[string]*core.Object)
	}
	if _, dup := sh.live[name]; dup {
		return false
	}
	sh.live[name] = obj
	c.count.Add(1)
	sh.publishLocked()
	return true
}

// put installs or replaces a member unconditionally.
func (c *homeContainer) put(name string, obj *core.Object) {
	sh := c.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.live == nil {
		sh.live = make(map[string]*core.Object)
	}
	if _, present := sh.live[name]; !present {
		c.count.Add(1)
	}
	sh.live[name] = obj
	sh.publishLocked()
}

// claim installs an arriving agent: a vacant name (or a previous
// incarnation with the same identity) is taken; a live member with a
// different identity is a conflict and the container is left untouched.
func (c *homeContainer) claim(name string, obj *core.Object) (conflict bool) {
	sh := c.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.live == nil {
		sh.live = make(map[string]*core.Object)
	}
	if prev, taken := sh.live[name]; taken {
		if prev.ID() != obj.ID() {
			return true
		}
	} else {
		c.count.Add(1)
	}
	sh.live[name] = obj
	sh.publishLocked()
	return false
}

// remove deletes a member, reporting whether it was present. With match
// non-nil the entry is deleted only while it still holds that exact
// object, so an unwind cannot evict a concurrently-installed successor.
func (c *homeContainer) remove(name string, match *core.Object) bool {
	sh := c.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, present := sh.live[name]
	if !present || (match != nil && cur != match) {
		return false
	}
	delete(sh.live, name)
	c.count.Add(-1)
	sh.publishLocked()
	return true
}

// len reports the container's member count.
func (c *homeContainer) len() int { return int(c.count.Load()) }

// names lists the members, sorted. Snapshot shards are read lock-free.
func (c *homeContainer) names() []string {
	out := make([]string, 0, c.len())
	for i := range c.shards {
		sh := &c.shards[i]
		if m := sh.snap.Load(); m != nil {
			for n := range *m {
				out = append(out, n)
			}
			continue
		}
		sh.mu.RLock()
		for n := range sh.live {
			out = append(out, n)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// homeEntry is one (name, object) pair of an enumeration.
type homeEntry struct {
	name string
	obj  *core.Object
}

// entries lists the members with their objects, in shard order (callers
// needing a stable order sort by name).
func (c *homeContainer) entries() []homeEntry {
	out := make([]homeEntry, 0, c.len())
	for i := range c.shards {
		sh := &c.shards[i]
		if m := sh.snap.Load(); m != nil {
			for n, o := range *m {
				out = append(out, homeEntry{n, o})
			}
			continue
		}
		sh.mu.RLock()
		for n, o := range sh.live {
			out = append(out, homeEntry{n, o})
		}
		sh.mu.RUnlock()
	}
	return out
}
