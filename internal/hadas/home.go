package hadas

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// This file implements the Home container (DESIGN.md §11). The paper's
// site serves "a dynamically changing number of APOs" to many simultaneous
// clients, so Home is one lock-free concurrent map: a lookup is a single
// Load that shares no lock word with site mutation, every mutation is one
// atomic operation on one name — what it costs does not depend on how many
// APOs the site holds — and enumeration (APONames, PersistAll) is a Range:
// it visits no name twice and every member that is present throughout,
// which is all a whole-map lock gave concurrent callers anyway.
//
// The container only arbitrates between installers of one name. Whether a
// name may enter Home at all is Site.admit's decision (site.go).
type homeContainer struct {
	m     sync.Map // APO name → *core.Object
	count atomic.Int64
}

// get resolves a Home member.
func (c *homeContainer) get(name string) (*core.Object, bool) {
	v, ok := c.m.Load(name)
	if !ok {
		return nil, false
	}
	return v.(*core.Object), true
}

// has reports Home membership without resolving the object.
func (c *homeContainer) has(name string) bool {
	_, ok := c.m.Load(name)
	return ok
}

// add installs a member, failing (false) when the name is taken.
func (c *homeContainer) add(name string, obj *core.Object) bool {
	if _, taken := c.m.LoadOrStore(name, obj); taken {
		return false
	}
	c.count.Add(1)
	return true
}

// put installs or replaces a member unconditionally.
func (c *homeContainer) put(name string, obj *core.Object) {
	if _, replaced := c.m.Swap(name, obj); !replaced {
		c.count.Add(1)
	}
}

// claim installs an arriving agent: a vacant name (or a previous
// incarnation with the same identity) is taken; a live member with a
// different identity is a conflict and the container is left untouched.
func (c *homeContainer) claim(name string, obj *core.Object) (conflict bool) {
	for {
		prev, taken := c.m.LoadOrStore(name, obj)
		if !taken {
			c.count.Add(1)
			return false
		}
		if prev.(*core.Object).ID() != obj.ID() {
			return true
		}
		// The swap fails when the previous incarnation was itself replaced
		// or removed since the load: look again.
		if c.m.CompareAndSwap(name, prev, obj) {
			return false
		}
	}
}

// remove deletes a member, reporting whether it was present. With match
// non-nil the entry is deleted only while it still holds that exact
// object, so an unwind cannot evict a concurrently-installed successor.
func (c *homeContainer) remove(name string, match *core.Object) (removed bool) {
	if match != nil {
		removed = c.m.CompareAndDelete(name, match)
	} else {
		_, removed = c.m.LoadAndDelete(name)
	}
	if removed {
		c.count.Add(-1)
	}
	return removed
}

// len reports the container's member count.
func (c *homeContainer) len() int { return int(c.count.Load()) }

// names lists the members, sorted.
func (c *homeContainer) names() []string {
	out := make([]string, 0, c.len())
	c.m.Range(func(name, _ any) bool {
		out = append(out, name.(string))
		return true
	})
	sort.Strings(out)
	return out
}

// homeEntry is one (name, object) pair of an enumeration.
type homeEntry struct {
	name string
	obj  *core.Object
}

// entries lists the members with their objects, in no particular order
// (callers needing a stable order sort by name).
func (c *homeContainer) entries() []homeEntry {
	out := make([]homeEntry, 0, c.len())
	c.m.Range(func(name, obj any) bool {
		out = append(out, homeEntry{name.(string), obj.(*core.Object)})
		return true
	})
	return out
}
