package core

import (
	"fmt"
	"slices"
)

// indexThreshold is the size past which a container keeps a name → position
// index. Up to it, a scan of the names is as fast as a hash and costs no map.
const indexThreshold = 8

// container is an insertion-ordered name→item record — the paper's "item
// container": "a set of name-and-value pairs, where the value is either one
// of the object's data-items or one of its methods". Each MROM object holds
// four: fixed/extensible × data/methods. Fixed containers reject mutation
// once the object is sealed. The entry slice is the record; the index
// mirrors it. The zero value is empty.
//
// container is not safe for concurrent use; the owning Object serializes
// access.
type container[T any] struct {
	entries []entry[T]
	index   map[string]int
}

type entry[T any] struct {
	name string
	item T
}

// find returns the position of name, or -1.
func (c *container[T]) find(name string) int {
	if c.index != nil {
		if i, ok := c.index[name]; ok {
			return i
		}
		return -1
	}
	for i := range c.entries {
		if c.entries[i].name == name {
			return i
		}
	}
	return -1
}

// get returns the item by name.
func (c *container[T]) get(name string) (item T, ok bool) {
	if i := c.find(name); i >= 0 {
		return c.entries[i].item, true
	}
	return item, false
}

// add appends a new name.
func (c *container[T]) add(name string, item T) error {
	if c.find(name) >= 0 {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	c.entries = append(c.entries, entry[T]{name, item})
	c.reindex(len(c.entries) - 1)
	return nil
}

// remove deletes a name, keeping the others in insertion order.
func (c *container[T]) remove(name string) error {
	i := c.find(name)
	if i < 0 {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	c.entries = slices.Delete(c.entries, i, i+1)
	delete(c.index, name)
	c.reindex(i)
	return nil
}

// reindex records the positions of the entries from from on, building the
// index whole on crossing indexThreshold and dropping it on falling back.
func (c *container[T]) reindex(from int) {
	if len(c.entries) <= indexThreshold {
		c.index = nil
		return
	}
	if c.index == nil {
		c.index, from = make(map[string]int, len(c.entries)), 0
	}
	for i := from; i < len(c.entries); i++ {
		c.index[c.entries[i].name] = i
	}
}

// each visits items in insertion order.
func (c *container[T]) each(f func(name string, item T)) {
	for _, e := range c.entries {
		f(e.name, e.item)
	}
}
