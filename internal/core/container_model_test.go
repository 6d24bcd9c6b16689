package core

// TestContainerMatchesModel holds the item container to a plain ordered
// map: a slice of names in insertion order beside a name → item map.
// Histories of add/get/remove/rename/each cross the index threshold in both
// directions (8 → 9 → 8, and 0 → 40 → 0); after every step the container's
// answers, its listing order and its representation (an index exactly past
// indexThreshold entries, naming every entry's position) must agree with
// the model. A failure prints the seed and a shrunk op list.
//
// Mutants it catches, each made by hand in a scratch copy: remove not
// reindexing (stale positions, a panic past the slice); remove reindexing
// from one past the removed entry; the threshold off by one (an index kept
// at 8 entries); each visiting the index map instead of the slice.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

type containerOp struct {
	kind string // add, get, remove, rename, each
	name string
	to   string // rename target
	item int
}

func (op containerOp) String() string {
	switch op.kind {
	case "add":
		return fmt.Sprintf("add(%s=%d)", op.name, op.item)
	case "rename":
		return fmt.Sprintf("rename(%s→%s)", op.name, op.to)
	case "each":
		return "each"
	default:
		return fmt.Sprintf("%s(%s)", op.kind, op.name)
	}
}

// containerModel is the specification: insertion order plus a map.
type containerModel struct {
	order []string
	items map[string]int
}

func (m *containerModel) add(name string, item int) error {
	if _, ok := m.items[name]; ok {
		return ErrExists
	}
	m.items[name] = item
	m.order = append(m.order, name)
	return nil
}

func (m *containerModel) remove(name string) error {
	if _, ok := m.items[name]; !ok {
		return ErrNotFound
	}
	delete(m.items, name)
	m.order = slices.DeleteFunc(m.order, func(n string) bool { return n == name })
	return nil
}

// rename is what applyDataProps and applyMethodProps do to a container: a
// remove and an add of the same item, which moves it to the tail.
func rename[T any](remove func(string) error, add func(string, T) error, get func(string) (T, bool), from, to string) error {
	it, ok := get(from)
	if !ok {
		return ErrNotFound
	}
	if _, dup := get(to); dup {
		return ErrExists
	}
	if err := remove(from); err != nil {
		return err
	}
	return add(to, it)
}

func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || errors.Is(a, ErrExists) == errors.Is(b, ErrExists))
}

// runContainerOps replays ops on a container and the model and returns the
// first disagreement; a panic (a stale position indexes past the slice) is
// one too.
func runContainerOps(ops []containerOp, names []string) (err error) {
	var c container[int]
	m := &containerModel{items: map[string]int{}}
	mget := func(n string) (int, bool) { it, ok := m.items[n]; return it, ok }
	i := 0
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("step %d %v: panic: %v", i, ops[i], r)
		}
	}()
	for ; i < len(ops); i++ {
		op := ops[i]
		switch op.kind {
		case "add":
			if a, b := c.add(op.name, op.item), m.add(op.name, op.item); !sameErr(a, b) {
				return fmt.Errorf("step %d %v: container %v, model %v", i, op, a, b)
			}
		case "remove":
			if a, b := c.remove(op.name), m.remove(op.name); !sameErr(a, b) {
				return fmt.Errorf("step %d %v: container %v, model %v", i, op, a, b)
			}
		case "rename":
			a := rename(c.remove, c.add, c.get, op.name, op.to)
			b := rename(m.remove, m.add, mget, op.name, op.to)
			if !sameErr(a, b) {
				return fmt.Errorf("step %d %v: container %v, model %v", i, op, a, b)
			}
		case "get":
			it, ok := c.get(op.name)
			want, wok := m.items[op.name]
			if ok != wok || it != want {
				return fmt.Errorf("step %d %v: container %d,%v, model %d,%v", i, op, it, ok, want, wok)
			}
		case "each":
		}
		// After every step: the listing, every name's answer, the index.
		var listed []string
		c.each(func(name string, it int) {
			listed = append(listed, name)
			if it != m.items[name] {
				listed = append(listed, fmt.Sprintf("<%s holds %d>", name, it))
			}
		})
		if !slices.Equal(listed, m.order) {
			return fmt.Errorf("step %d %v: each = %v, model %v", i, op, listed, m.order)
		}
		for _, n := range names {
			it, ok := c.get(n)
			if want, wok := m.items[n]; ok != wok || it != want {
				return fmt.Errorf("step %d %v: get(%s) = %d,%v, model %d,%v", i, op, n, it, ok, want, wok)
			}
		}
		if (c.index != nil) != (len(c.entries) > indexThreshold) {
			return fmt.Errorf("step %d %v: %d entries, index kept = %v", i, op, len(c.entries), c.index != nil)
		}
		if c.index != nil {
			if len(c.index) != len(c.entries) {
				return fmt.Errorf("step %d %v: index names %d of %d entries", i, op, len(c.index), len(c.entries))
			}
			for pos, e := range c.entries {
				if c.index[e.name] != pos {
					return fmt.Errorf("step %d %v: index puts %s at %d, it is at %d", i, op, e.name, c.index[e.name], pos)
				}
			}
		}
	}
	return nil
}

// containerHistory walks the size through 8 → 9 → 8 → 9 → 8, then up to 40
// and down to 0, with gets, renames and listings interleaved.
func containerHistory(rng *rand.Rand, names []string) []containerOp {
	var ops []containerOp
	live := map[string]bool{}
	pick := func(want bool) string {
		for {
			if n := names[rng.Intn(len(names))]; live[n] == want {
				return n
			}
		}
	}
	for _, target := range []int{8, 9, 8, 9, 8, 40, 0} {
		for len(live) != target {
			switch r := rng.Intn(10); {
			case r < 5 && len(live) < target:
				n := pick(false)
				live[n] = true
				ops = append(ops, containerOp{kind: "add", name: n, item: len(ops)})
			case r < 5:
				n := pick(true)
				delete(live, n)
				ops = append(ops, containerOp{kind: "remove", name: n})
			case r < 7 && len(live) > 0:
				from, to := pick(true), pick(false)
				delete(live, from)
				live[to] = true
				ops = append(ops, containerOp{kind: "rename", name: from, to: to})
			case r < 8:
				// A duplicate add or an absent remove: both must refuse.
				if len(live) > 0 {
					ops = append(ops, containerOp{kind: "add", name: pick(true), item: -1})
				}
				ops = append(ops, containerOp{kind: "remove", name: pick(false)})
			case r < 9:
				ops = append(ops, containerOp{kind: "get", name: names[rng.Intn(len(names))]})
			default:
				ops = append(ops, containerOp{kind: "each"})
			}
		}
	}
	return ops
}

// shrinkContainerOps drops ops one at a time while the failure persists.
func shrinkContainerOps(ops []containerOp, names []string) ([]containerOp, error) {
	err := runContainerOps(ops, names)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(ops); i++ {
			cand := slices.Delete(slices.Clone(ops), i, i+1)
			if e := runContainerOps(cand, names); e != nil {
				ops, err, changed = cand, e, true
				i--
			}
		}
	}
	return ops, err
}

func TestContainerMatchesModel(t *testing.T) {
	names := make([]string, 48)
	for i := range names {
		names[i] = fmt.Sprintf("n%02d", i)
	}
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ops := containerHistory(rand.New(rand.NewSource(seed)), names)
		if err := runContainerOps(ops, names); err != nil {
			small, serr := shrinkContainerOps(ops, names)
			t.Fatalf("seed %d: %v\nshrunk to %d of %d ops: %v\n  %v", seed, err, len(small), len(ops), serr, small)
		}
	}
}
