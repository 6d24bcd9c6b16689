package core

import (
	"fmt"
	"sync"

	"repro/internal/naming"
)

// Class implements static specialization (§4): a class is a constructor
// recipe; a subclass copies the super-class declarations into its own
// constructor before adding its own ("copying the containers of the
// super-class to the sub-class … are done in the sub-class constructor").
// Classes exist only at construction time — objects do not keep a link to
// their class, and object-level mutability may make an instance diverge
// from its class's structure, exactly the weakened class-instance coupling
// the paper discusses.
type Class struct {
	name    string
	parent  *Class
	declare func(*Builder)
}

// NewClass defines a class. declare adds the class's items to a builder.
func NewClass(name string, declare func(*Builder)) *Class {
	return &Class{name: name, declare: declare}
}

// Subclass defines a specialization: parent declarations apply first
// (super-class constructor), then the subclass's own.
func (c *Class) Subclass(name string, declare func(*Builder)) *Class {
	return &Class{name: name, parent: c, declare: declare}
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// Parent returns the super-class (nil for a root class).
func (c *Class) Parent() *Class { return c.parent }

// New constructs an instance: the builder runs every declaration from the
// root down, then seals the object.
func (c *Class) New(gen *naming.Generator, opts ...BuildOption) (*Object, error) {
	b := NewBuilder(gen, c.name, opts...)
	var apply func(k *Class)
	apply = func(k *Class) {
		if k == nil {
			return
		}
		apply(k.parent)
		if k.declare != nil {
			k.declare(b)
		}
	}
	apply(c)
	obj, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("class %q: %w", c.name, err)
	}
	return obj, nil
}

// ClassRegistry names classes at a site so arriving requests can
// instantiate by name. Safe for concurrent use.
type ClassRegistry struct {
	mu sync.RWMutex
	m  map[string]*Class
}

// NewClassRegistry returns an empty registry.
func NewClassRegistry() *ClassRegistry {
	return &ClassRegistry{m: make(map[string]*Class)}
}

// Register adds a class under its name.
func (r *ClassRegistry) Register(c *Class) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[c.name]; dup {
		return fmt.Errorf("%w: class %q", ErrExists, c.name)
	}
	r.m[c.name] = c
	return nil
}

// Lookup resolves a class by name.
func (r *ClassRegistry) Lookup(name string) (*Class, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.m[name]
	if !ok {
		return nil, fmt.Errorf("%w: class %q", ErrNotFound, name)
	}
	return c, nil
}
