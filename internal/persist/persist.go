package persist

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/wire"
)

// SaveObject has the object write itself (its image) into the slot named
// by its identity. The store is the host's allocated space; the content is
// entirely the object's own (self-contained persistence).
func SaveObject(store Store, obj *core.Object) error {
	img, err := obj.Snapshot()
	if err != nil {
		return fmt.Errorf("persist %s: %w", obj.ID(), err)
	}
	if err := store.Put(img.ID.String(), wire.EncodeImage(img)); err != nil {
		return fmt.Errorf("persist %s: %w", obj.ID(), err)
	}
	return nil
}

// EncodeObject snapshots an object and returns the slot name and encoded
// image that SaveObject would write, without touching a store. Callers
// assembling a batch for Backend.PutAll use this to pay one durability
// barrier for a whole checkpoint instead of one per object.
func EncodeObject(obj *core.Object) (slot string, data []byte, err error) {
	img, err := obj.Snapshot()
	if err != nil {
		return "", nil, fmt.Errorf("persist %s: %w", obj.ID(), err)
	}
	return img.ID.String(), wire.EncodeImage(img), nil
}

// LoadObject bootstraps one object from its slot.
func LoadObject(store Store, slot string, reg *core.BehaviorRegistry,
	opts ...core.MaterializeOption) (*core.Object, error) {
	data, err := store.Get(slot)
	if err != nil {
		return nil, fmt.Errorf("bootstrap %q: %w", slot, err)
	}
	img, err := wire.DecodeImage(data)
	if err != nil {
		return nil, fmt.Errorf("bootstrap %q: %w", slot, err)
	}
	obj, err := core.FromImage(img, reg, opts...)
	if err != nil {
		return nil, fmt.Errorf("bootstrap %q: %w", slot, err)
	}
	return obj, nil
}
