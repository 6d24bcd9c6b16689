package core

import (
	"fmt"

	"repro/internal/security"
	"repro/internal/value"
)

// This file implements the "advanced features … atomicity to facilitate
// consistent computations" requirement (§1). An atomic invocation
// checkpoints the object's mutable state — the extensible containers and
// the meta-invoke chain — runs the method, and rolls everything back if it
// fails, so a partially-applied mutation sequence never survives.
//
// Scope: atomicity covers the object's own extensible state (the only
// state the model lets a method change structurally). Effects on *other*
// objects made during the body are not undone — cross-object atomicity is
// distributed-transaction territory the paper leaves to future work.
// Isolation is per-object: the checkpoint and restore hold the object's
// structural lock, but a concurrent writer interleaving with the body can
// be rolled back with it; serialize external writers around atomic runs.

// checkpoint captures the extensible state of an object.
type checkpoint struct {
	extData      []*DataItem
	extMeth      []*Method
	invokeLevels []*Method
}

// copyDataItem clones an item deeply enough for rollback (value storage is
// cloned; ACLs are immutable by construction).
func copyDataItem(d *DataItem) *DataItem {
	cp := *d
	cp.val = d.val.Clone()
	return &cp
}

// copyMethod snapshots a method (bodies are immutable; the struct fields
// are what setMethod mutates).
func copyMethod(m *Method) *Method {
	cp := *m
	return &cp
}

// checkpointExt captures the current extensible state. Callers must not
// hold o.mu.
func (o *Object) checkpointExt() checkpoint {
	o.mu.Lock()
	defer o.mu.Unlock()
	var cp checkpoint
	o.extData.each(func(_ string, d *DataItem) {
		cp.extData = append(cp.extData, copyDataItem(d))
	})
	o.extMeth.each(func(_ string, m *Method) {
		cp.extMeth = append(cp.extMeth, copyMethod(m))
	})
	for _, lvl := range o.invokeLevels {
		cp.invokeLevels = append(cp.invokeLevels, copyMethod(lvl))
	}
	return cp
}

// restoreExt reinstates a checkpoint, discarding every extensible-section
// change made since it was taken. Every restored item gets a new
// generation, so a handle into the extensible section issued before the
// rollback — during the failed call, say — is stale.
func (o *Object) restoreExt(cp checkpoint) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.extData = container[*DataItem]{}
	for _, d := range cp.extData {
		o.stamp(d.gen)
		_ = o.extData.add(d.name, d)
	}
	o.extMeth = container[*Method]{}
	for _, m := range cp.extMeth {
		o.stamp(m.gen)
		_ = o.extMeth.add(m.name, m)
	}
	for _, m := range cp.invokeLevels {
		o.stamp(m.gen)
	}
	o.invokeLevels = append(o.invokeLevels[:0:0], cp.invokeLevels...)
	o.bumpStruct()
	o.levelCount.Store(int32(len(o.invokeLevels)))
}

// InvokeAtomic invokes a method with all-or-nothing semantics over the
// object's extensible state: if the invocation errors, every data item,
// method, and invocation level added, removed, or changed by it (and by
// anything it called on this object) is rolled back.
func (o *Object) InvokeAtomic(caller security.Principal, name string, args ...value.Value) (value.Value, error) {
	cp := o.checkpointExt()
	v, err := o.Invoke(caller, name, args...)
	if err != nil {
		o.restoreExt(cp)
		return value.Null, fmt.Errorf("atomic %q rolled back: %w", name, err)
	}
	return v, nil
}

// metaAtomic is the reflective counterpart: atomic(name, argsList).
func metaAtomic(inv *Invocation, args []value.Value) (value.Value, error) {
	name, err := argString(args, 0, "method name")
	if err != nil {
		return value.Null, err
	}
	o := inv.self
	cp := o.checkpointExt()
	child := getInvocation(o, inv.caller, "", 0, inv.depth+1, inv.chain)
	v, err := o.invokeFrom(child, name, argList(args, 1))
	putInvocation(child)
	if err != nil {
		o.restoreExt(cp)
		return value.Null, fmt.Errorf("atomic %q rolled back: %w", name, err)
	}
	return v, nil
}
