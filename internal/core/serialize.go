package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the "advanced features … synchronization mechanisms
// to allow implementation of concurrent programming models" requirement
// (§1). An object built with Serialized() processes external invocations
// one at a time, actor-style: the object's methods can then mutate its
// state without further coordination, which is the concurrency model most
// mobile-object programs assume.
//
// Admission is tracked per call chain, not per re-entry depth: the first
// invocation a chain makes on a serialized object acquires its slot, and
// every later arrival of the same chain at that object — self-calls,
// meta-invoke levels, and cycles through other objects (A→B→A) — runs
// inside the admission already granted, so re-entrancy never deadlocks.
// A chain reaching a *different* serialized object (A→B with B serialized)
// queues on B like any fresh entry; the earlier depth-based rule silently
// skipped that queue and let B's bodies interleave.
//
// Two chains that hold each other's objects and then cross (A→B while
// B→A) used to block forever, exactly as two actors awaiting each other
// would. That condition is now diagnosed instead of suffered: every
// blocked admission publishes its waits-for edge in the deadlock detector
// of the object's site and chases the edges from there (deadlock.go); the
// lowest chain identity on a cycle fails ErrDeadlock naming every chain
// and object on it — the victim's abort releases its admissions, so the
// surviving chains proceed. A per-object admission timeout, returning
// ErrAdmissionTimeout, backstops any cycle the detectors cannot prove.
//
// Structural operations remain guarded by the object's internal lock
// regardless, so Serialized() is about *method bodies*, not about memory
// safety (which holds either way).

// DefaultAdmissionTimeout bounds how long an invocation waits for a
// serialized object's admission slot before failing ErrAdmissionTimeout.
// Override per object with AdmissionTimeout.
const DefaultAdmissionTimeout = 10 * time.Second

// Serialized makes the object admit one external invocation at a time,
// with DefaultAdmissionTimeout as its admission bound.
func Serialized() BuildOption {
	return func(o *Object) {
		o.admission = make(chan struct{}, 1)
		if o.admitTimeout == 0 {
			o.admitTimeout = DefaultAdmissionTimeout
		}
	}
}

// AdmissionTimeout overrides how long invocations wait for this object's
// admission slot (meaningful only together with Serialized).
func AdmissionTimeout(d time.Duration) BuildOption {
	return func(o *Object) { o.admitTimeout = d }
}

// chainSeq numbers call chains for diagnostics.
var chainSeq atomic.Uint64

// callChain records which serialized objects the current invocation chain
// has been admitted to. It propagates through every child Invocation, so
// re-entry is recognized no matter how many objects the chain traversed in
// between. Only the chain's own goroutine touches it during a call, but
// bodies may hand work to helper goroutines that call back in — the small
// mutex keeps that safe.
type callChain struct {
	id    uint64
	entry string                 // "<class>.<method>" of the chain's first serialized entry
	gid   atomic.Pointer[string] // global identity "site:id", minted lazily (deadlock.go)
	mu    sync.Mutex
	held  []*Object
	regs  []*Detector // detectors holding a liveness ref on this chain
}

func newCallChain(o *Object, method string) *callChain {
	return &callChain{id: chainSeq.Add(1), entry: o.class + "." + method}
}

// label identifies the chain in deadlock diagnostics: its number and
// entry point, plus its global identity once minted.
func (c *callChain) label() string {
	s := "chain#" + strconv.FormatUint(c.id, 10)
	if c.entry != "" {
		s += "[" + c.entry + "]"
	}
	if gid := c.GID(); gid != "" {
		s += " (" + gid + ")"
	}
	return s
}

func (c *callChain) holds(o *Object) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range c.held {
		if h == o {
			return true
		}
	}
	return false
}

func (c *callChain) push(o *Object) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.held = append(c.held, o)
}

func (c *callChain) drop(o *Object) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.held) - 1; i >= 0; i-- {
		if c.held[i] == o {
			c.held = append(c.held[:i], c.held[i+1:]...)
			return
		}
	}
}

// objLabel identifies an object in deadlock diagnostics.
func objLabel(o *Object) string {
	return fmt.Sprintf("%s<%s>", o.class, o.id)
}

// acquired records c as o's holder; a wait on o that c had published
// becomes the holder edge in the same critical section.
func (d *Detector) acquired(c *callChain, o *Object) {
	d.mu.Lock()
	d.holder[o] = c
	if bw := d.blocked[c]; bw != nil && bw.obj == o {
		delete(d.blocked, c)
	}
	d.mu.Unlock()
	c.push(o)
}

// released clears the holder edge before freeing the slot, so no waiter
// can observe a stale holder once the slot is grantable again.
func (d *Detector) released(c *callChain, o *Object) {
	c.drop(o)
	d.mu.Lock()
	if d.holder[o] == c {
		delete(d.holder, o)
	}
	d.mu.Unlock()
	<-o.admission
}

// admit acquires the admission slot unless this call chain already holds
// it; it returns a release function (no-op for non-serialized objects and
// re-entries). A blocked admission whose chain is the victim of a
// waits-for cycle fails ErrDeadlock; one that outlasts the object's
// admission timeout fails ErrAdmissionTimeout.
func (o *Object) admit(inv *Invocation, method string) (func(), error) {
	if o.admission == nil {
		return func() {}, nil
	}
	if inv.chain == nil {
		inv.chain = newCallChain(o, method)
	} else if inv.chain.holds(o) {
		return func() {}, nil
	}
	chain, d := inv.chain, o.detector()

	// Uncontended: take the slot; only the holder edge is recorded.
	select {
	case o.admission <- struct{}{}:
		d.acquired(chain, o)
		return func() { d.released(chain, o) }, nil
	default:
	}

	// Contended: publish the wait and walk from it; if this chain is the
	// victim of a cycle closed here, the abort is already waiting below.
	abortCh, blockEnd := d.blockBegin(chain, o)
	defer blockEnd()
	timeout := o.admitTimeout
	if timeout <= 0 {
		timeout = DefaultAdmissionTimeout
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case o.admission <- struct{}{}:
		d.acquired(chain, o)
		return func() { d.released(chain, o) }, nil
	case desc := <-abortCh:
		return nil, fmt.Errorf("%w: %s", ErrDeadlock, desc)
	case <-timer.C:
		return nil, fmt.Errorf("%w: %s waited %v for %s (%s)", ErrAdmissionTimeout,
			chain.label(), timeout, objLabel(o), d.holderDesc(o))
	}
}

// holderDesc names the chain holding o's admission at backstop time, so a
// timeout firing is debuggable: it identifies both sides of the blockage.
func (d *Detector) holderDesc(o *Object) string {
	d.mu.Lock()
	holder := d.holder[o]
	d.mu.Unlock()
	if holder == nil {
		return "currently unheld"
	}
	return "held by " + holder.label()
}
