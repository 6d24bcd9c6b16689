// Package core implements MROM, the Mutable Reflective Object Model of
// Holder & Ben-Shaul (ICDCS'97). An MROM object is split into a fixed and
// an extensible section (each holding data items and methods), carries its
// reflective meta-methods inside itself (self-containment), and is invoked
// through a level-0 mechanism — Lookup, Match, Apply(pre → body → post) —
// that can itself be overridden by meta-invoke methods installed in the
// extensible section, to arbitrary depth, with level 0 as the non-reflective
// stopping condition.
package core

import "errors"

// Sentinel errors of the model. All errors returned by this package wrap
// one of these (or a substrate sentinel such as security.ErrDenied or
// value.ErrBadType); callers dispatch with errors.Is.
var (
	// ErrNotFound reports a lookup of an unknown item or method.
	ErrNotFound = errors.New("item not found")
	// ErrExists reports an add of an already-present name.
	ErrExists = errors.New("item already exists")
	// ErrFixed reports a mutation attempt on the fixed section.
	ErrFixed = errors.New("fixed section is immutable")
	// ErrSealed reports construction-time operations on a sealed object.
	ErrSealed = errors.New("object is sealed")
	// ErrPreconditionFailed reports a pre-procedure returning false; the
	// method body was not invoked.
	ErrPreconditionFailed = errors.New("pre-procedure returned false")
	// ErrPostconditionFailed reports a post-procedure returning false;
	// per the paper this "raises an exception".
	ErrPostconditionFailed = errors.New("post-procedure returned false")
	// ErrBadHandle reports an invalid or stale item handle.
	ErrBadHandle = errors.New("invalid item handle")
	// ErrArity reports a meta-method called with unusable arguments.
	ErrArity = errors.New("bad meta-method arguments")
	// ErrReentry reports a runaway meta-invocation recursion.
	ErrReentry = errors.New("invocation recursion limit exceeded")
	// ErrUnknownBehavior reports a native body name absent from the
	// behavior registry during object reconstruction.
	ErrUnknownBehavior = errors.New("unknown native behavior")
	// ErrDeadlock reports a cross-chain admission cycle between Serialized
	// objects (A→B while B→A); the error names the chains and objects on
	// the cycle. The failing chain's abort unblocks the others.
	ErrDeadlock = errors.New("serialized admission deadlock")
	// ErrAdmissionTimeout reports an admission wait on a Serialized object
	// exceeding its timeout — the backstop for blockages the deadlock
	// detectors cannot prove (e.g. a probe path cut by a partition).
	ErrAdmissionTimeout = errors.New("serialized admission timed out")
)
