package transport

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks a failure produced by a FaultConn, distinguishable
// from real transport failures in tests.
var ErrInjected = errors.New("injected transport fault")

// FaultRule is one failure-injection rule. Rules attach to specific verbs
// (FaultConn.VerbRules) or to Ping (FaultConn.PingRule); the FaultConn's
// own FailEvery/FailProb/Delay fields act as the default rule for calls
// without a verb-specific one.
type FaultRule struct {
	// Fail makes every matching operation fail.
	Fail bool
	// FailFirst makes the first N matching operations (1-based) fail,
	// after which the rule passes — the shape of a transient outage that
	// heals mid-retry.
	FailFirst int
	// FailEvery makes every Nth matching operation (1-based) fail.
	FailEvery int
	// FailProb fails each matching operation with this probability, drawn
	// from the FaultConn's seeded source (deterministic per seed).
	FailProb float64
	// Delay is added before the operation.
	Delay time.Duration
	// FailAfter changes *when* a selected failure strikes: the operation
	// is delivered to the inner connection first and only the response is
	// dropped — modeling a request that executed remotely while the caller
	// sees a transport failure (the ambiguous half of partial failure).
	FailAfter bool
	// DropNext, when non-nil, arms failures dynamically: each matching
	// operation decrements the counter and fails while it was positive;
	// at (or below) zero the rule passes. A fault schedule stores N here
	// to drop the next N operations without rebuilding rule tables —
	// FaultNet hands the same rule to every redial of a pair, so the
	// armed count survives reconnects.
	DropNext *atomic.Int64

	calls atomic.Int64
}

// Calls reports how many operations this rule has matched.
func (r *FaultRule) Calls() int64 { return r.calls.Load() }

// delay applies the rule's delay, honoring cancellation.
func (r *FaultRule) delay(ctx context.Context) error {
	if r.Delay <= 0 {
		return nil
	}
	t := time.NewTimer(r.Delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// shouldFail decides whether matching operation n (1-based) fails.
func (r *FaultRule) shouldFail(n int64, chance func(float64) bool) bool {
	if r.Fail {
		return true
	}
	if r.DropNext != nil && r.DropNext.Add(-1) >= 0 {
		return true
	}
	if r.FailFirst > 0 && n <= int64(r.FailFirst) {
		return true
	}
	if r.FailEvery > 0 && n%int64(r.FailEvery) == 0 {
		return true
	}
	if r.FailProb > 0 && chance(r.FailProb) {
		return true
	}
	return false
}

// FaultConn wraps a Conn with deterministic failure injection for testing
// partial failure. The top-level FailEvery/FailProb/Delay fields form the
// default rule for Call; VerbRules override it per verb and PingRule
// governs Ping (so breaker half-open probes can be failed or healed
// independently of calls). Probabilistic faults draw from a source seeded
// by Seed, so a given seed yields one reproducible fault schedule.
//
// A nil Inner models a permanently cut wire: every operation fails
// ErrInjected. Cut and Heal toggle the same condition dynamically,
// mid-test, without touching the wrapped connection.
type FaultConn struct {
	Inner Conn
	// FailEvery makes every Nth Call (1-based) return ErrInjected.
	FailEvery int
	// FailProb fails each Call with this probability (seeded by Seed).
	FailProb float64
	// Delay is added before each call.
	Delay time.Duration
	// Seed seeds the probabilistic fault source (zero is a valid seed).
	Seed int64
	// VerbRules, when a verb is present, replaces the default rule for
	// that verb's calls.
	VerbRules map[string]*FaultRule
	// PingRule, when set, injects faults into Ping.
	PingRule *FaultRule
	// Gate, when non-nil, replaces the conn's own cut flag with shared
	// state: the wire is severed while Gate is true. FaultNet points every
	// conn of an ordered site pair at one gate, so a partition applied to
	// the pair survives redials (a reconnect cannot tunnel through a cut
	// that is still in force). Cut and Heal write through to the gate.
	Gate *atomic.Bool

	cut   atomic.Bool
	calls atomic.Int64
	pings atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand
}

var _ Conn = (*FaultConn)(nil)

// Calls reports how many Call attempts were made (including failed ones).
func (f *FaultConn) Calls() int64 { return f.calls.Load() }

// Pings reports how many Ping attempts were made (including failed ones).
func (f *FaultConn) Pings() int64 { return f.pings.Load() }

// Cut severs the wire: every Call and Ping fails ErrInjected until Heal.
func (f *FaultConn) Cut() {
	if f.Gate != nil {
		f.Gate.Store(true)
		return
	}
	f.cut.Store(true)
}

// Heal restores a wire severed by Cut.
func (f *FaultConn) Heal() {
	if f.Gate != nil {
		f.Gate.Store(false)
		return
	}
	f.cut.Store(false)
}

// severed reports whether the wire is currently cut (gate or local flag).
func (f *FaultConn) severed() bool {
	if f.Gate != nil {
		return f.Gate.Load()
	}
	return f.cut.Load()
}

// chance draws from the seeded source.
func (f *FaultConn) chance(p float64) bool {
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.Seed))
	}
	return f.rng.Float64() < p
}

// Call implements Conn with injection: the verb's rule, or else the
// default rule the top-level fields form, numbered by the conn's calls.
func (f *FaultConn) Call(ctx context.Context, verb string, payload []byte) ([]byte, error) {
	n := f.calls.Add(1)
	if f.severed() {
		return nil, ErrInjected
	}
	rule := f.VerbRules[verb]
	if rule != nil {
		n = rule.calls.Add(1)
	} else {
		rule = &FaultRule{FailEvery: f.FailEvery, FailProb: f.FailProb, Delay: f.Delay}
	}
	var out []byte
	err := f.inject(ctx, rule, n, func() (err error) {
		out, err = f.Inner.Call(ctx, verb, payload)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Ping implements Conn with injection (PingRule).
func (f *FaultConn) Ping(ctx context.Context) error {
	n := f.pings.Add(1)
	if f.severed() {
		return ErrInjected
	}
	rule := f.PingRule
	if rule != nil {
		n = rule.calls.Add(1)
	} else {
		rule = &FaultRule{}
	}
	return f.inject(ctx, rule, n, func() error { return f.Inner.Ping(ctx) })
}

// inject runs op, the inner connection's operation, as matching operation
// n of rule: the rule's delay precedes it, and a selected failure strikes
// before it — or, FailAfter, drops its response. A nil Inner fails it.
func (f *FaultConn) inject(ctx context.Context, rule *FaultRule, n int64, op func() error) error {
	if err := rule.delay(ctx); err != nil {
		return err
	}
	fail := rule.shouldFail(n, f.chance)
	if (fail && !rule.FailAfter) || f.Inner == nil {
		return ErrInjected
	}
	err := op()
	if fail {
		// The request executed remotely; only the response is lost.
		return ErrInjected
	}
	return err
}

// Close implements Conn.
func (f *FaultConn) Close() error {
	if f.Inner == nil {
		return nil
	}
	return f.Inner.Close()
}
