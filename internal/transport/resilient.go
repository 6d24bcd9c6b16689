package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrCircuitOpen reports a fail-fast refusal: the connection's circuit
// breaker is open after consecutive transport failures, and its cooldown
// has not yet allowed a half-open probe. Callers should treat the peer as
// down and try other peers (or surface the condition) instead of blocking.
var ErrCircuitOpen = errors.New("circuit open")

// BreakerState is the state of a ResilientConn's circuit breaker.
type BreakerState int32

// Breaker states, in the classic closed → open → half-open cycle.
const (
	// BreakerClosed passes calls through (the healthy state).
	BreakerClosed BreakerState = iota
	// BreakerOpen fails calls fast; after Cooldown a probe is allowed.
	BreakerOpen
	// BreakerHalfOpen admits exactly one Ping probe; its outcome decides
	// between BreakerClosed and BreakerOpen.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int32(s))
	}
}

// ResilientPolicy tunes a ResilientConn. The zero value selects sane
// defaults for every numeric field; Idempotent defaults to nil, which
// disables retries entirely (re-sending a verb whose side effects are
// unknown is never safe by default).
type ResilientPolicy struct {
	// MaxAttempts bounds the total attempts per Call (first try included)
	// for verbs the Idempotent predicate accepts. Default 3.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it. Default 5ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Default 500ms.
	MaxBackoff time.Duration
	// Idempotent reports whether a verb is safe to re-send after a
	// transport failure (the request may or may not have executed). Nil
	// disables retries.
	Idempotent func(verb string) bool
	// FailureThreshold is the number of consecutive transport failures
	// that opens the breaker. Default 4.
	FailureThreshold int
	// Cooldown is how long an open breaker refuses calls before allowing
	// a half-open probe. Default 1s.
	Cooldown time.Duration
}

func (p ResilientPolicy) withDefaults() ResilientPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 5 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
	if p.FailureThreshold <= 0 {
		p.FailureThreshold = 4
	}
	if p.Cooldown <= 0 {
		p.Cooldown = time.Second
	}
	return p
}

// BreakerStatus is a snapshot of a ResilientConn's health.
type BreakerStatus struct {
	State               BreakerState
	ConsecutiveFailures int
	// LastError is the most recent transport failure (nil when healthy).
	LastError error
}

// ResilientConn wraps a Conn with the fault-tolerance the raw carriers do
// not provide: bounded retries with exponential backoff and jitter for
// idempotent verbs, automatic redial when the underlying connection dies
// with ErrClosed, and a per-peer circuit breaker so a dead peer costs an
// immediate ErrCircuitOpen instead of a blocked caller.
//
// Failure accounting is transport-level only: a *RemoteError means the
// peer received, executed and answered the request — the wire is healthy —
// so it neither counts toward the breaker nor triggers a retry. A caller's
// context.Canceled is likewise not held against the peer; deadline
// expiries are (an unresponsive peer is indistinguishable from a dead
// one).
type ResilientConn struct {
	policy ResilientPolicy

	mu          sync.Mutex
	inner       Conn
	redial      func() (Conn, error)
	state       BreakerState
	consecFails int
	openedAt    time.Time
	lastErr     error
	closed      bool
}

var _ Conn = (*ResilientConn)(nil)

// NewResilientConn wraps inner. redial, when non-nil, re-establishes the
// connection after ErrClosed (and performs the initial dial when inner is
// nil — lazy connection). The zero policy means defaults with no retries.
func NewResilientConn(inner Conn, redial func() (Conn, error), policy ResilientPolicy) *ResilientConn {
	return &ResilientConn{policy: policy.withDefaults(), inner: inner, redial: redial}
}

// Status returns a snapshot of the breaker. An open breaker whose cooldown
// has run out reports half-open: the next Admit runs the probe.
func (r *ResilientConn) Status() BreakerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state
	if st == BreakerOpen && time.Since(r.openedAt) >= r.policy.Cooldown {
		st = BreakerHalfOpen
	}
	return BreakerStatus{State: st, ConsecutiveFailures: r.consecFails, LastError: r.lastErr}
}

// SetInner replaces the wrapped connection and returns the previous one
// (which the caller owns — it is not closed, so test harnesses can wrap
// and later restore it). The breaker keeps its state: swapping the wire
// does not assert the peer is healthy.
func (r *ResilientConn) SetInner(conn Conn) Conn {
	r.mu.Lock()
	old := r.inner
	r.inner = conn
	r.mu.Unlock()
	return old
}

// conn returns the live inner connection, dialing if necessary.
func (r *ResilientConn) conn() (Conn, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if r.inner != nil {
		c := r.inner
		r.mu.Unlock()
		return c, nil
	}
	redial := r.redial
	r.mu.Unlock()
	if redial == nil {
		return nil, ErrClosed
	}
	c, err := redial()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	if r.inner == nil {
		r.inner = c
		r.mu.Unlock()
		return c, nil
	}
	// Lost a dial race; use the established connection.
	established := r.inner
	r.mu.Unlock()
	c.Close()
	return established, nil
}

// dropInner forgets (and closes) the inner connection if it is still c, so
// the next attempt redials.
func (r *ResilientConn) dropInner(c Conn) {
	r.mu.Lock()
	if r.inner == c {
		r.inner = nil
	}
	r.mu.Unlock()
	c.Close()
}

// countsAsFailure classifies an error for breaker accounting and retries.
func countsAsFailure(err error) bool {
	var re *RemoteError
	if errors.As(err, &re) {
		return false // the peer answered; the wire is fine
	}
	if errors.Is(err, context.Canceled) {
		return false // the caller gave up; not the peer's fault
	}
	return true
}

// recordSuccess resets failure accounting and closes the breaker.
func (r *ResilientConn) recordSuccess() {
	r.mu.Lock()
	r.consecFails = 0
	r.lastErr = nil
	r.state = BreakerClosed
	r.mu.Unlock()
}

// recordFailure counts a transport failure, opening the breaker at the
// threshold (or re-opening it after a failed half-open probe). It reports
// whether the breaker is still closed.
func (r *ResilientConn) recordFailure(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastErr = err
	r.consecFails++
	if r.state == BreakerHalfOpen || (r.state == BreakerClosed && r.consecFails >= r.policy.FailureThreshold) {
		r.openedAt = time.Now()
		r.state = BreakerOpen
	}
	return r.state == BreakerClosed
}

// Admit asks the breaker whether an operation may go to the peer now; Call,
// CallMulti and Ping ask it first. In the open state it either fails fast
// with ErrCircuitOpen (cooldown pending) or claims the half-open probe: it
// pings the peer and, on success, closes the breaker and admits.
func (r *ResilientConn) Admit(ctx context.Context) error {
	r.mu.Lock()
	switch r.state {
	case BreakerClosed:
		r.mu.Unlock()
		return nil
	case BreakerHalfOpen:
		last := r.lastErr
		r.mu.Unlock()
		return fmt.Errorf("%w (probe in flight): %v", ErrCircuitOpen, last)
	default: // BreakerOpen
		if wait := r.policy.Cooldown - time.Since(r.openedAt); wait > 0 {
			last := r.lastErr
			r.mu.Unlock()
			return fmt.Errorf("%w (retry in %v): %v", ErrCircuitOpen, wait.Round(time.Millisecond), last)
		}
		r.state = BreakerHalfOpen
		r.mu.Unlock()
		return r.probe(ctx)
	}
}

// probe runs the half-open liveness check. It must only be called by the
// goroutine that won the transition to BreakerHalfOpen.
func (r *ResilientConn) probe(ctx context.Context) error {
	c, err := r.conn()
	if err == nil {
		err = c.Ping(ctx)
		if err != nil && errors.Is(err, ErrClosed) {
			r.dropInner(c)
		}
	}
	if err == nil {
		r.recordSuccess()
		return nil
	}
	r.recordFailure(err) // half-open + failure → back to open
	return fmt.Errorf("%w (probe failed): %v", ErrCircuitOpen, err)
}

// backoff sleeps before retry attempt n (1-based), with equal jitter drawn
// from the process's random source, so connections retrying together do
// not stay in step: half the exponential delay is fixed, half random.
func (r *ResilientConn) backoff(ctx context.Context, attempt int) error {
	d := r.policy.BaseBackoff << (attempt - 1)
	if d > r.policy.MaxBackoff || d <= 0 {
		d = r.policy.MaxBackoff
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Call implements Conn. Verbs accepted by the policy's Idempotent
// predicate are retried (with backoff) on transport failures, up to
// MaxAttempts; ErrClosed additionally discards the dead connection so the
// next attempt redials. Non-idempotent verbs get exactly one attempt.
func (r *ResilientConn) Call(ctx context.Context, verb string, payload []byte) ([]byte, error) {
	if err := r.Admit(ctx); err != nil {
		return nil, err
	}
	retryable := r.policy.Idempotent != nil && r.policy.Idempotent(verb)
	var lastErr error
	for attempt := 1; ; attempt++ {
		c, err := r.conn()
		if err == nil {
			var out []byte
			out, err = c.Call(ctx, verb, payload)
			if err == nil {
				r.recordSuccess()
				return out, nil
			}
			if !countsAsFailure(err) {
				var re *RemoteError
				if errors.As(err, &re) {
					r.recordSuccess()
				}
				return nil, err
			}
			if errors.Is(err, ErrClosed) {
				r.dropInner(c)
			}
		}
		closed := r.recordFailure(err)
		lastErr = err
		if !retryable || attempt >= r.policy.MaxAttempts || !closed || ctx.Err() != nil {
			return nil, lastErr
		}
		if err := r.backoff(ctx, attempt); err != nil {
			return nil, lastErr
		}
	}
}

// CallMulti implements MultiCaller: the whole batch is admitted through
// the breaker once, then pipelined over the inner connection (DoMulti
// falls back to concurrent Calls when the carrier cannot pipeline).
// Accounting is per-batch: one answered request — success or *RemoteError*
// — proves the wire healthy; a batch that fails wholesale at the transport
// level counts as a single breaker failure, and ErrClosed discards the
// dead connection so the next operation redials. Individual requests are
// never retried here: a fan-out caller sees every per-call outcome and
// decides itself what is worth re-issuing.
func (r *ResilientConn) CallMulti(ctx context.Context, reqs []MultiRequest) []MultiResult {
	failBatch := func(err error) []MultiResult {
		results := make([]MultiResult, len(reqs))
		for i := range results {
			results[i] = MultiResult{Err: err}
		}
		return results
	}
	if len(reqs) == 0 {
		return nil
	}
	if err := r.Admit(ctx); err != nil {
		return failBatch(err)
	}
	c, err := r.conn()
	if err != nil {
		r.recordFailure(err)
		return failBatch(err)
	}
	results := DoMulti(ctx, c, reqs)

	answered := false
	var transportErr error
	sawClosed := false
	for _, res := range results {
		if res.Err == nil {
			answered = true
			continue
		}
		var re *RemoteError
		if errors.As(res.Err, &re) {
			answered = true // the peer executed and replied
			continue
		}
		if countsAsFailure(res.Err) && transportErr == nil {
			transportErr = res.Err
		}
		if errors.Is(res.Err, ErrClosed) {
			sawClosed = true
		}
	}
	if sawClosed {
		r.dropInner(c)
	}
	if answered {
		r.recordSuccess()
	} else if transportErr != nil {
		r.recordFailure(transportErr)
	}
	return results
}

// Ping implements Conn, breaker-aware: with the breaker open it performs
// the half-open probe itself once the cooldown allows (background health
// probers drive recovery by calling this), otherwise it fails fast.
func (r *ResilientConn) Ping(ctx context.Context) error {
	if err := r.Admit(ctx); err != nil {
		return err
	}
	// Admit's successful half-open probe already proved liveness; in the
	// closed state, ping the wire and account the outcome.
	c, err := r.conn()
	if err == nil {
		err = c.Ping(ctx)
	}
	if err == nil {
		r.recordSuccess()
		return nil
	}
	if countsAsFailure(err) {
		if errors.Is(err, ErrClosed) && c != nil {
			r.dropInner(c)
		}
		r.recordFailure(err)
	}
	return err
}

// Close implements Conn: the wrapper stops redialing and closes the
// current inner connection.
func (r *ResilientConn) Close() error {
	r.mu.Lock()
	r.closed = true
	inner := r.inner
	r.inner = nil
	r.mu.Unlock()
	if inner != nil {
		return inner.Close()
	}
	return nil
}
