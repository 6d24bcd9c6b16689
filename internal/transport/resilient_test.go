package transport

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptConn is a Conn whose Call outcomes are scripted: it returns the
// next error from errs (nil means success) and echoes the payload. Once
// the script is exhausted it always succeeds. Ping outcomes are scripted
// independently via pingErrs.
type scriptConn struct {
	mu       sync.Mutex
	errs     []error
	pingErrs []error
	calls    int
	pings    int
	closed   bool
}

func (s *scriptConn) Call(_ context.Context, verb string, payload []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if len(s.errs) > 0 {
		err := s.errs[0]
		s.errs = s.errs[1:]
		if err != nil {
			return nil, err
		}
	}
	return payload, nil
}

func (s *scriptConn) Ping(context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pings++
	if len(s.pingErrs) > 0 {
		err := s.pingErrs[0]
		s.pingErrs = s.pingErrs[1:]
		return err
	}
	return nil
}

func (s *scriptConn) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func (s *scriptConn) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

var errWire = errors.New("wire fell over")

// fastPolicy keeps retry/backoff/cooldown delays test-sized.
func fastPolicy() ResilientPolicy {
	return ResilientPolicy{
		MaxAttempts:      3,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       4 * time.Millisecond,
		FailureThreshold: 3,
		Cooldown:         20 * time.Millisecond,
		Idempotent:       func(string) bool { return true },
	}
}

func TestResilientRetriesIdempotentVerbs(t *testing.T) {
	sc := &scriptConn{errs: []error{errWire, errWire, nil}}
	rc := NewResilientConn(sc, nil, fastPolicy())
	out, err := rc.Call(context.Background(), "echo", []byte("hi"))
	if err != nil {
		t.Fatalf("call with retries: %v", err)
	}
	if string(out) != "hi" {
		t.Errorf("payload = %q", out)
	}
	if n := sc.callCount(); n != 3 {
		t.Errorf("attempts = %d, want 3", n)
	}
	if st := rc.Status().State; st != BreakerClosed {
		t.Errorf("state after recovery = %v", st)
	}
}

func TestResilientDoesNotRetryNonIdempotentVerbs(t *testing.T) {
	sc := &scriptConn{errs: []error{errWire, nil}}
	p := fastPolicy()
	p.Idempotent = func(verb string) bool { return verb == "safe" }
	rc := NewResilientConn(sc, nil, p)
	if _, err := rc.Call(context.Background(), "mutate", nil); !errors.Is(err, errWire) {
		t.Fatalf("non-idempotent verb error = %v, want %v", err, errWire)
	}
	if n := sc.callCount(); n != 1 {
		t.Errorf("attempts = %d, want exactly 1 (no retry)", n)
	}
}

func TestResilientRemoteErrorIsNotATransportFailure(t *testing.T) {
	remote := &RemoteError{Verb: "v", Msg: "handler exploded"}
	sc := &scriptConn{errs: []error{remote, remote, remote, remote, remote}}
	rc := NewResilientConn(sc, nil, fastPolicy())
	for i := 0; i < 5; i++ {
		_, err := rc.Call(context.Background(), "v", nil)
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("call %d: %v, want RemoteError passed through", i, err)
		}
	}
	// The peer answered every time: breaker stays closed, no retries.
	if n := sc.callCount(); n != 5 {
		t.Errorf("attempts = %d, want 5", n)
	}
	if st := rc.Status().State; st != BreakerClosed {
		t.Errorf("state = %v, want closed", st)
	}
}

func TestResilientBreakerOpensAndFailsFast(t *testing.T) {
	sc := &scriptConn{errs: []error{errWire, errWire, errWire, errWire, errWire, errWire}}
	p := fastPolicy()
	p.Idempotent = nil // isolate breaker behavior from retries
	p.Cooldown = time.Hour
	rc := NewResilientConn(sc, nil, p)

	for i := 0; i < 3; i++ {
		if st := rc.Status().State; st != BreakerClosed {
			t.Fatalf("state after %d failures = %v, want closed", i, st)
		}
		if _, err := rc.Call(context.Background(), "v", nil); !errors.Is(err, errWire) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if st := rc.Status().State; st != BreakerOpen {
		t.Fatalf("state after %d failures = %v, want open", 3, st)
	}
	attempts := sc.callCount()
	// Open breaker: fail fast, never touching the wire.
	for i := 0; i < 4; i++ {
		if _, err := rc.Call(context.Background(), "v", nil); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("open-circuit call: %v, want ErrCircuitOpen", err)
		}
	}
	if n := sc.callCount(); n != attempts {
		t.Errorf("open circuit still reached the wire: %d → %d attempts", attempts, n)
	}
	if st := rc.Status().State; st != BreakerOpen {
		t.Errorf("state after failing fast = %v, want open", st)
	}
	st := rc.Status()
	if st.ConsecutiveFailures != 3 || !errors.Is(st.LastError, errWire) {
		t.Errorf("status = %+v", st)
	}
}

func TestResilientHalfOpenProbeRecovery(t *testing.T) {
	// Wire dies for 3 calls (opening the breaker), first probe also fails,
	// second probe succeeds.
	sc := &scriptConn{
		errs:     []error{errWire, errWire, errWire},
		pingErrs: []error{errWire, nil},
	}
	p := fastPolicy()
	p.Idempotent = nil
	rc := NewResilientConn(sc, nil, p)

	for i := 0; i < 3; i++ {
		rc.Call(context.Background(), "v", nil)
	}
	if st := rc.Status().State; st != BreakerOpen {
		t.Fatalf("state = %v, want open", st)
	}

	// Cooldown elapses; the next call claims the half-open probe, whose
	// Ping fails → breaker re-opens.
	time.Sleep(p.Cooldown + 5*time.Millisecond)
	if _, err := rc.Call(context.Background(), "v", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("failed-probe call: %v", err)
	}
	if st := rc.Status().State; st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}

	// Second cooldown: probe succeeds, breaker closes, call goes through.
	time.Sleep(p.Cooldown + 5*time.Millisecond)
	out, err := rc.Call(context.Background(), "v", []byte("back"))
	if err != nil {
		t.Fatalf("recovered call: %v", err)
	}
	if string(out) != "back" {
		t.Errorf("payload = %q", out)
	}
	if st := rc.Status().State; st != BreakerClosed {
		t.Errorf("state after recovery = %v, want closed", st)
	}
}

func TestResilientPingDrivesRecovery(t *testing.T) {
	// A background prober calling Ping (not Call) must walk the breaker
	// through open → half-open → closed once the peer heals.
	sc := &scriptConn{errs: []error{errWire, errWire, errWire}}
	p := fastPolicy()
	p.Idempotent = nil
	rc := NewResilientConn(sc, nil, p)
	for i := 0; i < 3; i++ {
		rc.Call(context.Background(), "v", nil)
	}
	if st := rc.Status().State; st != BreakerOpen {
		t.Fatalf("state = %v", st)
	}
	if err := rc.Ping(context.Background()); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("ping before cooldown: %v, want ErrCircuitOpen", err)
	}
	time.Sleep(p.Cooldown + 5*time.Millisecond)
	if err := rc.Ping(context.Background()); err != nil {
		t.Fatalf("probing ping after cooldown: %v", err)
	}
	if st := rc.Status().State; st != BreakerClosed {
		t.Errorf("state after probing ping = %v, want closed", st)
	}
}

func TestResilientRedialsOnErrClosed(t *testing.T) {
	dead := &scriptConn{errs: []error{ErrClosed, ErrClosed, ErrClosed}}
	fresh := &scriptConn{}
	var dials atomic.Int32
	redial := func() (Conn, error) {
		dials.Add(1)
		return fresh, nil
	}
	rc := NewResilientConn(dead, redial, fastPolicy())
	out, err := rc.Call(context.Background(), "echo", []byte("x"))
	if err != nil {
		t.Fatalf("call across redial: %v", err)
	}
	if string(out) != "x" {
		t.Errorf("payload = %q", out)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("dials = %d, want 1", n)
	}
	if !dead.closed {
		t.Error("dead connection was not closed after ErrClosed")
	}
	if fresh.callCount() != 1 {
		t.Errorf("fresh conn calls = %d, want 1", fresh.callCount())
	}
}

func TestResilientLazyDial(t *testing.T) {
	// nil inner + redial: the first operation dials.
	backend := &scriptConn{}
	rc := NewResilientConn(nil, func() (Conn, error) { return backend, nil }, fastPolicy())
	if _, err := rc.Call(context.Background(), "v", nil); err != nil {
		t.Fatalf("lazy-dial call: %v", err)
	}
	if backend.callCount() != 1 {
		t.Errorf("backend calls = %d", backend.callCount())
	}
}

func TestResilientCanceledContextNotCountedAgainstPeer(t *testing.T) {
	sc := &scriptConn{errs: []error{context.Canceled, context.Canceled, context.Canceled}}
	p := fastPolicy()
	p.FailureThreshold = 2
	rc := NewResilientConn(sc, nil, p)
	for i := 0; i < 3; i++ {
		if _, err := rc.Call(context.Background(), "v", nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if st := rc.Status().State; st != BreakerClosed {
		t.Errorf("state = %v: caller cancellation must not open the breaker", st)
	}
}

func TestResilientSetInnerReturnsOldConn(t *testing.T) {
	orig := &scriptConn{}
	rc := NewResilientConn(orig, nil, fastPolicy())
	fault := &FaultConn{Inner: orig, FailEvery: 1}
	if old := rc.SetInner(fault); old != Conn(orig) {
		t.Fatalf("SetInner returned %v, want the original conn", old)
	}
	if orig.closed {
		t.Error("SetInner closed the previous conn; caller owns it")
	}
	if _, err := rc.Call(context.Background(), "v", nil); !errors.Is(err, ErrInjected) {
		t.Errorf("call through injected conn: %v", err)
	}
}

func TestResilientEndToEndWithFaultConn(t *testing.T) {
	// Integration: real inproc wire wrapped in a FaultConn wrapped in a
	// ResilientConn — cut, observe fail-fast, heal, observe recovery.
	net := NewInProcNet()
	if _, err := net.Listen("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	wire, err := net.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	fc := &FaultConn{Inner: wire}
	p := fastPolicy()
	p.Idempotent = nil
	p.FailureThreshold = 2
	rc := NewResilientConn(fc, nil, p)

	if _, err := rc.Call(context.Background(), "echo", []byte("ok")); err != nil {
		t.Fatalf("healthy call: %v", err)
	}

	fc.Cut()
	for i := 0; i < 2; i++ {
		if _, err := rc.Call(context.Background(), "echo", nil); !errors.Is(err, ErrInjected) {
			t.Fatalf("cut call %d: %v", i, err)
		}
	}
	if _, err := rc.Call(context.Background(), "echo", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("post-threshold call: %v", err)
	}
	wireCalls := fc.Calls()

	// While open-circuit, the wire sees no traffic at all.
	rc.Call(context.Background(), "echo", nil)
	if fc.Calls() != wireCalls {
		t.Error("open circuit leaked calls onto the wire")
	}

	fc.Heal()
	time.Sleep(p.Cooldown + 5*time.Millisecond)
	out, err := rc.Call(context.Background(), "echo", []byte("back"))
	if err != nil {
		t.Fatalf("healed call: %v", err)
	}
	if string(out) != "echo:back" {
		t.Errorf("healed payload = %q", out)
	}
	if fc.Pings() == 0 {
		t.Error("recovery did not go through a half-open Ping probe")
	}
}
