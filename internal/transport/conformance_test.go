package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// The conformance suite pins the contract every carrier must honor —
// out-of-order completion, interleaved large (streamed) calls, cancel
// mid-stream, and batch correlation under coalescing — and runs it against
// both the TCP and the in-process backends, so a future carrier inherits
// the same bar.

// backends builds one connection per carrier, all serving h.
func backends(t *testing.T, h Handler) map[string]Conn {
	t.Helper()
	out := make(map[string]Conn)

	srv, err := ListenTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	tc, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tc.Close() })
	out["tcp"] = tc

	inet := NewInProcNet()
	lis, err := inet.Listen("conf", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	ic, err := inet.Dial("conf")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ic.Close() })
	out["inproc"] = ic

	return out
}

// streamPayload builds a patterned payload big enough to stream (each byte
// derived from its offset, so truncation or reordering is detectable).
func streamPayload(seed byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed ^ byte(i) ^ byte(i>>8)
	}
	return p
}

// TestConformanceOutOfOrder pins that a later request can complete while
// an earlier one is still executing: the demux correlates by request id,
// not arrival order.
func TestConformanceOutOfOrder(t *testing.T) {
	releases := map[string]chan struct{}{
		"tcp":    make(chan struct{}),
		"inproc": make(chan struct{}),
	}
	h := func(ctx context.Context, verb string, payload []byte) ([]byte, error) {
		if verb == "block" {
			select {
			case <-releases[string(payload)]:
				return []byte("unblocked"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return payload, nil
	}
	for name, conn := range backends(t, h) {
		t.Run(name, func(t *testing.T) {
			release := releases[name]
			blocked := make(chan error, 1)
			go func() {
				out, err := conn.Call(context.Background(), "block", []byte(name))
				if err == nil && string(out) != "unblocked" {
					err = fmt.Errorf("blocked call returned %q", out)
				}
				blocked <- err
			}()
			// The fast call must complete while the first is still held.
			deadline := time.Now().Add(5 * time.Second)
			done := false
			for !done && time.Now().Before(deadline) {
				out, err := conn.Call(context.Background(), "fast", []byte("x"))
				if err != nil {
					t.Fatalf("fast call: %v", err)
				}
				if string(out) != "x" {
					t.Fatalf("fast call = %q", out)
				}
				done = true
			}
			select {
			case err := <-blocked:
				t.Fatalf("blocked call completed before release: %v", err)
			default:
			}
			close(release)
			if err := <-blocked; err != nil {
				t.Fatalf("blocked call: %v", err)
			}
		})
	}
}

// TestConformanceInterleavedStreams runs several concurrent calls whose
// requests and responses are both large enough to stream in chunks; every
// payload must come back intact even though the chunk runs interleave on
// one connection.
func TestConformanceInterleavedStreams(t *testing.T) {
	h := func(ctx context.Context, verb string, payload []byte) ([]byte, error) {
		return payload, nil // echo: request stream in, response stream out
	}
	for name, conn := range backends(t, h) {
		t.Run(name, func(t *testing.T) {
			const streams = 4
			var wg sync.WaitGroup
			errs := make([]error, streams)
			for i := 0; i < streams; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					want := streamPayload(byte(i), StreamThreshold*2+i*1000)
					got, err := conn.Call(context.Background(), "echo", want)
					if err != nil {
						errs[i] = err
						return
					}
					if !bytes.Equal(got, want) {
						errs[i] = fmt.Errorf("stream %d corrupted: %d bytes back, want %d",
							i, len(got), len(want))
					}
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("stream %d: %v", i, err)
				}
			}
		})
	}
}

// TestConformanceCancelMidStream pins stream teardown: a caller that gives
// up on a large in-flight call gets its context error, the handler sees
// the cancellation, and the connection keeps working for later calls.
func TestConformanceCancelMidStream(t *testing.T) {
	sawCancel := make(chan struct{}, 16)
	h := func(ctx context.Context, verb string, payload []byte) ([]byte, error) {
		if verb == "hold" {
			<-ctx.Done()
			sawCancel <- struct{}{}
			return nil, ctx.Err()
		}
		return payload, nil
	}
	for name, conn := range backends(t, h) {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			_, err := conn.Call(ctx, "hold", streamPayload(7, StreamThreshold*2))
			// The caller may see its own deadline, or (on carriers that
			// deliver the handler's reply first) the handler's ctx error as
			// a RemoteError — either way the call must fail, not hang.
			var re *RemoteError
			if !errors.Is(err, context.DeadlineExceeded) && !errors.As(err, &re) {
				t.Fatalf("cancelled call: err = %v, want deadline exceeded or remote cancellation", err)
			}
			select {
			case <-sawCancel:
			case <-time.After(5 * time.Second):
				t.Fatal("handler never observed the cancellation")
			}
			// The connection must remain usable: only the stream died.
			out, err := conn.Call(context.Background(), "echo", []byte("after"))
			if err != nil {
				t.Fatalf("call after cancel: %v", err)
			}
			if string(out) != "after" {
				t.Fatalf("call after cancel = %q", out)
			}
		})
	}
}

// TestConformanceBatchCorrelation pins DoMulti's contract under write
// coalescing: results arrive in request order with per-entry outcomes,
// even though the batch leaves in one flush and completes out of order.
func TestConformanceBatchCorrelation(t *testing.T) {
	h := func(ctx context.Context, verb string, payload []byte) ([]byte, error) {
		if verb == "fail" {
			return nil, fmt.Errorf("no: %s", payload)
		}
		return append([]byte(verb+"="), payload...), nil
	}
	for name, conn := range backends(t, h) {
		t.Run(name, func(t *testing.T) {
			const n = 32
			reqs := make([]MultiRequest, n)
			for i := range reqs {
				verb := "ok"
				if i%5 == 0 {
					verb = "fail"
				}
				reqs[i] = MultiRequest{Verb: verb, Payload: []byte(fmt.Sprintf("req-%02d", i))}
			}
			results := DoMulti(context.Background(), conn, reqs)
			if len(results) != n {
				t.Fatalf("got %d results, want %d", len(results), n)
			}
			for i, res := range results {
				if i%5 == 0 {
					var re *RemoteError
					if !errors.As(res.Err, &re) {
						t.Errorf("result %d: err = %v, want RemoteError", i, res.Err)
					}
					continue
				}
				if res.Err != nil {
					t.Errorf("result %d: %v", i, res.Err)
					continue
				}
				want := fmt.Sprintf("ok=req-%02d", i)
				if string(res.Payload) != want {
					t.Errorf("result %d = %q, want %q (misrouted under coalescing?)",
						i, res.Payload, want)
				}
			}
		})
	}
}

// TestConformanceMultiMixedSizes pins that a batch mixing small pipelined
// requests with stream-sized ones still correlates every result.
func TestConformanceMultiMixedSizes(t *testing.T) {
	h := func(ctx context.Context, verb string, payload []byte) ([]byte, error) {
		return payload, nil
	}
	for name, conn := range backends(t, h) {
		t.Run(name, func(t *testing.T) {
			reqs := []MultiRequest{
				{Verb: "echo", Payload: []byte("small-0")},
				{Verb: "echo", Payload: streamPayload(1, StreamThreshold+5)},
				{Verb: "echo", Payload: []byte("small-2")},
				{Verb: "echo", Payload: streamPayload(3, StreamThreshold*2)},
			}
			results := DoMulti(context.Background(), conn, reqs)
			for i, res := range results {
				if res.Err != nil {
					t.Errorf("result %d: %v", i, res.Err)
					continue
				}
				if !bytes.Equal(res.Payload, reqs[i].Payload) {
					t.Errorf("result %d: %d bytes back, want %d",
						i, len(res.Payload), len(reqs[i].Payload))
				}
			}
		})
	}
}

// TestConformanceHandlerOwnsPayload pins buffer ownership: the payload a
// handler is handed — a frame's or a stream's assembly — is its own, so a
// handler that keeps it (a site decodes byte strings in place) must find
// it intact however many calls of whatever size follow on the connection.
func TestConformanceHandlerOwnsPayload(t *testing.T) {
	kept := make(map[string][][]byte)
	var mu sync.Mutex
	h := func(ctx context.Context, verb string, payload []byte) ([]byte, error) {
		mu.Lock()
		kept[verb] = append(kept[verb], payload)
		mu.Unlock()
		return payload[:1], nil
	}
	sizes := []int{1, 300, StreamChunk, StreamThreshold + 1, StreamThreshold*2 + 999}
	for name, conn := range backends(t, h) {
		t.Run(name, func(t *testing.T) {
			const calls = 100 + 5 // every size sees 100 further calls
			for i := 0; i < calls; i++ {
				if _, err := conn.Call(context.Background(), name, streamPayload(byte(i), sizes[i%len(sizes)])); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if len(kept[name]) != calls {
				t.Fatalf("handler kept %d payloads, want %d", len(kept[name]), calls)
			}
			for i, got := range kept[name] {
				if !bytes.Equal(got, streamPayload(byte(i), sizes[i%len(sizes)])) {
					t.Errorf("payload of call %d (%d bytes) was overwritten by a later call", i, len(got))
				}
			}
		})
	}
}

// ---- TCP-specific regression tests ----

// brokenConn is a scripted net.Conn whose Read hands serveConn one request
// and whose Write always fails; Close is observable. It pins the
// response-write-error path deterministically.
type brokenConn struct {
	readOnce sync.Once
	frames   []byte // pre-encoded inbound frames
	closed   chan struct{}
	closeOne sync.Once
}

func (b *brokenConn) Read(p []byte) (int, error) {
	var served bool
	b.readOnce.Do(func() {
		served = true
	})
	if served {
		n := copy(p, b.frames)
		return n, nil
	}
	<-b.closed // block like an idle socket until closed
	return 0, errors.New("use of closed connection")
}

func (b *brokenConn) Write(p []byte) (int, error) {
	return 0, errors.New("connection reset by peer")
}

func (b *brokenConn) Close() error {
	b.closeOne.Do(func() { close(b.closed) })
	return nil
}

func (b *brokenConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (b *brokenConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (b *brokenConn) SetDeadline(t time.Time) error      { return nil }
func (b *brokenConn) SetReadDeadline(t time.Time) error  { return nil }
func (b *brokenConn) SetWriteDeadline(t time.Time) error { return nil }

// TestServerClosesConnOnWriteError is the regression test for the silent
// response-write failure: when a response cannot be written, the server
// must close the connection (so the peer's teardown fires at once) instead
// of dropping the response and leaving the client to hang out its timeout.
func TestServerClosesConnOnWriteError(t *testing.T) {
	frames, err := encodeFrames(t)
	if err != nil {
		t.Fatal(err)
	}
	bc := &brokenConn{frames: frames, closed: make(chan struct{})}
	srv := &tcpServer{handler: func(ctx context.Context, verb string, payload []byte) ([]byte, error) {
		return []byte("reply"), nil
	}}
	srv.wg.Add(1)
	done := make(chan struct{})
	go func() {
		srv.serveConn(bc)
		close(done)
	}()
	select {
	case <-bc.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("server never closed the conn after a response-write error")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveConn did not return after closing the conn")
	}
}

func encodeFrames(t *testing.T) ([]byte, error) {
	t.Helper()
	return wire.AppendFrame(nil, wire.Frame{Type: wire.FrameRequest, RequestID: 1,
		Verb: "echo", Payload: []byte("hi")})
}

// TestClientCancelReleasesStreamState is the regression test for the
// ctx-cancel leak: after a caller abandons a streamed call, no pending
// entry (and hence no chunk assembly buffer) may survive on the client —
// including when the server's late response stream arrives afterwards.
func TestClientCancelReleasesStreamState(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, verb string, payload []byte) ([]byte, error) {
		if verb == "hold" {
			select {
			case <-release:
				// Answer anyway with a stream-sized payload: the client
				// abandoned the call, so these chunks must be refused and
				// cancelled, not buffered against a dead id.
				return streamPayload(9, StreamThreshold*2), nil
			case <-ctx.Done():
				once.Do(func() { close(release) })
				return nil, ctx.Err()
			}
		}
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tc := conn.(*tcpConn)

	// A streamed request whose caller gives up mid-call.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := conn.Call(ctx, "hold", streamPayload(5, StreamThreshold*3)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	once.Do(func() { close(release) })

	// The abandoned id must leave no pending state behind, now or after
	// any late frames drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		tc.mu.Lock()
		n := len(tc.pending)
		tc.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pending entries leaked after cancel", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Poke the connection and re-check: late chunks for the dead id must
	// not have re-materialized state.
	if _, err := conn.Call(context.Background(), "echo", []byte("alive")); err != nil {
		t.Fatalf("call after cancel: %v", err)
	}
	tc.mu.Lock()
	n := len(tc.pending)
	tc.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d pending entries re-appeared after late stream", n)
	}
}

// TestMidStreamDropFailsClean pins the partial-failure contract for
// streams: killing the server mid-call must surface a transport error to
// the caller — never a truncated payload presented as success.
func TestMidStreamDropFailsClean(t *testing.T) {
	started := make(chan struct{}, 1)
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, verb string, payload []byte) ([]byte, error) {
		started <- struct{}{}
		<-ctx.Done() // hold the call until the teardown cancels it
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	result := make(chan error, 1)
	go func() {
		out, err := conn.Call(context.Background(), "drop", streamPayload(2, StreamThreshold*4))
		if err == nil {
			err = fmt.Errorf("call survived server death with %d bytes", len(out))
		}
		result <- err
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the server")
	}
	srv.Close() // hard drop mid-call
	select {
	case err := <-result:
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("caller saw a context error, want a transport error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("caller hung after mid-stream drop")
	}
}

// killConn is a socket that dies mid-stream while deaths are left: the
// write that takes it past budget bytes closes it and fails, as a reset
// peer does.
type killConn struct {
	net.Conn
	budget  int
	written int           // touched only by the connection's writer goroutine
	deaths  *atomic.Int64 // below zero once every death is spent
}

func (k *killConn) Write(p []byte) (int, error) {
	if k.written += len(p); k.written > k.budget && k.deaths.Add(-1) >= 0 {
		k.Conn.Close()
		return 0, errors.New("connection reset by peer")
	}
	return k.Conn.Write(p)
}

// TestConformanceCallerOwnsPayloadAfterReturn pins the Conn contract a
// caller's buffer reuse rests on: once Call returns nil, the carrier never
// reads payload again. Four callers each encode every call into one buffer
// and overwrite it the moment Call returns; every payload the handler was
// handed must still be the one sent. It runs over tcp, inproc, and a
// ResilientConn over tcp whose first connections die mid-stream, so calls
// fail with ErrClosed and succeed on a redialed one. Under -race it also
// pins that no carrier reads the buffer after Call has returned nil.
func TestConformanceCallerOwnsPayloadAfterReturn(t *testing.T) {
	var mu sync.Mutex
	got := make(map[string][][]byte) // by verb: every payload handed over
	h := func(ctx context.Context, verb string, payload []byte) ([]byte, error) {
		mu.Lock()
		got[verb] = append(got[verb], payload)
		mu.Unlock()
		return []byte{1}, nil
	}
	conns := backends(t, h)
	srv, err := ListenTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	const killed = 3
	var deaths atomic.Int64
	deaths.Store(killed)
	dial := func() (Conn, error) {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			return nil, err
		}
		return newTCPConn(&killConn{Conn: nc, budget: 3 * StreamThreshold, deaths: &deaths}), nil
	}
	res := NewResilientConn(nil, dial, ResilientPolicy{
		MaxAttempts: 10, BaseBackoff: time.Millisecond, FailureThreshold: 1000,
		Idempotent: func(string) bool { return true },
	})
	t.Cleanup(func() { res.Close() })
	conns["resilient-killed"] = res

	sizes := []int{64, StreamChunk, StreamThreshold + 1, 2 * StreamThreshold}
	const callers, calls = 4, 4 * 4
	seed := func(g, i int) byte { return byte(g*calls + i) }
	for name, conn := range conns {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					buf := make([]byte, 0, 2*StreamThreshold)
					for i := 0; i < calls; i++ {
						p := append(buf[:0], streamPayload(seed(g, i), sizes[i%len(sizes)])...)
						if _, err := conn.Call(context.Background(), fmt.Sprintf("%s/%d/%d", name, g, i), p); err != nil {
							t.Errorf("caller %d, call %d: %v", g, i, err)
							return
						}
						for j := range p {
							p[j] = 0xEE
						}
					}
				}(g)
			}
			wg.Wait()
			mu.Lock()
			defer mu.Unlock()
			for g := 0; g < callers; g++ {
				for i := 0; i < calls; i++ {
					want := streamPayload(seed(g, i), sizes[i%len(sizes)])
					seen := got[fmt.Sprintf("%s/%d/%d", name, g, i)]
					if len(seen) == 0 {
						t.Errorf("caller %d, call %d never reached the handler", g, i)
					}
					for _, p := range seen {
						if !bytes.Equal(p, want) {
							t.Errorf("caller %d, call %d (%d bytes): the handler holds bytes the caller wrote after Call returned", g, i, len(want))
						}
					}
				}
			}
		})
	}
	if n := deaths.Load(); n >= 0 {
		t.Errorf("%d connections died mid-stream, want %d", killed-n, killed)
	}
}

// stallConn holds the first write larger than a connection's opening
// Begin until the test releases it, and a Close does not release it: it
// stands for a writer still busy with a frame when its connection dies.
type stallConn struct {
	net.Conn
	once             sync.Once
	entered, release chan struct{}
}

func (s *stallConn) Write(p []byte) (int, error) {
	if len(p) > 64 {
		s.once.Do(func() {
			close(s.entered)
			<-s.release
		})
	}
	return s.Conn.Write(p)
}

// TestTeardownWaitsForWriter pins the ordering a ResilientConn's resend
// rests on: a call failed by a dying connection returns ErrClosed only
// after the connection's writer has exited, so no frame of its payload is
// read once the caller may reuse it. The writer is held in a Write, the
// server drops the connection, and the call must not return until the
// writer is let go — for a one-frame request (teardown waits) and for a
// streamed one (the failed sender waits as well).
func TestTeardownWaitsForWriter(t *testing.T) {
	for name, size := range map[string]int{"frame": 4 << 10, "stream": 2 * StreamThreshold} {
		t.Run(name, func(t *testing.T) {
			addr, accepted := rawServer(t)
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			sc := &stallConn{Conn: nc, entered: make(chan struct{}), release: make(chan struct{})}
			c := newTCPConn(sc)
			defer c.Close()
			peer := <-accepted
			go io.Copy(io.Discard, peer)

			result := make(chan error, 1)
			go func() {
				_, err := c.Call(context.Background(), "put", streamPayload(1, size))
				result <- err
			}()
			<-sc.entered
			peer.Close()
			select {
			case err := <-result:
				close(sc.release)
				t.Fatalf("Call returned (%v) while the writer still held a frame of its payload", err)
			case <-time.After(100 * time.Millisecond):
			}
			close(sc.release)
			select {
			case err := <-result:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("err = %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Call hung after the writer was released")
			}
		})
	}
}

// TestTeardownCutStreamFailsClosed: a teardown closes the frame queue and
// then aborts the windows of the calls it fails, so a sender waiting for
// credit finds both ready. It must fail with ErrClosed, the error a
// ResilientConn resends on, never with the abort's context.Canceled.
//
// Caught, 5 of 5 runs: "the abort alone answered" (a select picks either,
// so 64 tries all reading ErrClosed by chance is 2⁻⁶⁴).
func TestTeardownCutStreamFailsClosed(t *testing.T) {
	for i := 0; i < 64; i++ {
		q := newFrameQueue(io.Discard, nil)
		q.close()
		q.wait()
		win := newStreamWindow()
		win.credit.Store(0)
		win.cancel()
		err := sendChunks(context.Background(), q, 1, win, "put", "", make([]byte, StreamChunk))
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("try %d: a sender cut by teardown got %v, want ErrClosed", i, err)
		}
	}
}
