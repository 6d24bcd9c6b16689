package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// ListenTCP binds a framed-message server on addr (e.g. "127.0.0.1:0")
// and dispatches every request to h. Close the returned listener to stop.
func ListenTCP(addr string, h Handler) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	srv := &tcpServer{nl: nl, handler: h}
	srv.wg.Add(1)
	go srv.acceptLoop()
	return srv, nil
}

type tcpServer struct {
	nl      net.Listener
	handler Handler
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  atomic.Bool
}

func (s *tcpServer) Addr() string { return s.nl.Addr().String() }

func (s *tcpServer) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := s.nl.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *tcpServer) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *tcpServer) untrack(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

func (s *tcpServer) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.nl.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(c) {
			c.Close()
			return
		}
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// assembly accumulates one inbound stream in place: the read loop asks it
// for room (tail) and the frame reader fills that room straight from the
// socket, so a chunk is never held in a buffer of its own. A stream that
// overruns MaxStreamPayload — by announcement or by chunks — is poisoned:
// its buffer is dropped and every later chunk is refused.
type assembly struct {
	buf       []byte
	announced int // the sender's FrameStreamBegin total; 0 when none came
	poisoned  bool
}

func (a *assembly) poison() {
	a.buf, a.poisoned = nil, true
}

// begin records the total a FrameStreamBegin announced. The announcement
// alone allocates nothing — tail sizes the buffer once bytes arrive — and it
// is advisory: absent, late, short or long, tail still assembles whatever
// really comes. Only a total over MaxStreamPayload has an effect of its
// own: the stream is poisoned before any chunk is accepted.
func (a *assembly) begin(total uint64) {
	switch {
	case a.poisoned || a.buf != nil:
	case total > MaxStreamPayload:
		a.poison()
	default:
		a.announced = int(total)
	}
}

// tail extends the assembly by n bytes and returns them for the next chunk
// to be read into; nil when the stream is (now) poisoned. Out of room, the
// buffer doubles — or goes straight to the announced total as far as that
// is trusted: the buffer is never more than 16 times the bytes received,
// nor more than 4×StreamWindow ahead of them. A sender's first chunk is
// StreamChunk bytes, so an honest stream of up to 1 MiB is allocated once,
// while a peer that announces and sends nothing, or next to nothing, pins
// nothing to speak of.
func (a *assembly) tail(n int) []byte {
	off, need := len(a.buf), len(a.buf)+n
	if a.poisoned || need > MaxStreamPayload {
		a.poison()
		return nil
	}
	if need > cap(a.buf) {
		trusted := min(a.announced, 16*need, need+4*StreamWindow)
		grown := make([]byte, off, min(max(2*cap(a.buf), need, trusted), MaxStreamPayload))
		copy(grown, a.buf)
		a.buf = grown
	}
	a.buf = a.buf[:need]
	return a.buf[off:]
}

// payload returns the assembled bytes. Whoever decodes them may keep
// aliases into the buffer, so an assembly whose announcement overstated
// the stream is cut to size first: no payload pins more than twice its
// length.
func (a *assembly) payload() []byte {
	if cap(a.buf) > 2*len(a.buf) {
		return append([]byte(nil), a.buf...)
	}
	return a.buf
}

// reqCtx is a request handler's context, and its one object: no parent,
// no deadline, the frame's chain as its value, and a Done channel made
// only for a handler that asks, or by the cancel.
type reqCtx struct {
	context.Context // Background, for Deadline
	chain           string
	mu              sync.Mutex
	done            chan struct{}
	err             error
}

func (c *reqCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
	}
	return c.done
}

func (c *reqCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *reqCtx) Value(key any) any {
	if key == any(chainKey{}) && c.chain != "" {
		return c.chain
	}
	return nil
}

func (c *reqCtx) cancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = context.Canceled
		if c.done == nil {
			c.done = make(chan struct{})
		}
		close(c.done)
	}
}

// serverConnState is the per-connection demux state of a server: partial
// request-stream assemblies, the context of every in-flight handler (so a
// peer's FrameCancel aborts the work, not just the reply), and the credit
// window of every outbound response stream.
type serverConnState struct {
	mu      sync.Mutex
	asm     map[uint64]*assembly
	reqs    map[uint64]*reqCtx
	streams map[uint64]*streamWindow
}

func newServerConnState() *serverConnState {
	return &serverConnState{
		asm:     make(map[uint64]*assembly),
		reqs:    make(map[uint64]*reqCtx),
		streams: make(map[uint64]*streamWindow),
	}
}

// assembly returns the assembly of request id, opening one if there is
// none; nil when the connection already holds maxStreams. st.mu held.
func (st *serverConnState) assembly(id uint64) *assembly {
	a := st.asm[id]
	if a == nil && len(st.asm) < maxStreams {
		a = &assembly{}
		st.asm[id] = a
	}
	return a
}

// beginStream handles a FrameStreamBegin: refused means the announced
// stream is refused and the sender should be cancelled, over that it would
// open more than maxStreams. A Begin that announces no total opens nothing.
func (st *serverConnState) beginStream(id uint64, announce []byte) (refused, over bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	total, ok := beginTotal(announce)
	if !ok {
		return false, false
	}
	a := st.assembly(id)
	if a == nil {
		return false, true
	}
	a.begin(total)
	return a.poisoned, false
}

// chunkRoom returns the tail of the request's assembly for an n-byte chunk
// to be read into, nil when the assembly is poisoned (over limit) or could
// not be opened.
func (st *serverConnState) chunkRoom(id uint64, n int) []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	if a := st.assembly(id); a != nil {
		return a.tail(n)
	}
	return nil
}

// refused reports whether the request's stream is poisoned, so that its
// sender should be cancelled rather than granted credit; over, that the
// chunk found no assembly because the connection held maxStreams.
func (st *serverConnState) refused(id uint64) (refused, over bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	a := st.asm[id]
	return a != nil && a.poisoned, a == nil
}

// finish removes and returns the assembled payload; ok is false when the
// stream was poisoned. A stream-end with no prior chunks is a legal empty
// payload.
func (st *serverConnState) finish(id uint64) ([]byte, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	a := st.asm[id]
	delete(st.asm, id)
	if a == nil {
		return nil, true
	}
	return a.payload(), !a.poisoned
}

func (st *serverConnState) addReq(id uint64, rc *reqCtx) {
	st.mu.Lock()
	st.reqs[id] = rc
	st.mu.Unlock()
}

// dropReq forgets a request whose handler, and response stream, are done.
func (st *serverConnState) dropReq(id uint64) {
	st.mu.Lock()
	delete(st.reqs, id)
	delete(st.streams, id)
	st.mu.Unlock()
}

// cancelAll cancels every in-flight handler: the connection is going away.
func (st *serverConnState) cancelAll() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, rc := range st.reqs {
		rc.cancel()
	}
}

func (st *serverConnState) addStream(id uint64, win *streamWindow) {
	st.mu.Lock()
	st.streams[id] = win
	st.mu.Unlock()
}

// grant routes peer credit to the response stream it refills.
func (st *serverConnState) grant(id uint64, n int64) {
	st.mu.Lock()
	win := st.streams[id]
	st.mu.Unlock()
	if win != nil && n > 0 {
		win.grant(n)
	}
}

// cancelRequest handles a peer's FrameCancel: the partial request assembly
// is released, the in-flight handler's context is cancelled, and an
// outbound response stream stops sending.
func (st *serverConnState) cancelRequest(id uint64) {
	st.mu.Lock()
	delete(st.asm, id)
	rc := st.reqs[id]
	win := st.streams[id]
	st.mu.Unlock()
	if rc != nil {
		rc.cancel()
	}
	if win != nil {
		win.cancel()
	}
}

// parkedWorkers caps the handler goroutines a connection keeps parked
// between requests. A worker's stack has grown to what its handlers need
// (an interpreted body's eval frames take several KiB), so a request handed
// to a parked worker starts on a warm stack, where a fresh goroutine would
// grow and copy its stack again. A burst starts as many workers as it has
// concurrent requests; once it drains, all but this many exit. A
// connection whose peer has n calls in flight keeps n workers warm;
// sixteen is well above what one peer's callers keep in flight in steady
// state, while an idle connection pins at most sixteen stacks.
const parkedWorkers = 16

// request is what a connection's read loop hands a handler worker: the
// request frame and the context registered for it.
type request struct {
	f   wire.Frame
	ctx *reqCtx
}

func (s *tcpServer) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer s.untrack(c)
	defer c.Close()

	// Teardown order (LIFO): cancel handler contexts and fail the writer
	// first, so handlers blocked on stream credit return; then close the
	// park, so each worker exits once its handler has, and wait for them.
	var workers sync.WaitGroup
	defer workers.Wait()
	park := make(chan request)
	defer close(park)
	out := newFrameQueue(c, func(error) {
		// A response that cannot be written strands every call pending on
		// this connection: close the socket so the peer's teardown fires at
		// once instead of the client waiting out its timeout.
		c.Close()
	})
	defer out.close()
	st := newServerConnState()
	defer st.cancelAll()

	// A worker serves the request it was started with, then parks for the
	// next, unless parkedWorkers others already wait.
	var parked atomic.Int32
	work := func(r request) {
		defer workers.Done()
		for ok := true; ok; {
			s.serveRequest(st, out, r)
			if parked.Add(1) > parkedWorkers {
				parked.Add(-1)
				return
			}
			r, ok = <-park
			parked.Add(-1)
		}
	}
	// The read loop never runs a handler: a request goes to a parked
	// worker, or to a new one, so a blocked handler never stalls the
	// connection.
	dispatch := func(f wire.Frame) {
		r := request{f, &reqCtx{Context: context.Background(), chain: f.Chain}}
		st.addReq(f.RequestID, r.ctx)
		select {
		case park <- r:
		default:
			workers.Add(1)
			go work(r)
		}
	}

	// A chunk's payload is read straight into its stream's assembly (a
	// refused chunk's into a buffer of its own that nothing keeps).
	place := func(hdr wire.Frame, n int) []byte {
		if hdr.Type != wire.FrameChunk {
			return nil
		}
		return st.chunkRoom(hdr.RequestID, n)
	}

	br := bufio.NewReader(c)
	var verb string // the last frame's: a run of one verb reads it once
	for {
		f, err := wire.ReadFrameInto(br, verb, place)
		if err != nil {
			return // disconnect (clean EOF or protocol error)
		}
		verb = f.Verb
		switch f.Type {
		case wire.FramePing:
			_ = out.send(wire.Frame{Type: wire.FramePong, RequestID: f.RequestID})
		case wire.FrameRequest:
			dispatch(f)
		case wire.FrameStreamBegin:
			refused, over := st.beginStream(f.RequestID, f.Payload)
			if over {
				// One stream past maxStreams is a protocol violation, as an
				// oversized response stream is to the client.
				return
			}
			if refused {
				_ = out.send(wire.Frame{Type: wire.FrameCancel, RequestID: f.RequestID})
			}
		case wire.FrameChunk:
			refused, over := st.refused(f.RequestID)
			if over {
				return // as for a Begin past maxStreams
			}
			if refused {
				_ = out.send(wire.Frame{Type: wire.FrameCancel, RequestID: f.RequestID})
			} else {
				_ = out.send(creditFrame(f.RequestID, len(f.Payload)))
			}
		case wire.FrameStreamEnd:
			payload, ok := st.finish(f.RequestID)
			if !ok {
				_ = out.send(wire.Frame{Type: wire.FrameError, RequestID: f.RequestID,
					Payload: []byte("request stream exceeds payload limit")})
				continue
			}
			dispatch(wire.Frame{Type: wire.FrameRequest, RequestID: f.RequestID,
				Verb: f.Verb, Chain: f.Chain, Payload: payload})
		case wire.FrameCredit:
			st.grant(f.RequestID, creditBytes(f.Payload))
		case wire.FrameCancel:
			st.cancelRequest(f.RequestID)
		default:
			// Unknown frame types are ignored for forward compatibility.
		}
	}
}

// serveRequest runs one request's handler and sends its reply, then forgets
// the request: a later FrameCancel for its id finds nothing to cancel.
func (s *tcpServer) serveRequest(st *serverConnState, out *frameQueue, r request) {
	id := r.f.RequestID
	defer st.dropReq(id)
	result, err := s.handler(r.ctx, r.f.Verb, r.f.Payload)
	if err != nil {
		_ = out.send(wire.Frame{Type: wire.FrameError, RequestID: id, Payload: []byte(err.Error())})
		return
	}
	if len(result) <= StreamThreshold {
		_ = out.send(wire.Frame{Type: wire.FrameResponse, RequestID: id, Payload: result})
		return
	}
	win := newStreamWindow()
	st.addStream(id, win)
	_ = sendChunks(r.ctx, out, id, win, "", "", result)
}

// DialTCP connects to a framed-message server. The connection multiplexes
// concurrent calls over one socket with request-id correlation; frames
// from concurrent callers are coalesced into batched writes, and payloads
// above StreamThreshold travel as credit-windowed chunk streams.
func DialTCP(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return newTCPConn(nc), nil
}

func newTCPConn(nc net.Conn) *tcpConn {
	c := &tcpConn{
		nc:      nc,
		pending: make(map[uint64]*clientCall),
		streams: make(chan struct{}, maxStreams),
	}
	// The writer's own failure skips teardown's wait for the writer: it is
	// the writer, and it reads no frame once it has failed.
	c.out = newFrameQueue(nc, func(error) {
		c.closeSocket()
		c.failPending()
	})
	go c.readLoop()
	return c
}

// clientCall is one in-flight request: its completion channel, the
// incremental assembly of a streamed response, and — while the request
// itself streams — the sender-side credit window.
type clientCall struct {
	ch  chan wire.Frame // buffered 1; closed by failPending
	asm assembly        // streamed-response assembly (readLoop's, under c.mu)
	win *streamWindow   // non-nil only while the request streams out
}

// clientCalls holds call records between round trips. await puts one
// back once it has received its reply, which readLoop sends only after
// removing the record from pending. An abandoned record may still get a
// reply and failPending closes a record's channel: neither goes back.
var clientCalls = sync.Pool{New: func() any { return &clientCall{ch: make(chan wire.Frame, 1)} }}

type tcpConn struct {
	nc      net.Conn
	out     *frameQueue
	streams chan struct{} // a slot per streamed request in flight, ≤ maxStreams
	mu      sync.Mutex    // guards pending and closed
	pending map[uint64]*clientCall
	// closed is set by failPending under mu and re-checked at registration
	// under the same mutex: a request can never slip into pending after
	// failPending has drained it (a request registered then would hang
	// forever — no reader is left to complete it).
	closed    bool
	nextID    atomic.Uint64
	closeOnce sync.Once
}

func (c *tcpConn) readLoop() {
	// A chunk's payload is read straight into its call's assembly (a chunk
	// nobody waits for into a buffer of its own that nothing keeps).
	place := func(hdr wire.Frame, n int) []byte {
		if hdr.Type != wire.FrameChunk {
			return nil
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if pc, ok := c.pending[hdr.RequestID]; ok {
			return pc.asm.tail(n)
		}
		return nil
	}

	br := bufio.NewReader(c.nc)
	for {
		f, err := wire.ReadFrameInto(br, "", place)
		if err != nil {
			c.teardown()
			return
		}
		switch f.Type {
		case wire.FrameStreamBegin:
			c.mu.Lock()
			pc, known := c.pending[f.RequestID]
			if total, ok := beginTotal(f.Payload); known && ok {
				pc.asm.begin(total)
			}
			overrun := known && pc.asm.poisoned
			c.mu.Unlock()
			if overrun {
				c.teardown() // as for chunks past the limit, below
				return
			}
		case wire.FrameChunk:
			c.mu.Lock()
			pc, known := c.pending[f.RequestID]
			overrun := known && pc.asm.poisoned
			c.mu.Unlock()
			if overrun {
				// A peer pushing past the payload limit is a protocol
				// violation; tear the connection down like any other.
				c.teardown()
				return
			}
			if !known {
				// Stream for a caller that already gave up: nothing is
				// retained, and the sender is told to stop.
				_ = c.out.send(wire.Frame{Type: wire.FrameCancel, RequestID: f.RequestID})
				continue
			}
			// Grant the consumed bytes back so the sender's window refills.
			_ = c.out.send(creditFrame(f.RequestID, len(f.Payload)))
		case wire.FrameStreamEnd:
			c.mu.Lock()
			pc, ok := c.pending[f.RequestID]
			if ok {
				delete(c.pending, f.RequestID)
			}
			c.mu.Unlock()
			if ok {
				pc.ch <- wire.Frame{Type: wire.FrameResponse, RequestID: f.RequestID,
					Payload: pc.asm.payload()} // buffered; never blocks
			}
		case wire.FrameCredit:
			c.mu.Lock()
			pc, ok := c.pending[f.RequestID]
			c.mu.Unlock()
			if ok && pc.win != nil {
				if n := creditBytes(f.Payload); n > 0 {
					pc.win.grant(n)
				}
			}
		case wire.FrameCancel:
			// The peer refused our request stream (e.g. over limit).
			c.mu.Lock()
			pc, ok := c.pending[f.RequestID]
			c.mu.Unlock()
			if ok && pc.win != nil {
				pc.win.cancel()
			}
		case wire.FrameResponse, wire.FrameError, wire.FramePong:
			c.mu.Lock()
			pc, ok := c.pending[f.RequestID]
			if ok {
				delete(c.pending, f.RequestID)
			}
			c.mu.Unlock()
			if ok {
				pc.ch <- f // buffered; never blocks
			}
		default:
			// Unknown frame types are ignored for forward compatibility.
		}
	}
}

// failPending fails every pending call with ErrClosed and refuses new ones.
func (c *tcpConn) failPending() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for id, pc := range c.pending {
		delete(c.pending, id)
		if pc.win != nil {
			pc.win.cancel()
		}
		close(pc.ch)
	}
}

func (c *tcpConn) closeSocket() (err error) {
	c.closeOnce.Do(func() { err = c.nc.Close() })
	return err
}

// teardown is the hard stop. It closes the socket, which ends readLoop and
// releases a writer blocked in Write, and waits for the writer to exit
// before it fails the pending calls. So a call that fails with ErrClosed
// leaves no frame of its payload to be read: a ResilientConn may resend it
// on a new connection, and once that succeeds its caller reuses the buffer.
func (c *tcpConn) teardown() error {
	err := c.closeSocket()
	c.out.close()
	c.out.wait()
	c.failPending()
	return err
}

// register allocates a request id and its pending entry; ok is false when
// the connection is already closed.
func (c *tcpConn) register(streaming bool) (uint64, *clientCall, bool) {
	id := c.nextID.Add(1)
	pc := clientCalls.Get().(*clientCall)
	if streaming {
		pc.win = newStreamWindow()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, false
	}
	c.pending[id] = pc
	return id, pc, true
}

// abandon deregisters a call whose caller stopped waiting (ctx cancel or
// send failure). Dropping the pending entry releases any partially
// assembled response buffer, and the best-effort FrameCancel makes the
// peer drop its partial assembly, cancel the handler, and stop streaming —
// so no chunk buffer outlives the caller on either end.
func (c *tcpConn) abandon(id uint64) {
	c.mu.Lock()
	pc, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	closed := c.closed
	c.mu.Unlock()
	if !ok {
		return
	}
	if pc.win != nil {
		pc.win.cancel()
	}
	if !closed {
		_ = c.out.send(wire.Frame{Type: wire.FrameCancel, RequestID: id})
	}
}

func (c *tcpConn) roundTrip(ctx context.Context, f wire.Frame) (wire.Frame, error) {
	streaming := f.Type == wire.FrameRequest && len(f.Payload) > StreamThreshold
	if streaming {
		// The server holds at most maxStreams request streams open. A slot
		// is released after abandon has queued its FrameCancel, which the
		// server reads before the next stream's first frame.
		select {
		case c.streams <- struct{}{}:
			defer func() { <-c.streams }()
		case <-ctx.Done():
			return wire.Frame{}, ctx.Err()
		}
	}
	id, pc, ok := c.register(streaming)
	if !ok {
		return wire.Frame{}, ErrClosed
	}
	f.RequestID = id

	var err error
	if streaming {
		err = sendChunks(ctx, c.out, id, pc.win, f.Verb, f.Chain, f.Payload)
	} else {
		err = c.out.send(f)
	}
	if err != nil {
		c.abandon(id)
		if errors.Is(err, ErrClosed) {
			c.out.wait() // as teardown does: the writer may still hold a frame of f
		}
		return wire.Frame{}, fmt.Errorf("send: %w", err)
	}

	return c.await(ctx, id, pc)
}

// await waits for call id's reply, abandoning the call if ctx ends first;
// a reply to another request (a record reused too early) is an error.
func (c *tcpConn) await(ctx context.Context, id uint64, pc *clientCall) (wire.Frame, error) {
	select {
	case resp, ok := <-pc.ch:
		if !ok {
			return wire.Frame{}, ErrClosed
		}
		if resp.RequestID != id {
			c.abandon(id)
			return wire.Frame{}, fmt.Errorf("reply to request %d reached call %d", resp.RequestID, id)
		}
		pc.asm, pc.win = assembly{}, nil
		clientCalls.Put(pc)
		return resp, nil
	case <-ctx.Done():
		c.abandon(id)
		return wire.Frame{}, ctx.Err()
	}
}

// Call implements Conn.
func (c *tcpConn) Call(ctx context.Context, verb string, payload []byte) ([]byte, error) {
	resp, err := c.roundTrip(ctx, wire.Frame{Type: wire.FrameRequest, Verb: verb,
		Chain: ChainFrom(ctx), Payload: payload})
	if err != nil {
		return nil, err
	}
	return unpackResponse(verb, resp)
}

func unpackResponse(verb string, resp wire.Frame) ([]byte, error) {
	switch resp.Type {
	case wire.FrameResponse:
		return resp.Payload, nil
	case wire.FrameError:
		return nil, &RemoteError{Verb: verb, Msg: string(resp.Payload)}
	default:
		return nil, fmt.Errorf("unexpected %s frame", resp.Type)
	}
}

// CallMulti implements MultiCaller: all requests are registered up front
// and enqueued back-to-back — the writer goroutine coalesces them into one
// batched write, so K calls cost one flush and one round trip instead of K
// sequential RTTs — then completions are collected out of order. Requests
// large enough to stream fall back to individual concurrent Calls so their
// windowed chunks never serialize the batch.
func (c *tcpConn) CallMulti(ctx context.Context, reqs []MultiRequest) []MultiResult {
	results := make([]MultiResult, len(reqs))
	ids := make([]uint64, len(reqs))
	pcs := make([]*clientCall, len(reqs))
	chain := ChainFrom(ctx)

	var wg sync.WaitGroup
	for i, r := range reqs {
		if len(r.Payload) > StreamThreshold {
			wg.Add(1)
			go func(i int, r MultiRequest) {
				defer wg.Done()
				p, err := c.Call(ctx, r.Verb, r.Payload)
				results[i] = MultiResult{Payload: p, Err: err}
			}(i, r)
			continue
		}
		id, pc, ok := c.register(false)
		if !ok {
			results[i] = MultiResult{Err: ErrClosed}
			continue
		}
		if err := c.out.send(wire.Frame{Type: wire.FrameRequest, RequestID: id,
			Verb: r.Verb, Chain: chain, Payload: r.Payload}); err != nil {
			c.abandon(id)
			results[i] = MultiResult{Err: fmt.Errorf("send: %w", err)}
			continue
		}
		ids[i], pcs[i] = id, pc
	}

	for i, pc := range pcs {
		if pc == nil {
			continue
		}
		resp, err := c.await(ctx, ids[i], pc)
		if err == nil {
			resp.Payload, err = unpackResponse(reqs[i].Verb, resp)
		}
		results[i] = MultiResult{Payload: resp.Payload, Err: err}
	}
	wg.Wait()
	return results
}

// Ping implements Conn.
func (c *tcpConn) Ping(ctx context.Context) error {
	resp, err := c.roundTrip(ctx, wire.Frame{Type: wire.FramePing})
	if err != nil {
		return err
	}
	if resp.Type != wire.FramePong {
		return fmt.Errorf("unexpected %s frame to ping", resp.Type)
	}
	return nil
}

// Close implements Conn.
func (c *tcpConn) Close() error {
	if err := c.teardown(); err != nil && !errors.Is(err, io.ErrClosedPipe) {
		return err
	}
	return nil
}
