package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// This file drives the stream state machine (Begin → chunks → End, with
// cancel and the limits) from the far side of a real socket: rawPeer is
// the old, careless or hostile peer a TCP endpoint must keep assembling
// correctly — or refusing cheaply — in front of.

// rawPeer speaks wire frames over a plain socket, with none of the
// transport's own logic in the way.
type rawPeer struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func newRawPeer(t *testing.T, c net.Conn) *rawPeer {
	t.Helper()
	if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return &rawPeer{t: t, c: c, br: bufio.NewReader(c)}
}

func (p *rawPeer) send(frames ...wire.Frame) {
	p.t.Helper()
	var buf []byte
	for _, f := range frames {
		var err error
		if buf, err = wire.AppendFrame(buf, f); err != nil {
			p.t.Fatal(err)
		}
	}
	if _, err := p.c.Write(buf); err != nil {
		p.t.Fatalf("raw peer write: %v", err)
	}
}

// next returns the next frame that is not a credit grant (a raw peer
// ignores its window).
func (p *rawPeer) next() wire.Frame {
	p.t.Helper()
	for {
		f, err := wire.ReadFrame(p.br)
		if err != nil {
			p.t.Fatalf("raw peer read: %v", err)
		}
		if f.Type != wire.FrameCredit {
			return f
		}
	}
}

// expect reads the next non-credit frame and requires its type and id.
func (p *rawPeer) expect(typ wire.FrameType, id uint64) wire.Frame {
	p.t.Helper()
	f := p.next()
	if f.Type != typ || f.RequestID != id {
		p.t.Fatalf("got %s frame for id %d (%q), want %s for id %d", f.Type, f.RequestID, f.Payload, typ, id)
	}
	return f
}

// sync round-trips a ping: every frame sent before it has been handled.
func (p *rawPeer) sync() {
	p.t.Helper()
	p.send(wire.Frame{Type: wire.FramePing, RequestID: 1 << 40})
	p.expect(wire.FramePong, 1<<40)
}

// streamFrames spells payload as a chunk run: an optional announcement of
// announce bytes (nil: an old sender that sends none), the chunks, the end.
func streamFrames(id uint64, announce *int, verb string, payload []byte) []wire.Frame {
	var out []wire.Frame
	if announce != nil {
		out = append(out, beginFrame(id, *announce))
	}
	for off := 0; off < len(payload); off += StreamChunk {
		out = append(out, wire.Frame{Type: wire.FrameChunk, RequestID: id,
			Payload: payload[off:min(off+StreamChunk, len(payload))]})
	}
	return append(out, wire.Frame{Type: wire.FrameStreamEnd, RequestID: id, Verb: verb})
}

// announcements are the ways a stream's Begin can relate to its real
// length; every one must deliver the exact payload.
func announcements(n int) map[string]*int {
	u := func(v int) *int { return &v }
	return map[string]*int{
		"no announcement (old sender)": nil,
		"exact":                        u(n),
		"understated":                  u(n / 3),
		"overstated":                   u(n * 5),
		"zero":                         u(0),
	}
}

// rawServer listens like a site but hands the accepted connection to the
// test: a scripted server for a real DialTCP client.
func rawServer(t *testing.T) (addr string, accepted <-chan net.Conn) {
	t.Helper()
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nl.Close() })
	ch := make(chan net.Conn, 1)
	go func() {
		if c, err := nl.Accept(); err == nil {
			ch <- c
		}
	}()
	return nl.Addr().String(), ch
}

// serverAndRawClient starts a real server over h and connects a rawPeer to
// it: a client that has not said it understands FrameStreamBegin.
func serverAndRawClient(t *testing.T, h Handler) *rawPeer {
	t.Helper()
	srv, err := ListenTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return newRawPeer(t, c)
}

// heapNow is the live heap after a collection: what the process retains.
func heapNow() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestRequestStreamAnnouncements: whatever a request stream's Begin says —
// or if it is missing, as from a sender that predates it — the handler
// gets the exact payload, in a buffer no more than twice its size.
func TestRequestStreamAnnouncements(t *testing.T) {
	want := streamPayload(3, StreamThreshold*2+777)
	p := serverAndRawClient(t, func(ctx context.Context, verb string, payload []byte) ([]byte, error) {
		if !bytes.Equal(payload, want) {
			return nil, fmt.Errorf("assembled %d bytes, want %d intact", len(payload), len(want))
		}
		if cap(payload) > 2*len(payload) {
			return nil, fmt.Errorf("payload of %d bytes pins a buffer of %d", len(payload), cap(payload))
		}
		return []byte(verb), nil
	})
	id := uint64(10)
	for name, announce := range announcements(len(want)) {
		id++
		p.send(streamFrames(id, announce, "put", want)...)
		if f := p.next(); f.Type != wire.FrameResponse || f.RequestID != id {
			t.Errorf("%s: got %s frame %q, want the response", name, f.Type, f.Payload)
		}
	}
}

// TestOversizedRequestAnnouncementRefused: a Begin above MaxStreamPayload
// is refused at once and so is every chunk after it; the stream's end is
// still answered with an error frame, and the connection carries on.
func TestOversizedRequestAnnouncementRefused(t *testing.T) {
	p := serverAndRawClient(t, echoHandler)
	const id = 7
	p.send(beginFrame(id, MaxStreamPayload+1))
	p.expect(wire.FrameCancel, id)
	p.send(wire.Frame{Type: wire.FrameChunk, RequestID: id, Payload: streamPayload(1, StreamChunk)})
	p.expect(wire.FrameCancel, id)
	p.send(wire.Frame{Type: wire.FrameStreamEnd, RequestID: id, Verb: "put"})
	if f := p.expect(wire.FrameError, id); !strings.Contains(string(f.Payload), "exceeds payload limit") {
		t.Errorf("stream end answered %q", f.Payload)
	}
	p.send(wire.Frame{Type: wire.FrameRequest, RequestID: id + 1, Verb: "echo", Payload: []byte("still here")})
	if f := p.expect(wire.FrameResponse, id+1); string(f.Payload) != "echo:still here" {
		t.Errorf("call after the refusal = %q", f.Payload)
	}
}

// TestAnnouncementsPinNoMemory is the hostile peer the announcement must
// not arm: the largest legal Begin on each of as many stream ids as a
// connection may hold open, then one byte on each. The server retains next
// to nothing for either — what it reserves follows the bytes a peer really
// sends, not the ones it promises.
func TestAnnouncementsPinNoMemory(t *testing.T) {
	const ids, slack = maxStreams, 4 << 20
	p := serverAndRawClient(t, echoHandler)
	p.sync()
	before := heapNow()
	for id := uint64(1); id <= ids; id++ {
		p.send(beginFrame(id, MaxStreamPayload))
	}
	p.sync()
	if grown := heapNow() - before; grown > slack {
		t.Errorf("%d announcements alone pinned %d MB on the server", ids, grown>>20)
	}
	for id := uint64(1); id <= ids; id++ {
		p.send(wire.Frame{Type: wire.FrameChunk, RequestID: id, Payload: []byte{1}})
	}
	p.sync()
	if grown := heapNow() - before; grown > slack {
		t.Errorf("%d announced one-byte streams pinned %d MB on the server", ids, grown>>20)
	}
}

// TestServerStreamState drives the server's per-connection stream table
// where the socket cannot see: what a refused, an idle and a cancelled
// stream retain.
func TestServerStreamState(t *testing.T) {
	const id = 7
	t.Run("oversized announcement retains no chunk", func(t *testing.T) {
		st := newServerConnState()
		if refused, _ := st.beginStream(id, beginFrame(id, MaxStreamPayload+1).Payload); !refused {
			t.Fatal("announcement over the limit accepted")
		}
		if room := st.chunkRoom(id, StreamChunk); room != nil || !refusedChunk(st, id) {
			t.Errorf("refused stream offered %d bytes of room", len(room))
		}
		if a := st.asm[id]; a.buf != nil {
			t.Errorf("refused stream retains a buffer of %d bytes", cap(a.buf))
		}
		if _, ok := st.finish(id); ok || len(st.asm) != 0 {
			t.Errorf("finish of a refused stream: ok=%v, %d assemblies left", ok, len(st.asm))
		}
	})
	t.Run("announcement alone allocates nothing; cancel releases it", func(t *testing.T) {
		st := newServerConnState()
		if refused, over := st.beginStream(id, beginFrame(id, MaxStreamPayload).Payload); refused || over {
			t.Fatal("largest legal announcement refused")
		}
		if a := st.asm[id]; a == nil || a.announced != MaxStreamPayload || a.buf != nil {
			t.Fatalf("announced assembly = %+v", a)
		}
		st.cancelRequest(id)
		if len(st.asm) != 0 {
			t.Error("cancel between Begin and the first chunk left the assembly behind")
		}
	})
	t.Run("an opening Begin announces no stream", func(t *testing.T) {
		st := newServerConnState()
		if refused, over := st.beginStream(0, nil); refused || over || len(st.asm) != 0 {
			t.Errorf("a Begin without a total: refused=%v over=%v, %d assemblies", refused, over, len(st.asm))
		}
	})
	// The near-limit assembly is planted rather than received — its pages
	// are never touched, so the test costs address space, not memory.
	t.Run("limit enforced chunk by chunk", func(t *testing.T) {
		for _, announced := range []int{0, MaxStreamPayload} {
			st := newServerConnState()
			st.asm[id] = &assembly{buf: make([]byte, MaxStreamPayload-10, MaxStreamPayload), announced: announced}
			if room := st.chunkRoom(id, 10); len(room) != 10 || refusedChunk(st, id) {
				t.Fatalf("announced %d: a chunk that fits exactly got %d bytes of room", announced, len(room))
			}
			if room := st.chunkRoom(id, 1); room != nil || !refusedChunk(st, id) || st.asm[id].buf != nil {
				t.Errorf("announced %d: the byte past the limit was given room", announced)
			}
			if _, ok := st.finish(id); ok {
				t.Errorf("announced %d: overrun stream finished as a request", announced)
			}
		}
	})
}

func refusedChunk(st *serverConnState, id uint64) bool {
	refused, _ := st.refused(id)
	return refused
}

// TestAssemblyTrust pins how far tail follows an announcement: to the full
// total for the stream an honest sender opens (one allocation), and never
// further ahead of the bytes received than 16× or 4×StreamWindow.
func TestAssemblyTrust(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		announced, first, max int
	}{
		{"honest 512 KiB stream", 512 << 10, StreamChunk, 512 << 10},
		{"honest 1 MiB stream", 1 << 20, StreamChunk, 1 << 20},
		{"one byte of an announced maximum", MaxStreamPayload, 1, 16},
		{"one chunk of an announced maximum", MaxStreamPayload, StreamChunk, StreamChunk + 4*StreamWindow},
		{"a huge chunk of an announced maximum", MaxStreamPayload, 8 << 20, 8<<20 + 4*StreamWindow},
		{"understated", 10, StreamChunk, StreamChunk},
	} {
		var a assembly
		a.begin(uint64(tc.announced))
		if room := a.tail(tc.first); len(room) != tc.first || cap(a.buf) > tc.max {
			t.Errorf("%s: first chunk of %d got room %d in a buffer of %d, want at most %d",
				tc.name, tc.first, len(room), cap(a.buf), tc.max)
		}
		if tc.announced <= tc.max && tc.announced >= tc.first && cap(a.buf) != tc.announced {
			t.Errorf("%s: buffer of %d, want the announced %d at once", tc.name, cap(a.buf), tc.announced)
		}
	}
}

// dialRaw connects a real client to a scripted server and starts one call
// on it; the returned peer has already read the call's request frame.
func dialRaw(t *testing.T, ctx context.Context) (*tcpConn, *rawPeer, uint64, <-chan callResult) {
	t.Helper()
	addr, accepted := rawServer(t)
	conn, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	done := make(chan callResult, 1)
	go func() {
		out, err := conn.Call(ctx, "get", []byte("please"))
		done <- callResult{out, err}
	}()
	var p *rawPeer
	select {
	case c := <-accepted:
		t.Cleanup(func() { c.Close() })
		p = newRawPeer(t, c)
	case <-time.After(10 * time.Second):
		t.Fatal("client never connected")
	}
	req := p.next()
	if req.Type != wire.FrameRequest || req.Verb != "get" {
		t.Fatalf("scripted server got %s %q", req.Type, req.Verb)
	}
	return conn.(*tcpConn), p, req.RequestID, done
}

type callResult struct {
	out []byte
	err error
}

func (r callResult) String() string { return fmt.Sprintf("(%d bytes, %v)", len(r.out), r.err) }

func await(t *testing.T, done <-chan callResult) callResult {
	t.Helper()
	select {
	case r := <-done:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("call never returned")
		return callResult{}
	}
}

// TestResponseStreamAnnouncements is the client half: any Begin, or none,
// and the caller still gets the exact payload in a buffer of bounded size.
func TestResponseStreamAnnouncements(t *testing.T) {
	want := streamPayload(4, StreamThreshold*2+555)
	for name, announce := range announcements(len(want)) {
		t.Run(name, func(t *testing.T) {
			_, p, id, done := dialRaw(t, context.Background())
			p.send(streamFrames(id, announce, "get", want)...)
			r := await(t, done)
			if r.err != nil || !bytes.Equal(r.out, want) {
				t.Fatalf("call = %v, want %d bytes intact", r, len(want))
			}
			if cap(r.out) > 2*len(r.out) {
				t.Errorf("payload of %d bytes pins a buffer of %d", len(r.out), cap(r.out))
			}
		})
	}
}

// pendingAssembly reports the call's response assembly as the client holds
// it now.
func pendingAssembly(c *tcpConn, id uint64) (announced, capacity int, present bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pc, ok := c.pending[id]
	if !ok {
		return 0, 0, false
	}
	return pc.asm.announced, cap(pc.asm.buf), true
}

// TestOversizedResponseTearsDown: a response stream over MaxStreamPayload —
// announced so, or overrunning chunk by chunk — is a protocol violation
// that costs the peer its connection.
func TestOversizedResponseTearsDown(t *testing.T) {
	t.Run("announced", func(t *testing.T) {
		_, p, id, done := dialRaw(t, context.Background())
		p.send(beginFrame(id, MaxStreamPayload+1))
		if r := await(t, done); !errors.Is(r.err, ErrClosed) {
			t.Fatalf("call = %v, want ErrClosed", r)
		}
	})
	t.Run("chunk past the limit", func(t *testing.T) {
		tc, p, id, done := dialRaw(t, context.Background())
		tc.mu.Lock() // planted, as in TestRequestChunkLimit
		tc.pending[id].asm = assembly{buf: make([]byte, MaxStreamPayload-10, MaxStreamPayload)}
		tc.mu.Unlock()
		p.send(wire.Frame{Type: wire.FrameChunk, RequestID: id, Payload: make([]byte, 11)})
		if r := await(t, done); !errors.Is(r.err, ErrClosed) {
			t.Fatalf("call = %v, want ErrClosed", r)
		}
	})
}

// TestResponseAnnouncementTrustCap: the largest legal Begin, followed by
// nothing, makes the client allocate nothing; when the caller then gives
// up, the assembly goes with the pending entry and the stream's late chunks
// are refused, not collected.
func TestResponseAnnouncementTrustCap(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tc, p, id, done := dialRaw(t, ctx)
	p.send(beginFrame(id, MaxStreamPayload))
	deadline := time.Now().Add(5 * time.Second)
	for {
		announced, c, present := pendingAssembly(tc, id)
		if !present || c != 0 {
			t.Fatalf("announced assembly: cap %d, present=%v", c, present)
		}
		if announced == MaxStreamPayload {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the announcement never reached the client")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if r := await(t, done); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("call = %v, want context.Canceled", r)
	}
	if _, _, present := pendingAssembly(tc, id); present {
		t.Error("cancel between Begin and the first chunk left the assembly behind")
	}
	p.expect(wire.FrameCancel, id) // the caller's abandon
	p.send(wire.Frame{Type: wire.FrameChunk, RequestID: id, Payload: streamPayload(1, StreamChunk)})
	p.expect(wire.FrameCancel, id) // the late chunk, refused
	if _, _, present := pendingAssembly(tc, id); present {
		t.Error("a late chunk re-materialized state for an abandoned call")
	}
}

// TestAssemblyGrowsWithoutAnnouncement pins the fallback growth: doubling,
// so an unannounced stream of n chunks costs O(n) copied bytes, and a
// finished payload never sits in a buffer of more than twice its size.
func TestAssemblyGrowsWithoutAnnouncement(t *testing.T) {
	var a assembly
	grows, last := 0, 0
	for i := 0; i < 64; i++ {
		room := a.tail(StreamChunk)
		if len(room) != StreamChunk {
			t.Fatalf("chunk %d: room %d", i, len(room))
		}
		room[0] = byte(i)
		if cap(a.buf) != last {
			grows, last = grows+1, cap(a.buf)
		}
	}
	if grows > 7 { // 64 chunks: 1, 2, 4, … 64
		t.Errorf("64 chunks regrew the assembly %d times, want doubling", grows)
	}
	got := a.payload()
	for i := 0; i < 64; i++ {
		if got[i*StreamChunk] != byte(i) {
			t.Fatalf("chunk %d lost in a regrowth", i)
		}
	}
	if a.begin(MaxStreamPayload + 1); a.poisoned || len(a.buf) != 64*StreamChunk {
		t.Error("a late announcement disturbed the assembly")
	}
}

// TestStreamIDCap: a connection holds at most maxStreams request streams
// open at the server, refused ones included. The Begin that would open one
// more is a protocol violation that tears the connection down, while a
// second connection to the same server keeps being served.
func TestStreamIDCap(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() *rawPeer {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return newRawPeer(t, c)
	}
	hostile, honest := dial(), dial()
	for id := uint64(1); id <= maxStreams; id++ {
		total := 1000
		if id%2 == 0 {
			total = MaxStreamPayload + 1 // refused, and still held open
		}
		hostile.send(beginFrame(id, total))
	}
	for id := uint64(2); id <= maxStreams; id += 2 {
		hostile.expect(wire.FrameCancel, id)
	}
	hostile.sync()

	hostile.send(beginFrame(maxStreams+1, 1000), wire.Frame{Type: wire.FramePing, RequestID: 1 << 40})
	for {
		f, err := wire.ReadFrame(hostile.br)
		if err != nil {
			break // torn down
		}
		if f.Type == wire.FramePong {
			t.Fatalf("stream %d was opened past the cap of %d", maxStreams+1, maxStreams)
		}
	}
	honest.send(wire.Frame{Type: wire.FrameRequest, RequestID: 1, Verb: "echo", Payload: []byte("x")})
	if f := honest.expect(wire.FrameResponse, 1); string(f.Payload) != "echo:x" {
		t.Errorf("second connection answered %q", f.Payload)
	}
}

// TestStreamedCallsWaitForASlot: an honest client never opens more request
// streams than the server holds, so twice maxStreams concurrent streamed
// calls on one connection all succeed.
func TestStreamedCallsWaitForASlot(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, verb string, payload []byte) ([]byte, error) {
		return []byte(fmt.Sprint(len(payload))), nil
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
	payload := streamPayload(4, StreamThreshold+1)
	errs := make(chan error, 2*maxStreams)
	for i := 0; i < 2*maxStreams; i++ {
		go func() {
			out, err := conn.Call(context.Background(), "put", payload)
			if err == nil && string(out) != fmt.Sprint(len(payload)) {
				err = fmt.Errorf("answered %q", out)
			}
			errs <- err
		}()
	}
	for i := 0; i < 2*maxStreams; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("streamed call: %v", err)
		}
	}
}
