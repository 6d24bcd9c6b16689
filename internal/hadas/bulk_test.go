package hadas

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/value"
)

// raceBuild is set by race_test.go in a -race build.
var raceBuild bool

// vault is a test APO whose "keep" method holds on to its byte-string
// argument — the value exactly as the site decoded it — and answers its
// length.
type vault struct {
	mu   sync.Mutex
	kept [][]byte
}

func (v *vault) install(t *testing.T, s *Site) {
	t.Helper()
	s.Behaviors().Register("test.keep", func(_ *core.Invocation, args []value.Value) (value.Value, error) {
		b, _ := args[0].Bytes()
		v.mu.Lock()
		v.kept = append(v.kept, b)
		v.mu.Unlock()
		return value.NewInt(int64(len(b))), nil
	})
	keep, err := s.Behaviors().Lookup("test.keep")
	if err != nil {
		t.Fatal(err)
	}
	b := s.NewAPOBuilder("Vault")
	b.FixedMethod("keep", keep)
	if err := s.AddAPO("vault", b.MustBuild()); err != nil {
		t.Fatal(err)
	}
}

// tcpPair links a host site to an origin site over TCP loopback.
func tcpPair(t *testing.T) (host, origin *Site) {
	t.Helper()
	origin, err := NewSite(Config{Name: "bulk-origin"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { origin.Close() })
	addr, err := origin.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	host, err = NewSite(Config{Name: "bulk-host"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { host.Close() })
	if _, err := host.Link(addr); err != nil {
		t.Fatal(err)
	}
	return host, origin
}

func inprocPair(t *testing.T) (host, origin *Site) {
	t.Helper()
	net := transport.NewInProcNet()
	host, origin = newTestSite(t, net, "bulk-host"), newTestSite(t, net, "bulk-origin")
	if _, err := host.Link("bulk-origin"); err != nil {
		t.Fatal(err)
	}
	return host, origin
}

func patterned(seed byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed ^ byte(i) ^ byte(i>>8)
	}
	return p
}

// TestStreamedInvokeByteBudget is the byte budget of the bulk path, as a
// test that fails: one hadas.invoke carrying a 512 KiB byte string over TCP
// allocates, on both sites together, at most 1.25 times its payload — the
// server's assembly, plus small change; the client encodes into a pooled
// request buffer. A copy reintroduced anywhere between value and socket
// costs another payload and breaks the budget. Under -race, where the pool
// does not reliably return the buffer, the budget stays at 2.25 times.
func TestStreamedInvokeByteBudget(t *testing.T) {
	host, origin := tcpPair(t)
	new(vault).install(t, origin)
	caller := security.Principal{Object: host.Generator().New(), Domain: host.Domain()}
	blob := value.NewBytes(patterned(1, 512<<10))
	put := func() {
		v, err := host.InvokeRemote("bulk-origin", caller, "vault", "keep", blob)
		if n, _ := v.Int(); err != nil || n != 512<<10 {
			t.Fatalf("keep = %v, %v", v, err)
		}
	}
	for i := 0; i < 4; i++ {
		put() // connection buffers, dispatch caches
	}
	const calls = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		put()
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("one streamed 512 KiB invoke allocates %.2f × its payload", perCall/float64(512<<10))
	times := 1.25
	if raceBuild {
		times = 2.25
	}
	if budget := times * float64(512<<10); perCall > budget {
		t.Errorf("one streamed 512 KiB invoke allocates %.0f bytes (%.2f × payload), budget %.0f (%.2f ×)",
			perCall, perCall/float64(512<<10), budget, times)
	}
}

// TestAliasedArgumentOutlivesItsCall: a byte-string argument decoded in
// place aliases the request's receive buffer, so that buffer must stay the
// argument's alone — here the target keeps the argument, and 100 further
// calls of every size class from 4 concurrent callers on the same
// connection, each encoding into a pooled request buffer, must not change a
// byte of it. Run under -race it also pins that nothing writes the buffer
// late.
func TestAliasedArgumentOutlivesItsCall(t *testing.T) {
	pairs := map[string]func(*testing.T) (*Site, *Site){"tcp": tcpPair, "inproc": inprocPair}
	for name, pair := range pairs {
		t.Run(name, func(t *testing.T) {
			host, origin := pair(t)
			var v vault
			v.install(t, origin)
			caller := security.Principal{Object: host.Generator().New(), Domain: host.Domain()}
			sizes := []int{transport.StreamThreshold * 2, 64, transport.StreamChunk, transport.StreamThreshold + 1}
			const calls, callers = 100 + 4, 4
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < calls; i += callers {
						arg := value.NewBytes(patterned(byte(i), sizes[i%len(sizes)]))
						if _, err := host.InvokeRemote("bulk-origin", caller, "vault", "keep", arg); err != nil {
							t.Errorf("call %d: %v", i, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			v.mu.Lock()
			defer v.mu.Unlock()
			if len(v.kept) != calls {
				t.Fatalf("vault kept %d arguments, want %d", len(v.kept), calls)
			}
			seen := make(map[int]bool)
			for _, got := range v.kept {
				i := int(got[0]) // patterned(byte(i), n) starts with byte(i)
				if seen[i] || i >= calls || !bytes.Equal(got, patterned(byte(i), sizes[i%len(sizes)])) {
					t.Errorf("an argument of %d bytes changed after its call returned", len(got))
				}
				seen[i] = true
			}
		})
	}
}

// lateConn fails every other invoke at once but keeps its request, and
// sends that on ahead of the next call: a carrier that reads a failed
// call's payload after Call has returned, as the transport.Conn contract
// allows.
type lateConn struct {
	transport.Conn
	mu    sync.Mutex
	calls int
	held  []byte
}

func (c *lateConn) Call(ctx context.Context, verb string, payload []byte) ([]byte, error) {
	c.mu.Lock()
	held := c.held
	c.calls++
	fail := verb == verbInvoke && c.calls%2 == 1
	c.held = nil
	if fail {
		c.held = payload
	}
	c.mu.Unlock()
	if held != nil {
		_, _ = c.Conn.Call(ctx, verbInvoke, held)
	}
	if fail {
		return nil, transport.ErrInjected
	}
	return c.Conn.Call(ctx, verb, payload)
}

// TestFailedCallKeepsItsRequestBuffer: a request buffer goes back to the
// pool only after a call that succeeded. Half the invokes fail while the
// carrier keeps their requests and delivers them late, so the target must
// see every argument sent, each once — a buffer pooled on error carries
// the next call's argument instead.
func TestFailedCallKeepsItsRequestBuffer(t *testing.T) {
	net := transport.NewInProcNet()
	host, origin := newTestSite(t, net, "late-host"), newTestSite(t, net, "late-origin")
	if _, err := host.Link("late-origin"); err != nil {
		t.Fatal(err)
	}
	var v vault
	v.install(t, origin)
	inner, err := net.Dial("late-origin")
	if err != nil {
		t.Fatal(err)
	}
	if err := host.SetPeerConn("late-origin", &lateConn{Conn: inner}); err != nil {
		t.Fatal(err)
	}
	caller := security.Principal{Object: host.Generator().New(), Domain: host.Domain()}
	const calls = 16
	for i := 0; i < calls; i++ {
		_, err := host.InvokeRemote("late-origin", caller, "vault", "keep", value.NewBytes(patterned(byte(i), 64)))
		if failed := i%2 == 0; failed != (err != nil) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	seen := make(map[byte]int)
	for _, got := range v.kept {
		seen[got[0]]++
		if !bytes.Equal(got, patterned(got[0], 64)) {
			t.Errorf("argument %d arrived corrupted", got[0])
		}
	}
	for i := 0; i < calls-1; i++ { // the last failed call is still held
		if seen[byte(i)] != 1 {
			t.Errorf("argument of call %d arrived %d times, want once", i, seen[byte(i)])
		}
	}
}

// cuttingProxy forwards the first connection made to it on to addr and
// cuts it, both ways, once budget bytes have gone toward addr; cut is
// closed when it has.
func cuttingProxy(t *testing.T, addr string, budget int64) (proxy string, cut <-chan struct{}) {
	t.Helper()
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nl.Close() })
	done := make(chan struct{})
	go func() {
		c, err := nl.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		u, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer u.Close()
		go io.Copy(c, u)
		if _, err := io.CopyN(u, c, budget); err == nil {
			close(done)
		}
	}()
	return nl.Addr().String(), done
}

// TestRetriedDispatchLandsOnce: a streamed hadas.dispatch whose connection
// is cut mid-stream fails with ErrClosed and is resent on a redialed
// connection. The agent lands exactly once, and its image decodes intact.
func TestRetriedDispatchLandsOnce(t *testing.T) {
	a, b := tcpSitePair(t)
	cargo := strings.Repeat("z", 3*transport.StreamThreshold)
	builder := a.NewAPOBuilder("Freighter")
	builder.ExtData("cargo", value.NewString(cargo))
	if err := a.AddAPO("freighter", builder.MustBuild()); err != nil {
		t.Fatal(err)
	}
	baddr, cut := cuttingProxy(t, b.listener.Addr(), transport.StreamThreshold)
	conn, err := transport.DialTCP(baddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetPeerConn("b", conn); err != nil {
		t.Fatal(err)
	}

	if _, err := a.DispatchAgent("freighter", "b"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cut:
	default:
		t.Fatal("the first connection was never cut")
	}
	if got := copies("freighter", a, b); got != 1 {
		t.Fatalf("agent copies = %d, want exactly 1", got)
	}
	if recs := b.ArrivalRecords(); len(recs) != 1 {
		t.Errorf("arrival records = %v", recs)
	}
	obj, err := b.ResolveObject("freighter")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := obj.Get(obj.Principal(), "cargo"); err != nil {
		t.Fatal(err)
	} else if got, _ := v.Str(); got != cargo {
		t.Fatalf("cargo corrupted in flight: %d bytes, want %d", len(got), len(cargo))
	}
}
