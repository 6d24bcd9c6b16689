package hadas

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/value"
)

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
// allocates, on both sites together, at most 2.25 times its payload — the
// client's encoding and the server's assembly, plus small change. A copy
// reintroduced anywhere between value and socket costs another payload and
// breaks the budget.
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
	if budget := 2.25 * float64(512<<10); perCall > budget {
		t.Errorf("one streamed 512 KiB invoke allocates %.0f bytes (%.2f × payload), budget %.0f (2.25 ×)",
			perCall, perCall/float64(512<<10), budget)
	}
}

// TestAliasedArgumentOutlivesItsCall: a byte-string argument decoded in
// place aliases the request's receive buffer, so that buffer must stay the
// argument's alone — here the target keeps the argument, and 100 further
// calls of every size class on the same connection must not change a byte
// of it. Run under -race it also pins that nothing writes the buffer late.
func TestAliasedArgumentOutlivesItsCall(t *testing.T) {
	pairs := map[string]func(*testing.T) (*Site, *Site){"tcp": tcpPair, "inproc": inprocPair}
	for name, pair := range pairs {
		t.Run(name, func(t *testing.T) {
			host, origin := pair(t)
			var v vault
			v.install(t, origin)
			caller := security.Principal{Object: host.Generator().New(), Domain: host.Domain()}
			sizes := []int{transport.StreamThreshold * 2, 64, transport.StreamChunk, transport.StreamThreshold + 1}
			const calls = 100 + 4
			for i := 0; i < calls; i++ {
				arg := value.NewBytes(patterned(byte(i), sizes[i%len(sizes)]))
				if _, err := host.InvokeRemote("bulk-origin", caller, "vault", "keep", arg); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			v.mu.Lock()
			defer v.mu.Unlock()
			if len(v.kept) != calls {
				t.Fatalf("vault kept %d arguments, want %d", len(v.kept), calls)
			}
			for i, got := range v.kept {
				if !bytes.Equal(got, patterned(byte(i), sizes[i%len(sizes)])) {
					t.Errorf("argument of call %d (%d bytes) changed after its call returned", i, len(got))
				}
			}
		})
	}
}
