package transport

import (
	"context"
	"testing"
)

func BenchmarkInProcCall(b *testing.B) {
	net := NewInProcNet()
	if _, err := net.Listen("a", echoHandler); err != nil {
		b.Fatal(err)
	}
	conn, err := net.Dial("a")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	ctx := context.Background()
	b.SetBytes(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Call(ctx, "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPCall(b *testing.B) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := DialTCP(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	payload := make([]byte, 256)
	ctx := context.Background()
	b.SetBytes(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Call(ctx, "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamedCall moves a 512 KiB request — twice StreamThreshold, so
// it travels as a credit-windowed chunk stream — over TCP loopback and gets
// a one-byte reply. Tracked in BENCH_PR.json: with -benchmem its B/op is the
// copy census of the streamed path (one assembly on the server, nothing on
// the client) and a reintroduced copy shows as another 512 KiB.
func BenchmarkStreamedCall(b *testing.B) {
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, verb string, payload []byte) ([]byte, error) {
		return payload[:1], nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := DialTCP(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	payload := make([]byte, 512<<10)
	ctx := context.Background()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Call(ctx, "put", payload); err != nil {
			b.Fatal(err)
		}
	}
}
