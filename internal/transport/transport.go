// Package transport implements the communication level of the framework
// (§5: "agreements over low-level protocols … component identification and
// location mechanisms"). It provides a small request/response message layer
// — the role Java RMI plays for HADAS — over two carriers: real TCP with
// framed messages and request correlation, and an in-process loopback for
// tests and co-located sites, plus failure-injection wrappers for testing
// partial failure.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Errors of the transport layer.
var (
	// ErrClosed reports use of a closed connection or server.
	ErrClosed = errors.New("transport closed")
	// ErrNoPeer reports a dial to an unknown in-process address.
	ErrNoPeer = errors.New("no such peer")
)

// RemoteError carries a failure returned by the remote handler; it
// preserves the remote message while marking the error as remote.
type RemoteError struct {
	Verb string
	Msg  string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote error on %q: %s", e.Verb, e.Msg)
}

// Handler processes one request at a site. Implementations must be safe
// for concurrent use; the transport may dispatch requests in parallel.
// Over TCP, ctx is cancelled when the caller gives up (FrameCancel) or the
// connection is torn down, carries the request's chain (ChainFrom), and
// has no deadline: the caller's timeout bounds the call, not the handler.
// The in-process carrier passes the caller's own context.
type Handler func(ctx context.Context, verb string, payload []byte) ([]byte, error)

// chainKey carries the caller's call-chain identity through a request
// context: stamped into the wire frame by the TCP client, restored into
// the handler context by the TCP server, and passed straight through by
// the in-process loopback. Sites use it for distributed deadlock
// detection — see internal/core's Detector.
type chainKey struct{}

// WithChain tags ctx with the call-chain identity an outgoing request
// runs on behalf of.
func WithChain(ctx context.Context, chain string) context.Context {
	if chain == "" {
		return ctx
	}
	return context.WithValue(ctx, chainKey{}, chain)
}

// ChainFrom reads the call-chain identity from a request context ("" when
// the request carries none).
func ChainFrom(ctx context.Context) string {
	chain, _ := ctx.Value(chainKey{}).(string)
	return chain
}

// Conn is a client connection to one remote site.
type Conn interface {
	// Call sends a request and waits for the matching response. Once Call
	// has returned nil, the carrier never reads payload again, so the caller
	// may reuse it. After an error it may still be read.
	Call(ctx context.Context, verb string, payload []byte) ([]byte, error)
	// Ping checks liveness.
	Ping(ctx context.Context) error
	// Close releases the connection. Pending calls fail with ErrClosed.
	Close() error
}

// MultiRequest is one call of a fan-out batch.
type MultiRequest struct {
	Verb    string
	Payload []byte
}

// MultiResult is the outcome of one call of a fan-out batch; exactly one
// of Payload and Err is meaningful, and results keep request order.
type MultiResult struct {
	Payload []byte
	Err     error
}

// MultiCaller is the optional pipelining face of a connection: CallMulti
// issues every request back-to-back without awaiting interleaved replies,
// so a K-wide batch costs one round trip instead of K. The request-id
// demux already tolerates out-of-order completion, which is what makes
// this safe. Implementations must fill results[i] for reqs[i].
type MultiCaller interface {
	CallMulti(ctx context.Context, reqs []MultiRequest) []MultiResult
}

// DoMulti issues reqs over c — pipelined in a single round trip when the
// connection implements MultiCaller, otherwise as concurrent Calls (the
// loopback and fault-injection carriers need no pipelining of their own).
// The result slice always has len(reqs) entries in request order.
func DoMulti(ctx context.Context, c Conn, reqs []MultiRequest) []MultiResult {
	if mc, ok := c.(MultiCaller); ok {
		return mc.CallMulti(ctx, reqs)
	}
	results := make([]MultiResult, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r MultiRequest) {
			defer wg.Done()
			p, err := c.Call(ctx, r.Verb, r.Payload)
			results[i] = MultiResult{Payload: p, Err: err}
		}(i, r)
	}
	wg.Wait()
	return results
}

// Listener is a bound server endpoint.
type Listener interface {
	// Addr returns the bound address (useful with ":0" binds).
	Addr() string
	// Close stops accepting and tears down existing connections.
	Close() error
}
