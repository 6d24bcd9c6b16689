package transport

import (
	"context"
	"encoding/binary"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// This file is the shared write side of the pipelined wire protocol
// (DESIGN.md §14): every TCP endpoint — client and server — owns one
// frameQueue, a bounded outbound queue drained by a dedicated writer
// goroutine that folds queued frames into a single syscall, and large
// payloads travel as credit-windowed chunk streams built from the same
// queue. Concurrent callers therefore never contend on a write mutex and
// never pay one syscall per frame: a burst of K small requests leaves in
// one batched write.

// Tuning constants of the coalescing writer and the chunk streams.
const (
	// outQueueFrames bounds the outbound queue; a full queue blocks the
	// sender (backpressure) rather than buffering unboundedly.
	outQueueFrames = 256
	// coalesceBytes is the batch flush threshold: the writer keeps folding
	// queued frames into one write until the queue momentarily drains or
	// the batch reaches this size.
	coalesceBytes = 64 << 10
	// StreamThreshold is the payload size above which a request or
	// response is shipped as a chunk stream instead of one frame.
	StreamThreshold = 256 << 10
	// StreamChunk is the chunk payload size.
	StreamChunk = 64 << 10
	// StreamWindow is the credit window: the most unacknowledged stream
	// bytes a sender keeps in flight. A receiver grants credit back as it
	// consumes chunks, so a slow receiver stalls only its own stream — the
	// shared writer queue keeps serving other frames.
	StreamWindow = 256 << 10
	// MaxStreamPayload caps an assembled streamed payload; beyond it the
	// stream is a protocol violation (the defensive stance of the wire
	// package, extended to multi-frame payloads).
	MaxStreamPayload = 256 << 20
	// MaxPooledBuffer is the largest request buffer a caller keeps for its
	// next call: 4 × StreamWindow, as far as an assembly trusts an
	// announcement. A larger one goes to the collector.
	MaxPooledBuffer = 4 * StreamWindow
	// maxStreams caps the request streams one connection holds open at the
	// server, refused ones included; a peer that opens one more is torn
	// down. A client's streamed calls wait for one of as many slots.
	maxStreams = 64
)

// frameQueue is one connection's outbound path: send enqueues a frame and
// the writer goroutine batches enqueued frames into single writes. The
// first write (or encode) error fails the queue — onErr runs once, senders
// unblock with ErrClosed — because a transport that cannot write can never
// complete another call on this connection.
type frameQueue struct {
	w     io.Writer
	onErr func(error)

	ch        chan wire.Frame
	done      chan struct{}
	closeOnce sync.Once
	failed    atomic.Bool
	wg        sync.WaitGroup
}

func newFrameQueue(w io.Writer, onErr func(error)) *frameQueue {
	q := &frameQueue{
		w:     w,
		onErr: onErr,
		ch:    make(chan wire.Frame, outQueueFrames),
		done:  make(chan struct{}),
	}
	q.wg.Add(1)
	go q.run()
	return q
}

// send enqueues one frame for the writer goroutine. It blocks while the
// queue is full (bounded memory; the writer is draining it) and fails with
// ErrClosed once the queue is closed or its writer has failed.
func (q *frameQueue) send(f wire.Frame) error {
	if q.failed.Load() {
		return ErrClosed
	}
	select {
	case q.ch <- f:
		return nil
	case <-q.done:
		return ErrClosed
	}
}

// close shuts the queue down: senders fail with ErrClosed and the writer
// goroutine exits once it finishes the batch in hand. Safe to call many
// times and concurrently with send.
func (q *frameQueue) close() {
	q.closeOnce.Do(func() { close(q.done) })
}

// wait blocks until the writer goroutine has exited (teardown barrier).
func (q *frameQueue) wait() { q.wg.Wait() }

func (q *frameQueue) run() {
	defer q.wg.Done()
	var batch []byte
	for {
		var f wire.Frame
		select {
		case <-q.done:
			return
		case f = <-q.ch:
		}
		batch = batch[:0]
		var err error
		// Cork: fold already-queued frames into the same write until the
		// queue momentarily drains or the batch is large enough. A frame
		// dequeued once the queue has closed is dropped, not appended.
	fold:
		for err == nil {
			select {
			case <-q.done:
				return
			default:
			}
			batch, err = wire.AppendFrame(batch, f)
			if len(batch) >= coalesceBytes {
				break
			}
			select {
			case f = <-q.ch:
			default:
				break fold
			}
		}
		if err == nil {
			_, err = q.w.Write(batch)
		}
		if err != nil {
			q.failed.Store(true)
			q.close()
			if q.onErr != nil {
				q.onErr(err)
			}
			return
		}
	}
}

// streamWindow is one stream's sender-side credit state. The sender starts
// with StreamWindow bytes of credit, spends it per chunk, and blocks until
// the receiver grants more (or the stream aborts).
type streamWindow struct {
	credit atomic.Int64
	notify chan struct{} // capacity 1: "credit arrived"
	abort  chan struct{} // closed when the peer cancels the stream
}

func newStreamWindow() *streamWindow {
	w := &streamWindow{
		notify: make(chan struct{}, 1),
		abort:  make(chan struct{}),
	}
	w.credit.Store(StreamWindow)
	return w
}

// grant adds receiver-granted credit and wakes the sender.
func (w *streamWindow) grant(n int64) {
	w.credit.Add(n)
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// cancel aborts the stream from the receiving side (idempotent).
func (w *streamWindow) cancel() {
	select {
	case <-w.abort:
	default:
		close(w.abort)
	}
}

// creditFrame builds the grant for n consumed stream bytes.
func creditFrame(id uint64, n int) wire.Frame {
	return wire.Frame{
		Type:      wire.FrameCredit,
		RequestID: id,
		Payload:   binary.AppendUvarint(nil, uint64(n)),
	}
}

// creditBytes decodes a FrameCredit payload (0 when malformed — a zero
// grant is harmless: the sender just keeps waiting for a valid one).
func creditBytes(payload []byte) int64 {
	n, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0
	}
	return int64(n)
}

// beginFrame builds the announcement of a stream of total bytes.
func beginFrame(id uint64, total int) wire.Frame {
	return wire.Frame{
		Type:      wire.FrameStreamBegin,
		RequestID: id,
		Payload:   binary.AppendUvarint(nil, uint64(total)),
	}
}

// beginTotal decodes a FrameStreamBegin payload; false when it announces
// nothing or is malformed — the stream then assembles as an unannounced
// one.
func beginTotal(payload []byte) (uint64, bool) {
	n, k := binary.Uvarint(payload)
	return n, k > 0
}

// sendChunks streams payload through q: a FrameStreamBegin with its length
// (so the receiver can size the assembly at once), then credit-windowed
// FrameChunk frames and a FrameStreamEnd carrying verb and chain. It blocks
// when the window is exhausted until the receiver grants credit, the
// context ends, the peer cancels the stream, or the connection's writer
// dies.
func sendChunks(ctx context.Context, q *frameQueue, id uint64, win *streamWindow,
	verb, chain string, payload []byte) error {
	if err := q.send(beginFrame(id, len(payload))); err != nil {
		return err
	}
	for off := 0; off < len(payload); {
		n := len(payload) - off
		if n > StreamChunk {
			n = StreamChunk
		}
		for win.credit.Load() < int64(n) {
			select {
			case <-win.notify:
			case <-win.abort:
				// A teardown closes q and then aborts the window: when
				// both are ready the connection failed, and a resilient
				// caller may resend only on ErrClosed.
				select {
				case <-q.done:
					return ErrClosed
				default:
				}
				return context.Canceled // receiver tore the stream down
			case <-ctx.Done():
				return ctx.Err()
			case <-q.done:
				return ErrClosed
			}
		}
		win.credit.Add(-int64(n))
		if err := q.send(wire.Frame{Type: wire.FrameChunk, RequestID: id,
			Payload: payload[off : off+n]}); err != nil {
			return err
		}
		off += n
	}
	return q.send(wire.Frame{Type: wire.FrameStreamEnd, RequestID: id, Verb: verb, Chain: chain})
}
