package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"
)

// FrameType discriminates transport messages.
type FrameType uint8

// Frame types of the site-to-site protocol. Types 6-10 form the streaming
// extension (protocol v2): large payloads travel as FrameChunk runs opened
// by a FrameStreamBegin and closed by a FrameStreamEnd (which carries the
// verb for request streams), the receiver grants window space back with
// FrameCredit, and FrameCancel tears down a stream (or an in-flight
// request) early. Unknown types are ignored by older receivers, so the
// schema can keep growing.
const (
	FrameRequest  FrameType = 1
	FrameResponse FrameType = 2
	FrameError    FrameType = 3
	FramePing     FrameType = 4
	FramePong     FrameType = 5
	// FrameChunk carries one bounded slice of a streamed payload.
	FrameChunk FrameType = 6
	// FrameStreamEnd closes a chunk run: the assembled payload is complete.
	// On a request stream it carries the Verb and Chain of the call the
	// chunks spell out; on a response stream, like every reply, neither.
	FrameStreamEnd FrameType = 7
	// FrameCredit grants the stream sender window space: the payload is a
	// uvarint of bytes the receiver has consumed (credit-based flow
	// control — a slow receiver stalls its own stream, not the connection).
	FrameCredit FrameType = 8
	// FrameCancel aborts the request id it names: a partially-assembled
	// request stream is discarded, an in-flight handler's context is
	// cancelled, and a response stream stops sending.
	FrameCancel FrameType = 9
	// FrameStreamBegin announces a chunk run before its first chunk: the
	// payload is a uvarint of the total bytes to come, from which the
	// receiver sizes the assembly. It is advisory — a stream without it, or
	// with a wrong total, still assembles. A server ignores unknown types
	// but a pre-Begin client does not, so a server sends it only on a
	// connection whose client has sent one: a client opens its connection
	// with an empty Begin (request id 0, no payload) to say so.
	FrameStreamBegin FrameType = 10
)

// String returns the frame type name.
func (t FrameType) String() string {
	switch t {
	case FrameRequest:
		return "request"
	case FrameResponse:
		return "response"
	case FrameError:
		return "error"
	case FramePing:
		return "ping"
	case FramePong:
		return "pong"
	case FrameChunk:
		return "chunk"
	case FrameStreamEnd:
		return "stream-end"
	case FrameCredit:
		return "credit"
	case FrameCancel:
		return "cancel"
	case FrameStreamBegin:
		return "stream-begin"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// Frame is one transport message: a type, a correlation id, a verb naming
// the operation, the call chain on whose behalf the request runs (empty
// when the caller holds no serialized admissions — then nothing upstream
// can deadlock on it), and an opaque payload.
type Frame struct {
	Type      FrameType
	RequestID uint64
	Verb      string
	Chain     string
	Payload   []byte
}

// MaxFrame bounds a whole frame on the wire.
const MaxFrame = MaxBlob + 4096

// AppendFrame appends one length-prefixed frame to buf and returns the
// extended slice — the allocation-free encoder the coalescing transport
// writers batch frames with before a single syscall.
func AppendFrame(buf []byte, f Frame) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length header, patched below
	buf = append(buf, byte(f.Type))
	buf = binary.AppendUvarint(buf, f.RequestID)
	buf = binary.AppendUvarint(buf, uint64(len(f.Verb)))
	buf = append(buf, f.Verb...)
	buf = binary.AppendUvarint(buf, uint64(len(f.Chain)))
	buf = append(buf, f.Chain...)
	buf = binary.AppendUvarint(buf, uint64(len(f.Payload)))
	buf = append(buf, f.Payload...)
	n := len(buf) - start - 4
	if n > MaxFrame {
		return buf[:start], fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrCodec, n)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) (Frame, error) { return ReadFrameInto(r, "", nil) }

// byteReader is what the frame parser reads from: single header bytes and
// bulk fields. *bufio.Reader, *bytes.Reader and *bytes.Buffer all qualify.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// byteAtATime adapts a bare io.Reader; it never reads ahead, so the bytes
// after the frame stay in the underlying reader.
type byteAtATime struct {
	io.Reader
	b [1]byte
}

func (r *byteAtATime) ReadByte() (byte, error) {
	_, err := io.ReadFull(r.Reader, r.b[:])
	return r.b[0], err
}

// frameParser reads the fields of one frame body, counting down the bytes
// the length prefix declared so no field can reach past the frame.
type frameParser struct {
	r   byteReader
	rem int
}

// truncated reports a field that would reach past the end of its frame.
func truncated(what string) error {
	return fmt.Errorf("%w: truncated %s in frame", ErrCodec, what)
}

// ioErr reports a read error inside a frame body: the stream ended (or
// broke) before the bytes its prefix promised.
func ioErr(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("read frame body: %w", err)
}

func (p *frameParser) byte(what string) (byte, error) {
	if p.rem == 0 {
		return 0, truncated(what)
	}
	b, err := p.r.ReadByte()
	if err != nil {
		return 0, ioErr(err)
	}
	p.rem--
	return b, nil
}

func (p *frameParser) uvarint(what string) (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b, err := p.byte(what)
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break // overflows 64 bits
			}
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
	}
	return 0, fmt.Errorf("%w: uvarint overflow in frame %s", ErrCodec, what)
}

// length reads the length prefix of a string or payload field.
func (p *frameParser) length(what string) (int, error) {
	n, err := p.uvarint(what)
	if err != nil {
		return 0, err
	}
	if n > MaxBlob {
		return 0, fmt.Errorf("%w: blob of %d bytes exceeds limit", ErrCodec, n)
	}
	if n > uint64(p.rem) {
		return 0, truncated(what)
	}
	return int(n), nil
}

func (p *frameParser) fill(dst []byte) error {
	if _, err := io.ReadFull(p.r, dst); err != nil {
		return ioErr(err)
	}
	p.rem -= len(dst)
	return nil
}

// str reads a string field. One with the bytes of prev, buffered whole in
// a *bufio.Reader, is prev itself: a reader that passes the previous
// frame's verb back allocates nothing for a run of one verb.
func (p *frameParser) str(what, prev string) (string, error) {
	n, err := p.length(what)
	if err != nil || n == 0 {
		return "", err
	}
	if br, ok := p.r.(*bufio.Reader); ok && n == len(prev) {
		if b, err := br.Peek(n); err == nil && string(b) == prev {
			_, err = br.Discard(n)
			p.rem -= n
			return prev, err
		}
	}
	b := make([]byte, n)
	if err := p.fill(b); err != nil {
		return "", err
	}
	return unsafe.String(&b[0], n), nil // b is fresh, and nothing writes it again
}

// ReadFrameInto reads one length-prefixed frame, parsing the header fields
// as they arrive and then reading the payload straight into its final
// place: place, given the parsed header (Payload unset) and the payload
// length n, returns the buffer whose first n bytes the payload fills. A nil
// place, or a result shorter than n, gets a fresh buffer of exactly n bytes.
// Nothing is allocated or requested from place before the header has been
// checked against the length prefix and the wire limits. A verb with the
// bytes of verb is returned as verb itself, not a copy.
func ReadFrameInto(r io.Reader, verb string, place func(hdr Frame, n int) []byte) (Frame, error) {
	br, ok := r.(byteReader)
	if !ok {
		br = &byteAtATime{Reader: r}
	}
	var n uint32
	for i := 0; i < 4; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err // a bare io.EOF before the first byte is a clean shutdown
		}
		n = n<<8 | uint32(b)
	}
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrCodec, n)
	}
	p := frameParser{r: br, rem: int(n)}
	tb, err := p.byte("type")
	if err != nil {
		return Frame{}, err
	}
	f := Frame{Type: FrameType(tb)}
	if f.RequestID, err = p.uvarint("request id"); err != nil {
		return Frame{}, err
	}
	if f.Verb, err = p.str("verb", verb); err != nil {
		return Frame{}, err
	}
	if f.Chain, err = p.str("chain", ""); err != nil {
		return Frame{}, err
	}
	size, err := p.length("payload")
	if err != nil {
		return Frame{}, err
	}
	if size != p.rem {
		return Frame{}, fmt.Errorf("%w: %d trailing bytes in frame", ErrCodec, p.rem-size)
	}
	var dst []byte
	if place != nil {
		dst = place(f, size)
	}
	if len(dst) < size {
		dst = make([]byte, size)
	}
	f.Payload = dst[:size]
	if err := p.fill(f.Payload); err != nil {
		return Frame{}, err
	}
	return f, nil
}
