// Package wire implements the marshaling substrate: a self-describing
// tag-length-value binary encoding for model values, object images and
// transport frames. It plays the role Java serialization plays for HADAS
// (§5: "agreements over low-level protocols, marshaling schemes").
//
// The format is defensive: every decoder enforces depth and size limits so
// a malicious peer cannot make a host allocate unboundedly — mobile-object
// systems decode bytes from domains with "varying levels of trust".
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCodec reports malformed or oversized wire data.
var ErrCodec = errors.New("wire codec error")

// Limits bound what a decoder will accept.
const (
	// MaxBlob is the largest single string/bytes payload.
	MaxBlob = 16 << 20
	// MaxElems is the largest list/map element count.
	MaxElems = 1 << 20
	// MaxDepth is the deepest value nesting.
	MaxDepth = 64
)

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Byte appends a raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends a signed varint (zig-zag).
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Float appends a float64 (IEEE 754 bits, little endian).
func (w *Writer) Float(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

// BytesField appends a length-prefixed byte string.
func (w *Writer) BytesField(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader consumes an encoded message.
type Reader struct {
	buf []byte
	off int
	// shareFrom, when positive, is the length from which BytesField aliases
	// buf instead of copying; zero (every Reader but DecodeValueInPlace's)
	// copies always.
	shareFrom int
}

// NewReader wraps a byte slice for decoding. The slice is not copied.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Remaining reports undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done reports whether the input is fully consumed.
func (r *Reader) Done() bool { return r.off >= len(r.buf) }

func (r *Reader) fail(what string) error {
	return fmt.Errorf("%w: truncated %s at offset %d", ErrCodec, what, r.off)
}

// Byte reads one byte.
func (r *Reader) Byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, r.fail("byte")
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, r.fail("uvarint")
	}
	r.off += n
	return v, nil
}

// Varint reads a signed varint.
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, r.fail("varint")
	}
	r.off += n
	return v, nil
}

// Float reads a float64.
func (r *Reader) Float() (float64, error) {
	if r.Remaining() < 8 {
		return 0, r.fail("float")
	}
	bits := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return math.Float64frombits(bits), nil
}

// span consumes a length-prefixed field and returns its bytes, still
// aliasing the input.
func (r *Reader) span() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > MaxBlob {
		return nil, fmt.Errorf("%w: blob of %d bytes exceeds limit", ErrCodec, n)
	}
	if uint64(r.Remaining()) < n {
		return nil, r.fail("bytes payload")
	}
	end := r.off + int(n)
	b := r.buf[r.off:end:end]
	r.off = end
	return b, nil
}

// BytesField reads a length-prefixed byte string. It is a copy, except
// under an in-place Reader (see DecodeValueInPlace), where a byte string of
// at least shareFrom bytes aliases the input instead.
func (r *Reader) BytesField() ([]byte, error) {
	b, err := r.span()
	if err != nil {
		return nil, err
	}
	if r.shareFrom > 0 && len(b) >= r.shareFrom {
		return b, nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// String reads a length-prefixed string.
func (r *Reader) String() (string, error) {
	b, err := r.span()
	return string(b), err
}

// Count reads an element count, bounded by MaxElems.
func (r *Reader) Count() (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > MaxElems {
		return 0, fmt.Errorf("%w: %d elements exceeds limit", ErrCodec, n)
	}
	return int(n), nil
}
