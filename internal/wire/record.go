package wire

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/value"
)

// Codec runs a protocol record's field-order method two ways: to encode
// it in one walk, and to decode it in place. A record is a Go struct whose
// Fields method names its fields in wire order — c.Str("site", &r.Site);
// c.ID("caller", &r.Caller) — so encoder and decoder cannot drift apart. On
// the wire a record is a list value, its fields in order, each an ordinary
// tagged value (an ID is a 16-byte Bytes), so any value decoder reads it.
// One versioning rule: a list shorter than the record reads its missing
// tail as zero, elements past the known fields are decoded under the usual
// limits and dropped, a null field reads as zero, and a field of another
// kind fails core.ErrArity naming it.
type Codec struct {
	op          codecOp
	left, depth int // left: fields written to the open record, or its elements still to read
	w           Writer
	r           Reader
	err         error
}

type codecOp uint8

const (
	opEncode codecOp = iota
	opDecode
)

// Fields is passed as a func value, which keeps the record off the heap;
// the Codec it is handed escapes, so it is pooled. A pooled Codec is zero,
// set to encode, but for its writer's buffer: the scratch the next encode
// writes into.
var codecs = sync.Pool{New: func() any { return new(Codec) }}

// maxScratch is the largest scratch buffer a Codec takes back to the pool,
// the same bound transport.MaxPooledBuffer puts on a request buffer: one
// huge record does not pin its memory.
const maxScratch = 1 << 20

// putCodec clears c and pools it, keeping scratch unless it is past
// maxScratch.
func putCodec(c *Codec, scratch []byte) {
	if cap(scratch) > maxScratch {
		scratch = nil
	}
	*c = Codec{w: Writer{buf: scratch[:0]}}
	codecs.Put(c)
}

// exact returns a copy of what c wrote into its scratch, exactly sized,
// and pools c.
func (c *Codec) exact() []byte {
	out := append(make([]byte, 0, len(c.w.buf)), c.w.buf...)
	putCodec(c, c.w.buf)
	return out
}

// EncodeRecord encodes the record fields describes in one walk, into a
// buffer of its own, allocated once and exactly sized.
func EncodeRecord(fields func(*Codec)) []byte {
	c := codecs.Get().(*Codec)
	c.record(fields)
	return c.exact()
}

// AppendRecord appends the record fields describes to dst, written
// straight into dst in the same one walk.
func AppendRecord(dst []byte, fields func(*Codec)) []byte {
	c := codecs.Get().(*Codec)
	scratch := c.w.buf
	c.w.buf = dst
	c.record(fields)
	dst = c.w.buf
	putCodec(c, scratch)
	return dst
}

// ErrNotRecord refuses bytes that do not begin as a record (a list value):
// a message, stored record or object image in a format from before
// records. It is an ErrCodec.
var ErrNotRecord = fmt.Errorf("%w: not a record", ErrCodec)

// ErrMapShaped is the ErrNotRecord of a map value: a message or a stored
// record in the format from before records.
var ErrMapShaped = fmt.Errorf("%w: a map-shaped record, the format before records", ErrNotRecord)

// RecordForm reports whether b begins as a record, without decoding it:
// nil, ErrMapShaped, or ErrNotRecord.
func RecordForm(b []byte) error {
	switch {
	case len(b) > 0 && b[0] == tagList:
		return nil
	case len(b) > 0 && b[0] == tagMap:
		return ErrMapShaped
	}
	return ErrNotRecord
}

// DecodeRecord decodes b into the zero record fields describes. Like
// DecodeValueInPlace it is for a buffer nothing writes again: a byte string
// making up at least half of b aliases it.
func DecodeRecord(b []byte, fields func(*Codec)) error {
	if err := RecordForm(b); err != nil {
		return err
	}
	c := codecs.Get().(*Codec)
	c.op, c.r = opDecode, Reader{buf: b, shareFrom: (len(b) + 1) / 2}
	c.record(fields)
	if c.err == nil && !c.r.Done() {
		c.err = fmt.Errorf("%w: %d trailing bytes after record", ErrCodec, c.r.Remaining())
	}
	err := c.err
	putCodec(c, c.w.buf)
	return err
}

// record walks one record. Its count is one byte, patched once the fields
// are written: records have fewer than 128 fields.
func (c *Codec) record(fields func(*Codec)) {
	outer, at := c.left, len(c.w.buf)
	c.left = 0
	c.depth++
	if c.op == opEncode {
		c.w.buf = append(c.w.buf, tagList, 0)
	} else if c.err == nil {
		var tag byte
		if tag, c.err = c.r.Byte(); c.err == nil && tag != tagList {
			c.err = ErrNotRecord
		} else if c.err == nil {
			c.left, c.err = c.r.Count()
		}
	}
	fields(c)
	for ; c.op == opDecode && c.left > 0 && c.err == nil; c.left-- {
		_, c.err = getValueDepth(&c.r, c.depth)
	}
	if c.op == opEncode {
		c.w.buf[at+1] = byte(c.left)
	}
	c.left = outer
	c.depth--
}

// walkField is a field of a composite or open kind: the encode walk writes
// v; decoding returns the next element, which must be of kind k, and false
// when the element is absent or null. (v never flows to the result, or the
// record it came from would escape.) The scalar fields below read and
// write their payload directly instead.
func (c *Codec) walkField(name string, v value.Value, k value.Kind) (value.Value, bool) {
	if c.op == opEncode {
		c.left++
		PutValue(&c.w, v)
		return value.Null, false
	}
	tag, ok := c.next()
	if !ok {
		return value.Null, false
	}
	got, err := getTagged(&c.r, tag, c.depth)
	if c.err = err; err == nil && k != kindAny && got.Kind() != k {
		c.err = fmt.Errorf("%w: %s is not a %s", core.ErrArity, name, k)
	}
	return got, c.err == nil
}

const kindAny = value.Kind(255)

// next reads the tag of the next element to decode; false when the
// element is absent or null, or decoding has failed.
func (c *Codec) next() (byte, bool) {
	if c.err != nil || c.left == 0 {
		return 0, false
	}
	c.left--
	tag, err := c.r.Byte()
	c.err = err
	return tag, err == nil && tag != tagNull
}

// put writes the tag of a scalar field, whose caller writes its payload.
func (c *Codec) put(tag byte) {
	c.left++
	c.w.Byte(tag)
}

// want reads the next element for a scalar field of kind k, tagged tag:
// false when it is absent or null, or decoding has failed; an element of
// another kind fails the decode.
func (c *Codec) want(name string, tag byte, k value.Kind) bool {
	got, ok := c.next()
	if ok && got != tag {
		c.err = fmt.Errorf("%w: %s is not a %s", core.ErrArity, name, k)
		return false
	}
	return ok
}

// Str is a string field.
func (c *Codec) Str(name string, p *string) {
	if c.op == opEncode {
		c.put(tagString)
		c.w.String(*p)
	} else if c.want(name, tagString, value.KindString) {
		*p, c.err = c.r.String()
	}
}

// Bytes is a byte-string field.
func (c *Codec) Bytes(name string, p *[]byte) {
	if v, ok := c.walkField(name, value.NewBytes(*p), value.KindBytes); ok {
		*p, _ = v.Bytes()
	}
}

// Int is an integer field.
func (c *Codec) Int(name string, p *int64) {
	if c.op == opEncode {
		c.put(tagInt)
		c.w.Varint(*p)
	} else if c.want(name, tagInt, value.KindInt) {
		*p, c.err = c.r.Varint()
	}
}

// Bool is a boolean field: its tag is its value.
func (c *Codec) Bool(name string, p *bool) {
	if c.op == opEncode {
		tag := byte(tagFalse)
		if *p {
			tag = tagTrue
		}
		c.put(tag)
	} else if tag, ok := c.next(); ok {
		if tag != tagFalse && tag != tagTrue {
			c.err = fmt.Errorf("%w: %s is not a %s", core.ErrArity, name, value.KindBool)
		}
		*p = tag == tagTrue
	}
}

// Values is a list of values.
func (c *Codec) Values(name string, p *[]value.Value) {
	if v, ok := c.walkField(name, value.NewList(*p), value.KindList); ok {
		*p, _ = v.List()
	}
}

// Value is a field of any kind.
func (c *Codec) Value(name string, p *value.Value) {
	if v, ok := c.walkField(name, *p, kindAny); ok {
		*p = v
	}
}

// ID is an object identity, sent as its 16 bytes and read without a copy
// of its own.
func (c *Codec) ID(name string, p *naming.ID) {
	if c.op == opEncode {
		c.put(tagBytes)
		c.w.BytesField(p[:])
	} else if tag, ok := c.next(); ok {
		var b []byte
		if tag == tagBytes {
			b, c.err = c.r.span()
		}
		if c.err == nil && len(b) != len(p) {
			c.err = fmt.Errorf("%w: %s is not a %d-byte id", core.ErrArity, name, len(p))
		}
		copy(p[:], b)
	}
}

// List is a list of sub-records, each described by fields.
func List[T any](c *Codec, name string, p *[]T, fields func(*Codec, *T)) {
	n := len(*p)
	if c.op == opEncode {
		c.put(tagList)
		c.w.Uvarint(uint64(n))
	} else {
		n = 0
		if tag, ok := c.next(); ok && tag != tagList {
			c.err = fmt.Errorf("%w: %s is not a list", core.ErrArity, name)
		} else if ok {
			n, c.err = c.r.Count()
		}
		*p = make([]T, 0, min(n, 64))
	}
	for i := 0; i < n && c.err == nil; i++ {
		if c.op == opDecode {
			var zero T
			*p = append(*p, zero)
		}
		c.record(func(c *Codec) { fields(c, &(*p)[i]) })
	}
}
