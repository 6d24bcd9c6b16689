package wire

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/value"
)

// Value wire tags mirror value.Kind but are pinned independently so the
// in-memory enum can evolve without breaking the format.
const (
	tagNull   = 0
	tagFalse  = 1
	tagTrue   = 2
	tagInt    = 3
	tagFloat  = 4
	tagString = 5
	tagBytes  = 6
	tagList   = 7
	tagMap    = 8
	tagRef    = 9
	tagTime   = 10
)

// PutValue appends the encoding of v.
func PutValue(w *Writer, v value.Value) {
	switch v.Kind() {
	case value.KindNull:
		w.Byte(tagNull)
	case value.KindBool:
		b, _ := v.Bool()
		if b {
			w.Byte(tagTrue)
		} else {
			w.Byte(tagFalse)
		}
	case value.KindInt:
		i, _ := v.Int()
		w.Byte(tagInt)
		w.Varint(i)
	case value.KindFloat:
		f, _ := v.Float()
		w.Byte(tagFloat)
		w.Float(f)
	case value.KindString:
		s, _ := v.Str()
		w.Byte(tagString)
		w.String(s)
	case value.KindBytes:
		b, _ := v.Bytes()
		w.Byte(tagBytes)
		w.BytesField(b)
	case value.KindList:
		l, _ := v.List()
		w.Byte(tagList)
		w.Uvarint(uint64(len(l)))
		for _, e := range l {
			PutValue(w, e)
		}
	case value.KindMap:
		m, _ := v.Map()
		w.Byte(tagMap)
		w.Uvarint(uint64(len(m)))
		var stack [16]string // the keys of most maps, sorted without a heap slice
		keys := stack[:0]
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys) // deterministic encoding
		for _, k := range keys {
			w.String(k)
			PutValue(w, m[k])
		}
	case value.KindRef:
		r, _ := v.Ref()
		w.Byte(tagRef)
		w.String(r)
	case value.KindTime:
		t, _ := v.Time()
		w.Byte(tagTime)
		w.Varint(t.UnixNano())
	default:
		// Unreachable for well-formed values; encode as null rather than
		// corrupting the stream.
		w.Byte(tagNull)
	}
}

// GetValue decodes one value.
func GetValue(r *Reader) (value.Value, error) {
	return getValueDepth(r, 0)
}

func getValueDepth(r *Reader, depth int) (value.Value, error) {
	if depth > MaxDepth {
		return value.Null, fmt.Errorf("%w: value nesting exceeds %d", ErrCodec, MaxDepth)
	}
	tag, err := r.Byte()
	if err != nil {
		return value.Null, err
	}
	return getTagged(r, tag, depth)
}

// getTagged decodes the rest of a value whose tag byte has been read.
func getTagged(r *Reader, tag byte, depth int) (value.Value, error) {
	switch tag {
	case tagNull:
		return value.Null, nil
	case tagFalse:
		return value.False, nil
	case tagTrue:
		return value.True, nil
	case tagInt:
		i, err := r.Varint()
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(i), nil
	case tagFloat:
		f, err := r.Float()
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(f), nil
	case tagString:
		s, err := r.String()
		if err != nil {
			return value.Null, err
		}
		return value.NewString(s), nil
	case tagBytes:
		b, err := r.BytesField()
		if err != nil {
			return value.Null, err
		}
		return value.NewBytes(b), nil
	case tagList:
		n, err := r.Count()
		if err != nil {
			return value.Null, err
		}
		out := make([]value.Value, 0, min(n, 1024))
		for i := 0; i < n; i++ {
			e, err := getValueDepth(r, depth+1)
			if err != nil {
				return value.Null, err
			}
			out = append(out, e)
		}
		return value.NewList(out), nil
	case tagMap:
		n, err := r.Count()
		if err != nil {
			return value.Null, err
		}
		out := make(map[string]value.Value, min(n, 1024))
		for i := 0; i < n; i++ {
			k, err := r.String()
			if err != nil {
				return value.Null, err
			}
			e, err := getValueDepth(r, depth+1)
			if err != nil {
				return value.Null, err
			}
			out[k] = e
		}
		return value.NewMap(out), nil
	case tagRef:
		s, err := r.String()
		if err != nil {
			return value.Null, err
		}
		return value.NewRef(s), nil
	case tagTime:
		ns, err := r.Varint()
		if err != nil {
			return value.Null, err
		}
		return value.NewTime(time.Unix(0, ns).UTC()), nil
	default:
		return value.Null, fmt.Errorf("%w: unknown value tag %d", ErrCodec, tag)
	}
}

// EncodeValue returns a fresh encoding of v, in a buffer of its own,
// allocated once and exactly sized.
func EncodeValue(v value.Value) []byte {
	c := codecs.Get().(*Codec)
	PutValue(&c.w, v)
	return c.exact()
}

// DecodeValue decodes a value and requires full consumption of the input.
// The result shares no memory with b.
func DecodeValue(b []byte) (value.Value, error) {
	return decodeValue(NewReader(b))
}

// DecodeValueInPlace is DecodeValue for a buffer the caller owns and will
// never write again (a received frame payload or stream assembly): a byte
// string that makes up at least half of b aliases it instead of being
// copied. The half bounds what keeping such a value alive can pin to twice
// its own size; every smaller byte string, and every string, is a copy.
func DecodeValueInPlace(b []byte) (value.Value, error) {
	r := NewReader(b)
	r.shareFrom = (len(b) + 1) / 2
	return decodeValue(r)
}

func decodeValue(r *Reader) (value.Value, error) {
	v, err := GetValue(r)
	if err != nil {
		return value.Null, err
	}
	if !r.Done() {
		return value.Null, fmt.Errorf("%w: %d trailing bytes after value", ErrCodec, r.Remaining())
	}
	return v, nil
}
