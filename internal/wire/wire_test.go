package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/value"
)

func TestValueRoundTripTable(t *testing.T) {
	now := time.Date(2026, 7, 5, 1, 2, 3, 4000, time.UTC)
	vals := []value.Value{
		value.Null,
		value.True,
		value.False,
		value.NewInt(0),
		value.NewInt(-1 << 62),
		value.NewInt(1<<62 + 12345),
		value.NewFloat(3.25),
		value.NewFloat(-0.0),
		value.NewString(""),
		value.NewString("héllo\x00world"),
		value.NewBytes([]byte{0, 1, 2, 255}),
		value.NewBytes(nil),
		value.NewListOf(),
		value.NewListOf(value.NewInt(1), value.NewString("two"), value.NewListOf(value.True)),
		value.NewMap(map[string]value.Value{}),
		value.NewMap(map[string]value.Value{
			"a": value.NewInt(1),
			"b": value.NewMap(map[string]value.Value{"c": value.Null}),
		}),
		value.NewRef("00000000-000000000000-0000-00000000"),
		value.NewTime(now),
	}
	for _, v := range vals {
		enc := EncodeValue(v)
		got, err := DecodeValue(enc)
		if err != nil {
			t.Errorf("DecodeValue(%s %s): %v", v.Kind(), v, err)
			continue
		}
		if !got.Equal(v) {
			t.Errorf("round trip %s: got %s, want %s", v.Kind(), got, v)
		}
	}
}

func TestEncodingIsDeterministic(t *testing.T) {
	v := value.NewMap(map[string]value.Value{
		"z": value.NewInt(1), "a": value.NewInt(2), "m": value.NewInt(3),
	})
	e1 := EncodeValue(v)
	e2 := EncodeValue(v)
	if !bytes.Equal(e1, e2) {
		t.Error("same value encoded differently")
	}
}

// randomValue mirrors the generator in the value package tests.
func randomValue(r *rand.Rand, depth int) value.Value {
	k := r.Intn(10)
	if depth <= 0 && (k == 6 || k == 7) {
		k = r.Intn(6)
	}
	switch k {
	case 0:
		return value.Null
	case 1:
		return value.NewBool(r.Intn(2) == 0)
	case 2:
		return value.NewInt(r.Int63() - r.Int63())
	case 3:
		return value.NewFloat(r.NormFloat64() * 1e9)
	case 4:
		return value.NewString(randString(r))
	case 5:
		b := make([]byte, r.Intn(32))
		r.Read(b)
		return value.NewBytes(b)
	case 6:
		n := r.Intn(5)
		l := make([]value.Value, n)
		for i := range l {
			l[i] = randomValue(r, depth-1)
		}
		return value.NewList(l)
	case 7:
		n := r.Intn(5)
		m := make(map[string]value.Value, n)
		for i := 0; i < n; i++ {
			m[randString(r)] = randomValue(r, depth-1)
		}
		return value.NewMap(m)
	case 8:
		return value.NewRef(randString(r))
	default:
		return value.NewTime(time.Unix(r.Int63n(1e9), r.Int63n(1e9)).UTC())
	}
}

func randString(r *rand.Rand) string {
	n := r.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return string(b)
}

// Property: every value round-trips bit-exactly.
func TestPropValueRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 4)
		got, err := DecodeValue(EncodeValue(v))
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: decoders never panic on corrupt input and either fail cleanly
// or decode something (truncation/bit flips of valid encodings).
func TestPropDecodeRobustness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		enc := EncodeValue(randomValue(r, 4))
		// Random truncation.
		if len(enc) > 0 {
			cut := enc[:r.Intn(len(enc))]
			_, _ = DecodeValue(cut)
			// Random corruption.
			mut := make([]byte, len(enc))
			copy(mut, enc)
			mut[r.Intn(len(mut))] ^= byte(1 + r.Intn(255))
			_, _ = DecodeValue(mut)
		}
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeValueErrors(t *testing.T) {
	cases := [][]byte{
		{},                  // empty
		{99},                // unknown tag
		{tagInt},            // truncated varint
		{tagString, 5, 'a'}, // short string
		{tagFloat, 1, 2},    // short float
		append([]byte{tagString}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), // oversized blob
	}
	for _, c := range cases {
		if _, err := DecodeValue(c); !errors.Is(err, ErrCodec) {
			t.Errorf("DecodeValue(% x): %v", c, err)
		}
	}
	// Trailing bytes rejected.
	enc := append(EncodeValue(value.NewInt(1)), 0)
	if _, err := DecodeValue(enc); !errors.Is(err, ErrCodec) {
		t.Errorf("trailing bytes: %v", err)
	}
	// Deep nesting rejected.
	var w Writer
	for i := 0; i < MaxDepth+2; i++ {
		w.Byte(tagList)
		w.Uvarint(1)
	}
	w.Byte(tagNull)
	if _, err := DecodeValue(w.Bytes()); !errors.Is(err, ErrCodec) {
		t.Errorf("deep nesting: %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameRequest, RequestID: 1, Verb: "invoke", Payload: []byte("payload")},
		{Type: FrameResponse, RequestID: 1 << 60, Verb: "", Payload: nil},
		{Type: FrameError, RequestID: 7, Verb: "export", Payload: []byte{0}},
		{Type: FramePing, RequestID: 0, Verb: "", Payload: []byte{}},
	}
	var enc []byte
	for _, f := range frames {
		var err error
		if enc, err = AppendFrame(enc, f); err != nil {
			t.Fatal(err)
		}
	}
	buf := bytes.NewReader(enc)
	for _, want := range frames {
		got, err := ReadFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.RequestID != want.RequestID || got.Verb != want.Verb {
			t.Errorf("frame = %+v, want %+v", got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) && len(got.Payload)+len(want.Payload) > 0 {
			t.Errorf("payload = % x, want % x", got.Payload, want.Payload)
		}
	}
}

func TestFrameErrors(t *testing.T) {
	// Oversized frame rejected on write.
	big := Frame{Type: FrameRequest, Payload: make([]byte, MaxFrame)}
	if enc, err := AppendFrame([]byte{7}, big); !errors.Is(err, ErrCodec) || len(enc) != 1 {
		t.Errorf("oversized write: %v, %d bytes kept", err, len(enc))
	}
	// Oversized length prefix rejected on read.
	var hdr bytes.Buffer
	hdr.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&hdr); !errors.Is(err, ErrCodec) {
		t.Errorf("oversized read: %v", err)
	}
	// Truncated body.
	var tr bytes.Buffer
	tr.Write([]byte{0, 0, 0, 10, 1, 2})
	if _, err := ReadFrame(&tr); err == nil {
		t.Error("truncated body accepted")
	}
	// Trailing junk inside the frame body.
	var w Writer
	w.Byte(byte(FramePing))
	w.Uvarint(0)
	w.String("")
	w.BytesField(nil)
	w.Byte(0xEE)
	var framed bytes.Buffer
	framed.Write([]byte{0, 0, 0, byte(len(w.Bytes()))})
	framed.Write(w.Bytes())
	if _, err := ReadFrame(&framed); !errors.Is(err, ErrCodec) {
		t.Errorf("trailing junk: %v", err)
	}
	if !strings.Contains(FrameRequest.String(), "request") || FrameType(99).String() == "" {
		t.Error("FrameType.String wrong")
	}
}

func TestReaderPrimitivesErrors(t *testing.T) {
	r := NewReader(nil)
	if _, err := r.Byte(); err == nil {
		t.Error("Byte on empty")
	}
	if _, err := r.Uvarint(); err == nil {
		t.Error("Uvarint on empty")
	}
	if _, err := r.Varint(); err == nil {
		t.Error("Varint on empty")
	}
	if _, err := r.Float(); err == nil {
		t.Error("Float on empty")
	}
	var w Writer
	w.Uvarint(MaxElems + 1)
	if _, err := NewReader(w.Bytes()).Count(); !errors.Is(err, ErrCodec) {
		t.Error("Count over limit")
	}
}
