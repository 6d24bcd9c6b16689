package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"testing"
	"unsafe"

	"repro/internal/value"
)

// readFrameWholeBody is the frame parser ReadFrameInto replaced, kept as
// the reference the incremental one is fuzzed against: read the whole body
// the prefix declares, then parse it from memory.
func readFrameWholeBody(r io.Reader) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrCodec, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, fmt.Errorf("read frame body: %w", err)
	}
	rd := NewReader(body)
	tb, err := rd.Byte()
	if err != nil {
		return Frame{}, err
	}
	f := Frame{Type: FrameType(tb)}
	if f.RequestID, err = rd.Uvarint(); err != nil {
		return Frame{}, err
	}
	if f.Verb, err = rd.String(); err != nil {
		return Frame{}, err
	}
	if f.Chain, err = rd.String(); err != nil {
		return Frame{}, err
	}
	if f.Payload, err = rd.BytesField(); err != nil {
		return Frame{}, err
	}
	if !rd.Done() {
		return Frame{}, fmt.Errorf("%w: %d trailing bytes in frame", ErrCodec, rd.Remaining())
	}
	return f, nil
}

// typedFrameErr reports whether err is one a frame reader may return: a
// codec error, or the stream ending cleanly or mid-frame.
func typedFrameErr(err error) bool {
	return errors.Is(err, ErrCodec) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

func sameFrame(a, b Frame) bool {
	return a.Type == b.Type && a.RequestID == b.RequestID && a.Verb == b.Verb &&
		a.Chain == b.Chain && bytes.Equal(a.Payload, b.Payload)
}

// frameBytes wraps a hand-built body in its length prefix.
func frameBytes(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// FuzzReadFrame holds the incremental reader to the whole-body reference
// on arbitrary bytes: the same frame, or a typed error on both; never a
// panic; and never a payload buffer requested or a string built larger
// than the bytes the prefix declared.
func FuzzReadFrame(f *testing.F) {
	for _, g := range frameGolden {
		raw, err := hex.DecodeString(g.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-1])                        // stream ends inside the frame
		f.Add(append([]byte{0, 0}, raw...))            // misaligned prefix
		f.Add(append(raw[:len(raw):len(raw)], raw...)) // two frames back to back
	}
	f.Add(frameBytes([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0, 0, 0})) // id overflows
	f.Add(frameBytes([]byte{1, 1, 0x81, 0x80, 0x80, 0x08, 0, 0}))                                     // verb longer than MaxBlob
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                                                             // prefix over MaxFrame

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := readFrameWholeBody(bytes.NewReader(data))

		declared := -1
		if len(data) >= 4 {
			declared = int(binary.BigEndian.Uint32(data))
		}
		// The previous frame's verb: none, the same bytes (returned as
		// prev itself when the 16-byte buffer holds them), and the same
		// length differing in its last byte.
		prevs := []string{"", want.Verb}
		if n := len(want.Verb); n > 0 {
			prevs = append(prevs, want.Verb[:n-1]+string(want.Verb[n-1]^1))
		}
		for _, prev := range prevs {
			got, err := ReadFrameInto(bufio.NewReaderSize(bytes.NewReader(data), 16), prev, func(hdr Frame, n int) []byte {
				if n > declared || len(hdr.Verb)+len(hdr.Chain)+n > declared {
					t.Errorf("asked for %d payload bytes (verb %d, chain %d) in a frame of %d",
						n, len(hdr.Verb), len(hdr.Chain), declared)
				}
				return nil
			})
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("prev %q: incremental err = %v, reference err = %v", prev, err, wantErr)
			}
			if err != nil {
				if !typedFrameErr(err) || !typedFrameErr(wantErr) {
					t.Fatalf("untyped error: incremental %v, reference %v", err, wantErr)
				}
				return
			}
			if !sameFrame(got, want) {
				t.Fatalf("prev %q: incremental %+v, reference %+v", prev, got, want)
			}
			if prev == got.Verb && prev != "" && len(prev) <= 16 && unsafe.StringData(got.Verb) != unsafe.StringData(prev) {
				t.Fatalf("verb %q equal to the previous one was copied", got.Verb)
			}
			if len(got.Payload) != cap(got.Payload) {
				t.Fatalf("payload of %d bytes sits in a buffer of %d", len(got.Payload), cap(got.Payload))
			}
		}
	})
}

// TestReadFrameIntoPlacesPayload pins the placement hook: it sees the
// parsed header and the payload length, the payload lands in the buffer it
// returns, and a nil or short answer falls back to an exact allocation.
func TestReadFrameIntoPlacesPayload(t *testing.T) {
	in := Frame{Type: FrameChunk, RequestID: 9, Verb: "v", Chain: "c:1", Payload: []byte("0123456789")}
	raw, err := AppendFrame(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	room := make([]byte, 64)
	copy(room, "head")
	got, err := ReadFrameInto(bytes.NewReader(raw), "", func(hdr Frame, n int) []byte {
		if hdr.Type != in.Type || hdr.RequestID != in.RequestID || hdr.Verb != in.Verb ||
			hdr.Chain != in.Chain || hdr.Payload != nil || n != len(in.Payload) {
			t.Errorf("hook saw %+v, n=%d", hdr, n)
		}
		return room[4 : 4+n]
	})
	if err != nil || !sameFrame(got, in) {
		t.Fatalf("read = %+v, %v", got, err)
	}
	if string(room[:14]) != "head0123456789" || &got.Payload[0] != &room[4] {
		t.Errorf("payload not placed in the caller's buffer: %q", room[:14])
	}
	for name, place := range map[string]func(Frame, int) []byte{
		"nil":   func(Frame, int) []byte { return nil },
		"short": func(_ Frame, n int) []byte { return make([]byte, n-1) },
	} {
		got, err := ReadFrameInto(bytes.NewReader(raw), "", place)
		if err != nil || !sameFrame(got, in) || cap(got.Payload) != len(in.Payload) {
			t.Errorf("%s answer: frame %+v (cap %d), err %v", name, got, cap(got.Payload), err)
		}
	}
}

// TestReadFrameIntoChecksBeforePlacing pins the hostile-peer order: every
// header check runs before the hook is asked for (or the reader allocates)
// a payload buffer, and each failure is a typed ErrCodec.
func TestReadFrameIntoChecksBeforePlacing(t *testing.T) {
	hdr := []byte{byte(FrameChunk), 1, 0, 0} // type, id, no verb, no chain
	over := binary.AppendUvarint(append([]byte(nil), hdr...), MaxBlob+1)
	cases := map[string][]byte{
		"payload over MaxBlob":     frameBytes(over),
		"payload past the frame":   frameBytes(append(append([]byte(nil), hdr...), 5, 'a', 'b')),
		"trailing bytes":           frameBytes(append(append([]byte(nil), hdr...), 1, 'a', 'b')),
		"verb past the frame":      frameBytes([]byte{1, 1, 200, 'x'}),
		"uvarint overflow":         frameBytes([]byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 0, 0, 0}),
		"frame ends in the header": frameBytes([]byte{1, 0x80}),
		"empty frame":              frameBytes(nil),
	}
	for name, raw := range cases {
		_, err := ReadFrameInto(bytes.NewReader(raw), "", func(Frame, int) []byte {
			t.Errorf("%s: hook ran on a malformed frame", name)
			return nil
		})
		if !errors.Is(err, ErrCodec) {
			t.Errorf("%s: err = %v, want ErrCodec", name, err)
		}
	}
}

// TestReadFrameStreamEnds pins what a dying stream looks like: a bare
// io.EOF only between frames, io.ErrUnexpectedEOF anywhere inside one.
func TestReadFrameStreamEnds(t *testing.T) {
	raw, err := AppendFrame(nil, Frame{Type: FrameRequest, RequestID: 3, Verb: "verb", Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: err = %v, want bare io.EOF", err)
	}
	for cut := 1; cut < len(raw); cut++ {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestReadFrameBareReader pins the io.Reader case: a reader with no
// ReadByte is read without looking past the frame.
func TestReadFrameBareReader(t *testing.T) {
	var enc []byte
	want := []Frame{
		{Type: FrameRequest, RequestID: 1, Verb: "a", Payload: []byte("one")},
		{Type: FrameResponse, RequestID: 2, Chain: "s:9", Payload: []byte("two")},
	}
	for _, f := range want {
		var err error
		if enc, err = AppendFrame(enc, f); err != nil {
			t.Fatal(err)
		}
	}
	bare := struct{ io.Reader }{bytes.NewReader(enc)} // hides bytes.Reader's ReadByte
	for _, w := range want {
		got, err := ReadFrame(bare)
		if err != nil || !sameFrame(got, w) {
			t.Fatalf("read = %+v, %v; want %+v", got, err, w)
		}
	}
	if _, err := ReadFrame(bare); err != io.EOF {
		t.Errorf("after the last frame: err = %v, want io.EOF", err)
	}
}

// TestDecodeValueInPlaceAliasing pins the half-buffer rule: a byte string
// that is at least half of the decoded buffer aliases it, a smaller one is
// a copy that later writes to the buffer cannot reach, and strings are
// always copies.
func TestDecodeValueInPlaceAliasing(t *testing.T) {
	big, small := bytes.Repeat([]byte{0xB1}, 4096), bytes.Repeat([]byte{0x5A}, 1024)
	enc := EncodeValue(value.NewMap(map[string]value.Value{
		"big":   value.NewBytes(big),
		"small": value.NewBytes(small),
		"str":   value.NewString("keep me"),
	}))
	v, err := DecodeValueInPlace(enc)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := v.Map()
	gotBig, _ := m["big"].Bytes()
	gotSmall, _ := m["small"].Bytes()
	if len(gotBig) != cap(gotBig) {
		t.Errorf("aliased byte string has spare capacity %d: an append would write the buffer", cap(gotBig)-len(gotBig))
	}
	for i := range enc {
		enc[i] = 0 // the owner breaks its promise; only aliases can notice
	}
	if !bytes.Equal(gotBig, make([]byte, len(big))) {
		t.Error("byte string of more than half the buffer was copied, want an alias")
	}
	if !bytes.Equal(gotSmall, small) {
		t.Error("byte string of less than half the buffer aliases it, want a copy")
	}
	if s, _ := m["str"].Str(); s != "keep me" {
		t.Errorf("string aliases the buffer: %q", s)
	}

	// The copying decoder shares nothing, whatever the proportions.
	enc = EncodeValue(value.NewBytes(big))
	v, err = DecodeValue(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0
	}
	if b, _ := v.Bytes(); !bytes.Equal(b, big) {
		t.Error("DecodeValue aliased its input")
	}
}
