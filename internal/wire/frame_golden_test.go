package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// The frame layout is a wire contract between sites: header (u32 length),
// type byte, request id (uvarint), verb (string), chain (string, empty
// when the caller runs on no serialized call chain), payload (bytes).
// These vectors pin the exact bytes so an accidental reorder or width
// change fails loudly instead of silently breaking cross-version sites.
var frameGolden = []struct {
	name  string
	frame Frame
	hex   string
}{
	{
		name: "request with chain",
		frame: Frame{
			Type:      FrameRequest,
			RequestID: 7,
			Verb:      "hadas.invoke",
			Chain:     "siteA:42",
			Payload:   []byte{0x01, 0x02},
		},
		hex: "0000001b" + "01" + "07" +
			"0c" + "68616461732e696e766f6b65" + // "hadas.invoke"
			"08" + "73697465413a3432" + // "siteA:42"
			"02" + "0102",
	},
	{
		name: "response without chain",
		frame: Frame{
			Type:      FrameResponse,
			RequestID: 1,
			Verb:      "v",
			Payload:   nil,
		},
		hex: "00000006" + "02" + "01" + "01" + "76" + "00" + "00",
	},
	{
		name: "probe verb request",
		frame: Frame{
			Type:      FrameRequest,
			RequestID: 300,
			Verb:      "hadas.deadlock.probe",
			Chain:     "",
			Payload:   []byte("p"),
		},
		hex: "0000001b" + "01" + "ac02" +
			"14" + "68616461732e646561646c6f636b2e70726f6265" + // verb
			"00" + "01" + "70",
	},
	// ---- streaming extension (protocol v2) ----
	{
		name: "stream chunk",
		frame: Frame{
			Type:      FrameChunk,
			RequestID: 9,
			Payload:   []byte{0xde, 0xad, 0xbe, 0xef},
		},
		hex: "00000009" + "06" + "09" + "00" + "00" + "04" + "deadbeef",
	},
	{
		name: "stream end closing a request stream",
		frame: Frame{
			Type:      FrameStreamEnd,
			RequestID: 9,
			Verb:      "hadas.dispatch",
			Chain:     "siteA:1",
		},
		hex: "0000001a" + "07" + "09" +
			"0e" + "68616461732e6469737061746368" + // "hadas.dispatch"
			"07" + "73697465413a31" + // "siteA:1"
			"00",
	},
	{
		name: "credit grant",
		frame: Frame{
			Type:      FrameCredit,
			RequestID: 9,
			Payload:   []byte{0x80, 0x80, 0x04}, // uvarint(65536)
		},
		hex: "00000008" + "08" + "09" + "00" + "00" + "03" + "808004",
	},
	{
		name: "cancel",
		frame: Frame{
			Type:      FrameCancel,
			RequestID: 9,
		},
		hex: "00000005" + "09" + "09" + "00" + "00" + "00",
	},
	{
		name: "stream begin announcing 512 KiB",
		frame: Frame{
			Type:      FrameStreamBegin,
			RequestID: 9,
			Payload:   []byte{0x80, 0x80, 0x20}, // uvarint(524288)
		},
		hex: "00000008" + "0a" + "09" + "00" + "00" + "03" + "808020",
	},
}

func TestFrameGoldenVectors(t *testing.T) {
	for _, g := range frameGolden {
		enc, err := AppendFrame(nil, g.frame)
		if err != nil {
			t.Fatalf("%s: write: %v", g.name, err)
		}
		if got := hex.EncodeToString(enc); got != g.hex {
			t.Errorf("%s: encoding drifted\n got  %s\n want %s", g.name, got, g.hex)
		}
		raw, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: bad vector: %v", g.name, err)
		}
		f, err := ReadFrame(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: read: %v", g.name, err)
		}
		if f.Type != g.frame.Type || f.RequestID != g.frame.RequestID ||
			f.Verb != g.frame.Verb || f.Chain != g.frame.Chain ||
			!bytes.Equal(f.Payload, g.frame.Payload) {
			t.Errorf("%s: round trip = %+v, want %+v", g.name, f, g.frame)
		}
	}
}
