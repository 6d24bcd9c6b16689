package wire

// Golden vector for the object-image codec and the core serialize path.
// image_golden.json pins the image as a record (imageFields), recaptured
// with -update when the image became one; it also pins the full
// FromImage → Snapshot → EncodeImage round trip. image_v1.hex holds the
// same image in the format from before records, which every decoder must
// refuse (TestDecodeImageRejectsGarbage).

import (
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/security"
	"repro/internal/value"
)

// goldenImage handcrafts a deterministic object image: a fixed parsed ID
// (generator-minted IDs embed wall time), script bodies only (native
// bodies need a registry and add nothing to codec coverage), items of
// every value kind, ACLs on items and meta, and two invoke levels.
func goldenImage(t *testing.T) core.Image {
	t.Helper()
	id, err := naming.ParseID("00000001-000000000002-0003-00000004")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := naming.ParseID("0000000a-00000000000b-000c-0000000d")
	if err != nil {
		t.Fatal(err)
	}
	acl := []core.ACLEntryImage{
		{Allow: true, Object: peer, Action: security.ActionInvoke},
		{Allow: false, Domain: "wild", Action: security.ActionMeta},
		{Allow: true, Domain: "home"},
	}
	return core.Image{
		ID:         id,
		Class:      "GoldenAgent",
		Domain:     "home",
		MetaHidden: true,
		MetaACL:    acl[:1],
		FixedData: []core.DataItemImage{
			{Name: "balance", Value: value.NewInt(1234), DynKind: value.KindInt, Visible: true},
			{Name: "ratio", Value: value.NewFloat(0.625), Visible: true, ACL: acl},
			{Name: "tag", Value: value.NewString("héllo ✓"), Visible: false},
		},
		ExtData: []core.DataItemImage{
			{Name: "blob", Value: value.NewBytes([]byte{0, 1, 0xff}), Visible: true},
			{Name: "peers", Value: value.NewListOf(
				value.NewRef("a@x"), value.NewMap(map[string]value.Value{"n": value.Null}),
			), Visible: true},
			{Name: "seen", Value: value.NewTime(time.Unix(1_600_000_000, 42).UTC()), Visible: true},
		},
		FixedMethods: []core.MethodImage{
			{
				Name:    "work",
				Body:    core.BodyDescriptor{Kind: core.BodyScript, Source: "fn(x) { return x + 1; }"},
				Pre:     core.BodyDescriptor{Kind: core.BodyScript, Source: "fn(x) { return x; }"},
				Visible: true,
				ACL:     acl[2:],
			},
		},
		ExtMethods: []core.MethodImage{
			{
				Name:    "audit",
				Body:    core.BodyDescriptor{Kind: core.BodyScript, Source: "fn() { return self.getData(\"balance\"); }"},
				Post:    core.BodyDescriptor{Kind: core.BodyScript, Source: "fn(r) { return r; }"},
				Visible: false,
			},
		},
		InvokeLevels: []core.MethodImage{
			{
				Name:    "invoke",
				Body:    core.BodyDescriptor{Kind: core.BodyScript, Source: "fn(name, args) { return self.invokeNext(name, args); }"},
				Visible: true,
			},
			{
				Name:    "invoke",
				Body:    core.BodyDescriptor{Kind: core.BodyScript, Source: "fn(name, args) { return self.invokeNext(name, args); }"},
				Visible: true,
				ACL:     acl[:1],
			},
		},
	}
}

type imageGolden struct {
	Wire string `json:"wire"`
	// Snapshot of the materialized object re-encoded: script bodies are
	// re-rendered from the parsed AST, so these bytes are the normalized
	// form — stable, but not identical to the handcrafted sources above.
	SnapshotWire string `json:"snapshotWire"`
}

func snapshotWire(t *testing.T, enc []byte) string {
	t.Helper()
	dec, err := DecodeImage(enc)
	if err != nil {
		t.Fatalf("DecodeImage: %v", err)
	}
	obj, err := core.FromImage(dec, core.NewBehaviorRegistry())
	if err != nil {
		t.Fatalf("FromImage: %v", err)
	}
	snap, err := obj.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return hex.EncodeToString(EncodeImage(snap))
}

// TestImageGoldenVector locks EncodeImage output for the handcrafted
// image, checks DecodeImage rebuilds it to a byte-identical re-encoding,
// and drives the core serialize path: materialize the image into a live
// Object, Snapshot it, and require the snapshot to encode to the same
// golden bytes.
func TestImageGoldenVector(t *testing.T) {
	img := goldenImage(t)
	if *updateGolden {
		enc := EncodeImage(img)
		writeGolden(t, "image_golden.json", imageGolden{
			Wire:         hex.EncodeToString(enc),
			SnapshotWire: snapshotWire(t, enc),
		})
		return
	}
	var g imageGolden
	readGolden(t, "image_golden.json", &g)

	enc := EncodeImage(img)
	if got := hex.EncodeToString(enc); got != g.Wire {
		t.Errorf("EncodeImage drifted:\n got %s\nwant %s", got, g.Wire)
	}

	want, err := hex.DecodeString(g.Wire)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeImage(want)
	if err != nil {
		t.Fatalf("DecodeImage(golden): %v", err)
	}
	if got := hex.EncodeToString(EncodeImage(dec)); got != g.Wire {
		t.Errorf("decode→re-encode drifted:\n got %s", got)
	}

	// Core serialize path: image → live object → snapshot → stable bytes.
	if got := snapshotWire(t, want); got != g.SnapshotWire {
		t.Errorf("FromImage→Snapshot→EncodeImage drifted:\n got %s\nwant %s", got, g.SnapshotWire)
	}
}
