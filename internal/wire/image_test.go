package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/security"
	"repro/internal/value"
)

var gen = naming.NewGenerator("wire-test")

func sampleImage() core.Image {
	origin := gen.New()
	return core.Image{
		ID:         gen.New(),
		Class:      "Ambassador",
		Domain:     "origin.site",
		MetaHidden: true,
		MetaACL: []core.ACLEntryImage{
			{Allow: true, Object: origin, Action: security.ActionAny},
			{Allow: false},
		},
		FixedData: []core.DataItemImage{
			{Name: "origin", Value: value.NewString(origin.String()), Visible: true},
		},
		ExtData: []core.DataItemImage{
			{Name: "cache", Value: value.NewMap(map[string]value.Value{"k": value.NewInt(1)}), Visible: true},
			{Name: "hits", Value: value.NewInt(3), DynKind: value.KindInt, Visible: false,
				ACL: []core.ACLEntryImage{{Allow: true, Domain: "host.*", Action: security.ActionGet}}},
		},
		FixedMethods: []core.MethodImage{
			{Name: "query", Body: core.BodyDescriptor{Kind: core.BodyScript, Source: "fn(k) { return k; }"}, Visible: true},
		},
		ExtMethods: []core.MethodImage{
			{Name: "refresh",
				Body:    core.BodyDescriptor{Kind: core.BodyScript, Source: "fn() { return 1; }"},
				Pre:     core.BodyDescriptor{Kind: core.BodyScript, Source: "fn() { return true; }"},
				Post:    core.BodyDescriptor{Kind: core.BodyNative, Name: "app.check"},
				Visible: true},
		},
		InvokeLevels: []core.MethodImage{
			{Name: "invoke@1", Body: core.BodyDescriptor{Kind: core.BodyScript,
				Source: "fn(n, a) { return self.invokeNext(n, a); }"}, Visible: true},
		},
	}
}

func imagesEqual(a, b core.Image) bool {
	if a.ID != b.ID || a.Class != b.Class || a.Domain != b.Domain || a.MetaHidden != b.MetaHidden {
		return false
	}
	if len(a.MetaACL) != len(b.MetaACL) || len(a.FixedData) != len(b.FixedData) ||
		len(a.ExtData) != len(b.ExtData) || len(a.FixedMethods) != len(b.FixedMethods) ||
		len(a.ExtMethods) != len(b.ExtMethods) || len(a.InvokeLevels) != len(b.InvokeLevels) {
		return false
	}
	for i := range a.MetaACL {
		if a.MetaACL[i] != b.MetaACL[i] {
			return false
		}
	}
	for i := range a.ExtData {
		x, y := a.ExtData[i], b.ExtData[i]
		if x.Name != y.Name || x.DynKind != y.DynKind || x.Visible != y.Visible || !x.Value.Equal(y.Value) {
			return false
		}
		if len(x.ACL) != len(y.ACL) {
			return false
		}
		for j := range x.ACL {
			if x.ACL[j] != y.ACL[j] {
				return false
			}
		}
	}
	for i := range a.ExtMethods {
		if a.ExtMethods[i].Body != b.ExtMethods[i].Body ||
			a.ExtMethods[i].Pre != b.ExtMethods[i].Pre ||
			a.ExtMethods[i].Post != b.ExtMethods[i].Post {
			return false
		}
	}
	return true
}

func TestImageRoundTrip(t *testing.T) {
	img := sampleImage()
	enc := EncodeImage(img)
	got, err := DecodeImage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(img, got) {
		t.Errorf("image round trip mismatch:\n got %+v\nwant %+v", got, img)
	}
}

func TestImageEndToEndThroughCore(t *testing.T) {
	// Build a live object, snapshot, encode, decode, materialize, invoke.
	pol := security.NewPolicy()
	pol.SetDefault(security.Untrusted, security.Allow)
	b := core.NewBuilder(gen, "Traveler", core.WithPolicy(pol))
	b.ExtData("n", value.NewInt(20), core.WithDynKind(value.KindInt))
	b.FixedScriptMethod("grow", `fn(by) { self.n = self.n + by; return self.n; }`)
	obj := b.MustBuild()
	if _, err := obj.InvokeSelf("grow", value.NewInt(1)); err != nil {
		t.Fatal(err)
	}

	img, err := obj.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bytes := EncodeImage(img)
	img2, err := DecodeImage(bytes)
	if err != nil {
		t.Fatal(err)
	}
	re, err := core.FromImage(img2, nil, core.HostPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	v, err := re.InvokeSelf("grow", value.NewInt(21))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 42 {
		t.Errorf("grow after transit = %v", v)
	}
}

// legacyImage is the golden image in the format from before records (a
// magic and version byte ahead of hand-ordered fields), kept as the vector
// every reader of images must refuse.
func legacyImage(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "image_v1.hex"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDecodeImageRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{0xDE, 0xAD, 0xBE, 0xEF},
		EncodeValue(value.NewString("not an image")),
	}
	for _, c := range cases {
		if _, err := DecodeImage(c); !errors.Is(err, ErrCodec) {
			t.Errorf("DecodeImage(% x): %v", c, err)
		}
	}
	// The format from before records.
	if _, err := DecodeImage(legacyImage(t)); !errors.Is(err, ErrNotRecord) {
		t.Errorf("old-format image: %v, want ErrNotRecord", err)
	}
	// Truncations at every prefix must fail cleanly, never panic.
	img := sampleImage()
	enc := EncodeImage(img)
	for i := 0; i < len(enc)-1; i++ {
		if _, err := DecodeImage(enc[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	// Trailing bytes rejected.
	if _, err := DecodeImage(append(EncodeImage(img), 0)); !errors.Is(err, ErrCodec) {
		t.Errorf("trailing bytes: %v", err)
	}
	// A body of a kind this site does not know.
	img.ExtMethods[0].Post.Kind = 9
	if _, err := DecodeImage(EncodeImage(img)); !errors.Is(err, ErrCodec) {
		t.Errorf("unknown body kind: %v", err)
	}
}

// TestIDRoundTrip: an id field is its 16 bytes, and a byte string of
// another length in its place fails core.ErrArity.
func TestIDRoundTrip(t *testing.T) {
	id := gen.New()
	enc := EncodeRecord(func(c *Codec) { c.ID("id", &id) })
	var got naming.ID
	if err := DecodeRecord(enc, func(c *Codec) { c.ID("id", &got) }); err != nil || got != id {
		t.Errorf("id field = %v, %v", got, err)
	}
	short := []byte{1, 2}
	enc = EncodeRecord(func(c *Codec) { c.Bytes("id", &short) })
	if err := DecodeRecord(enc, func(c *Codec) { c.ID("id", &got) }); !errors.Is(err, core.ErrArity) {
		t.Errorf("short id: %v", err)
	}
}

// FuzzImage: DecodeImage refuses arbitrary bytes with ErrCodec or
// core.ErrArity, or returns an image whose re-encoding decodes back to the
// same bytes. It never panics.
func FuzzImage(f *testing.F) {
	f.Add(EncodeImage(sampleImage()))
	f.Add(legacyImage(f))
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		f.Add(EncodeImage(randomImage(r)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		img, err := DecodeImage(b)
		if err != nil {
			if !errors.Is(err, ErrCodec) && !errors.Is(err, core.ErrArity) {
				t.Fatalf("untyped refusal %v", err)
			}
			return
		}
		enc := EncodeImage(img)
		again, err := DecodeImage(enc)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if re := EncodeImage(again); !bytes.Equal(re, enc) {
			t.Fatalf("round trip drifted:\n%x\n%x", enc, re)
		}
	})
}

// randomImage builds an arbitrary (structurally valid) image.
func randomImage(r *rand.Rand) core.Image {
	randACL := func() []core.ACLEntryImage {
		n := r.Intn(3)
		out := make([]core.ACLEntryImage, n)
		for i := range out {
			out[i] = core.ACLEntryImage{
				Allow:  r.Intn(2) == 0,
				Object: gen.New(),
				Domain: randWord(r),
				Action: security.Action(r.Intn(5)),
			}
		}
		return out
	}
	randData := func(n int) []core.DataItemImage {
		out := make([]core.DataItemImage, n)
		for i := range out {
			out[i] = core.DataItemImage{
				Name:    fmt.Sprintf("d%d", i),
				Value:   randomValue(r, 3),
				DynKind: value.Kind(r.Intn(10)),
				Visible: r.Intn(2) == 0,
				ACL:     randACL(),
			}
		}
		return out
	}
	randMethods := func(n int) []core.MethodImage {
		out := make([]core.MethodImage, n)
		for i := range out {
			m := core.MethodImage{
				Name:    fmt.Sprintf("m%d", i),
				Body:    core.BodyDescriptor{Kind: core.BodyScript, Source: "fn() { return " + fmt.Sprint(r.Intn(100)) + "; }"},
				Visible: r.Intn(2) == 0,
				ACL:     randACL(),
			}
			if r.Intn(2) == 0 {
				m.Pre = core.BodyDescriptor{Kind: core.BodyNative, Name: randWord(r)}
			}
			if r.Intn(2) == 0 {
				m.Post = core.BodyDescriptor{Kind: core.BodyScript, Source: "fn() { return true; }"}
			}
			out[i] = m
		}
		return out
	}
	return core.Image{
		ID:           gen.New(),
		Class:        randWord(r),
		Domain:       randWord(r),
		MetaHidden:   r.Intn(2) == 0,
		MetaACL:      randACL(),
		FixedData:    randData(r.Intn(4)),
		ExtData:      randData(r.Intn(4)),
		FixedMethods: randMethods(r.Intn(3)),
		ExtMethods:   randMethods(r.Intn(3)),
		InvokeLevels: randMethods(r.Intn(2)),
	}
}

func randWord(r *rand.Rand) string {
	const chars = "abcdefghij.*"
	n := 1 + r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = chars[r.Intn(len(chars))]
	}
	return string(b)
}

// Property: random images round-trip the codec exactly, and truncations
// never panic.
func TestPropImageRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		img := randomImage(r)
		enc := EncodeImage(img)
		got, err := DecodeImage(enc)
		if err != nil {
			t.Logf("seed %d: decode: %v", seed, err)
			return false
		}
		if !imagesEqual(img, got) {
			t.Logf("seed %d: mismatch", seed)
			return false
		}
		// Truncations fail cleanly.
		cut := enc[:r.Intn(len(enc))]
		if _, err := DecodeImage(cut); err == nil && len(cut) < len(enc) {
			t.Logf("seed %d: truncation at %d decoded", seed, len(cut))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
