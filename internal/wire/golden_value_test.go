package wire

// Golden vectors for the value codec. The testdata files were captured
// from the pre-compaction struct layout of value.Value (the 120-byte
// tagged union); the tests assert that the current representation —
// whatever its in-memory shape — produces byte-identical wire encodings
// and decodes the captured bytes back to equal values. Run with
// -update to re-capture (only legitimate when the *format* changes, never
// for a representation change).

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/value"
)

var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// goldenEntry is one captured vector: the value is reconstructed from
// Wire.
type goldenEntry struct {
	Name string `json:"name"`
	Wire string `json:"wire"` // hex of the wire encoding
}

// goldenCorpus enumerates values covering every kind, the encoding edge
// cases (zero, negative, NaN, ±Inf, empty and nested composites), plus a
// deterministic pseudo-random deep-nesting sweep.
func goldenCorpus() []struct {
	name string
	v    value.Value
} {
	long := ""
	for i := 0; i < 300; i++ {
		long += "x"
	}
	out := []struct {
		name string
		v    value.Value
	}{
		{"null", value.Null},
		{"true", value.True},
		{"false", value.False},
		{"int-zero", value.NewInt(0)},
		{"int-small", value.NewInt(42)},
		{"int-neg", value.NewInt(-1234567)},
		{"int-max", value.NewInt(math.MaxInt64)},
		{"int-min", value.NewInt(math.MinInt64)},
		{"float-zero", value.NewFloat(0)},
		{"float-pi", value.NewFloat(3.141592653589793)},
		{"float-neg", value.NewFloat(-2.5e-3)},
		{"float-nan", value.NewFloat(math.NaN())},
		{"float-inf", value.NewFloat(math.Inf(1))},
		{"float-ninf", value.NewFloat(math.Inf(-1))},
		{"string-empty", value.NewString("")},
		{"string-ascii", value.NewString("hello, world")},
		{"string-utf8", value.NewString("héllo ✓ 世界")},
		{"string-long", value.NewString(long)},
		{"bytes-empty", value.NewBytes([]byte{})},
		{"bytes-short", value.NewBytes([]byte{0, 1, 2, 0xfe, 0xff})},
		{"list-empty", value.NewList(nil)},
		{"list-flat", value.NewListOf(value.NewInt(1), value.NewString("two"), value.NewFloat(3))},
		{"list-nested", value.NewListOf(
			value.NewListOf(value.NewInt(1), value.NewInt(2)),
			value.NewListOf(value.NewListOf(value.True)),
		)},
		{"map-empty", value.NewMap(nil)},
		{"map-flat", value.NewMap(map[string]value.Value{
			"a": value.NewInt(1), "b": value.NewString("s"), "z": value.Null,
		})},
		{"map-nested", value.NewMap(map[string]value.Value{
			"inner": value.NewMap(map[string]value.Value{"k": value.NewListOf(value.NewInt(7))}),
			"list":  value.NewListOf(value.NewMap(map[string]value.Value{"x": value.True})),
		})},
		{"ref", value.NewRef("payroll@origin")},
		{"ref-empty", value.NewRef("")},
		{"time-epoch", value.NewTime(time.Unix(0, 0).UTC())},
		{"time-ns", value.NewTime(time.Unix(1234567890, 987654321).UTC())},
		{"time-neg", value.NewTime(time.Unix(-1000, 500).UTC())},
	}
	rng := rand.New(rand.NewSource(0x5eed))
	for i := 0; i < 24; i++ {
		out = append(out, struct {
			name string
			v    value.Value
		}{fmt.Sprintf("rand-%02d", i), randValue(rng, 0)})
	}
	return out
}

// randValue builds a deterministic pseudo-random value, bounded at four
// levels of nesting.
func randValue(rng *rand.Rand, depth int) value.Value {
	max := 10
	if depth >= 4 {
		max = 7 // leaves only
	}
	switch rng.Intn(max) {
	case 0:
		return value.Null
	case 1:
		return value.NewBool(rng.Intn(2) == 0)
	case 2:
		return value.NewInt(rng.Int63() - rng.Int63())
	case 3:
		return value.NewFloat(rng.NormFloat64() * 1e6)
	case 4:
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return value.NewString(fmt.Sprintf("s%x", b))
	case 5:
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return value.NewBytes(b)
	case 6:
		return value.NewTime(time.Unix(rng.Int63n(1e9), rng.Int63n(1e9)).UTC())
	case 7:
		n := rng.Intn(5)
		elems := make([]value.Value, n)
		for i := range elems {
			elems[i] = randValue(rng, depth+1)
		}
		return value.NewList(elems)
	case 8:
		n := rng.Intn(5)
		m := make(map[string]value.Value, n)
		for i := 0; i < n; i++ {
			m[fmt.Sprintf("k%d", rng.Intn(100))] = randValue(rng, depth+1)
		}
		return value.NewMap(m)
	default:
		return value.NewRef(fmt.Sprintf("obj-%d@site", rng.Intn(1000)))
	}
}

func goldenPath(t testing.TB, name string) string {
	t.Helper()
	return filepath.Join("testdata", name)
}

func writeGolden(t *testing.T, name string, v any) {
	t.Helper()
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(t, name), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t testing.TB, name string, v any) {
	t.Helper()
	raw, err := os.ReadFile(goldenPath(t, name))
	if err != nil {
		t.Fatalf("missing golden file (run with -update to capture): %v", err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatal(err)
	}
}

// TestValueGoldenVectors locks the wire and JSON encodings of the corpus
// to the bytes captured from the original struct layout, and checks that
// decoding those bytes yields values equal to freshly-constructed ones —
// the representation-equivalence contract of the compact Value.
func TestValueGoldenVectors(t *testing.T) {
	corpus := goldenCorpus()
	if *updateGolden {
		var entries []goldenEntry
		for _, c := range corpus {
			entries = append(entries, goldenEntry{Name: c.name, Wire: hex.EncodeToString(EncodeValue(c.v))})
		}
		writeGolden(t, "value_golden.json", entries)
		t.Logf("captured %d vectors", len(entries))
		return
	}
	var entries []goldenEntry
	readGolden(t, "value_golden.json", &entries)
	if len(entries) != len(corpus) {
		t.Fatalf("golden has %d entries, corpus has %d", len(entries), len(corpus))
	}
	for i, c := range corpus {
		g := entries[i]
		if g.Name != c.name {
			t.Fatalf("entry %d: golden %q vs corpus %q", i, g.Name, c.name)
		}
		t.Run(c.name, func(t *testing.T) {
			enc := EncodeValue(c.v)
			if got := hex.EncodeToString(enc); got != g.Wire {
				t.Errorf("wire encoding drifted:\n got %s\nwant %s", got, g.Wire)
			}
			want, err := hex.DecodeString(g.Wire)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeValue(want)
			if err != nil {
				t.Fatalf("decode golden bytes: %v", err)
			}
			if !dec.Equal(c.v) {
				t.Errorf("decoded golden bytes != constructed value:\n got %v\nwant %v", dec, c.v)
			}
			// Decode→re-encode must be byte-stable too.
			if got := hex.EncodeToString(EncodeValue(dec)); got != g.Wire {
				t.Errorf("re-encode of decoded value drifted:\n got %s\nwant %s", got, g.Wire)
			}
		})
	}
}

// TestValueRoundTripProperty is the property-style sweep: a larger seeded
// random population (not stored as golden) must round-trip the wire codec
// to Equal values with stable re-encodings.
func TestValueRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for i := 0; i < 500; i++ {
		v := randValue(rng, 0)
		enc := EncodeValue(v)
		dec, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("#%d %v: decode: %v", i, v, err)
		}
		if !dec.Equal(v) {
			t.Fatalf("#%d: round trip lost equality:\n in %v\nout %v", i, v, dec)
		}
		if got, want := EncodeValue(dec), enc; string(got) != string(want) {
			t.Fatalf("#%d: re-encode not byte-stable", i)
		}
		if cap(enc) != len(enc) {
			t.Fatalf("#%d %v: encoder sized its buffer at %d for %d bytes", i, v, cap(enc), len(enc))
		}
		if inPlace, err := DecodeValueInPlace(enc); err != nil || !inPlace.Equal(v) {
			t.Fatalf("#%d: in-place decode = %v, %v; want %v", i, inPlace, err, v)
		}
	}
}

// FuzzValue feeds arbitrary bytes to both value decoders, seeded from the
// golden vectors and from a list nested one level deeper than MaxDepth.
// The decoders agree, or both refuse with ErrCodec; a decoded value
// re-encodes to bytes that decode Equal; and a byte string shorter than
// half the input never aliases it: scrambling the input after an in-place
// decode leaves every such string as the copying decoder read it.
func FuzzValue(f *testing.F) {
	var golden []goldenEntry
	readGolden(f, "value_golden.json", &golden)
	for _, g := range golden {
		raw, err := hex.DecodeString(g.Wire)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	deep := value.Null
	for range MaxDepth + 1 {
		deep = value.NewListOf(deep)
	}
	f.Add(EncodeValue(deep))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, err := DecodeValue(data)
		buf := bytes.Clone(data)
		got, inPlaceErr := DecodeValueInPlace(buf)
		if err != nil || inPlaceErr != nil {
			if !errors.Is(err, ErrCodec) || !errors.Is(inPlaceErr, ErrCodec) {
				t.Fatalf("decoders disagree, or refuse untyped: %v / %v", err, inPlaceErr)
			}
			return
		}
		if !got.Equal(want) {
			t.Fatalf("in place %v, copying %v", got, want)
		}
		if again, err := DecodeValue(EncodeValue(want)); err != nil || !again.Equal(want) {
			t.Fatalf("re-encoding decodes to %v, %v; want %v", again, err, want)
		}
		for i := range buf {
			buf[i] ^= 0xff
		}
		half := (len(data) + 1) / 2
		if !shortBytes(got, half).Equal(shortBytes(want, half)) {
			t.Fatalf("a byte string shorter than %d of the input's %d bytes aliases it", half, len(data))
		}
	})
}

// shortBytes is v with every byte string of n bytes or more, which an
// in-place decode may alias, replaced by null.
func shortBytes(v value.Value, n int) value.Value {
	switch v.Kind() {
	case value.KindBytes:
		if b, _ := v.Bytes(); len(b) >= n {
			return value.Null
		}
	case value.KindList:
		l, _ := v.List()
		out := make([]value.Value, len(l))
		for i, e := range l {
			out[i] = shortBytes(e, n)
		}
		return value.NewList(out)
	case value.KindMap:
		m, _ := v.Map()
		out := make(map[string]value.Value, len(m))
		for k, e := range m {
			out[k] = shortBytes(e, n)
		}
		return value.NewMap(out)
	}
	return v
}
