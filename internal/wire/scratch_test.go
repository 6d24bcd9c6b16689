package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/value"
)

// EncodeRecord and EncodeValue write into a pooled Codec's scratch and
// copy the result out. These tests pin that a result never shares memory
// with that scratch, that a huge scratch is not kept, and that concurrent
// encoders each write their own.

func tinyRecord(c *Codec) {
	n := int64(7)
	c.Int("n", &n)
}

// scribblePooledScratch overwrites the whole scratch of the Codecs the
// pool hands out next, as a later encode into them would.
func scribblePooledScratch() {
	var cs []*Codec
	for range 4 {
		c := codecs.Get().(*Codec)
		scratch := c.w.buf[:cap(c.w.buf)]
		for i := range scratch {
			scratch[i] = 0xEE
		}
		c.w.buf = scratch
		cs = append(cs, c)
	}
	for _, c := range cs {
		putCodec(c, c.w.buf)
	}
}

func TestEncodeResultsOwnTheirBytes(t *testing.T) {
	img := goldenImage(t)
	long := EncodeImage(img)
	short := EncodeRecord(tinyRecord)
	val := EncodeValue(value.NewString("short"))
	wantLong, wantShort, wantVal := bytes.Clone(long), bytes.Clone(short), bytes.Clone(val)

	img.Class = "Overwritten"
	EncodeImage(img) // writes the scratch the first encode wrote
	scribblePooledScratch()

	for _, r := range []struct {
		name      string
		got, want []byte
	}{{"long record", long, wantLong}, {"short record", short, wantShort}, {"value", val, wantVal}} {
		if !bytes.Equal(r.got, r.want) {
			t.Errorf("%s changed after a later encode:\n got %x\nwant %x", r.name, r.got, r.want)
		}
		if cap(r.got) != len(r.got) {
			t.Errorf("%s: %d bytes in a buffer of %d", r.name, len(r.got), cap(r.got))
		}
	}
}

func TestHugeScratchIsNotPooled(t *testing.T) {
	big := value.NewBytes(make([]byte, maxScratch+1))
	if enc := EncodeValue(big); len(enc) <= maxScratch {
		t.Fatalf("encoded %d bytes, want more than %d", len(enc), maxScratch)
	}
	c := codecs.Get().(*Codec)
	defer putCodec(c, c.w.buf)
	if cap(c.w.buf) > maxScratch {
		t.Errorf("pool kept a scratch of %d bytes, past %d", cap(c.w.buf), maxScratch)
	}
}

func TestConcurrentEncodesMatchGolden(t *testing.T) {
	corpus := goldenCorpus()
	var values []goldenEntry
	readGolden(t, "value_golden.json", &values)
	var image imageGolden
	readGolden(t, "image_golden.json", &image)
	img := goldenImage(t)
	tiny := hex.EncodeToString(EncodeRecord(tinyRecord))

	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 20 {
				for i, c := range corpus {
					if got := hex.EncodeToString(EncodeValue(c.v)); got != values[i].Wire {
						t.Errorf("goroutine %d round %d: %s encoded %s, want %s", g, round, c.name, got, values[i].Wire)
						return
					}
				}
				if got := hex.EncodeToString(EncodeImage(img)); got != image.Wire {
					t.Errorf("goroutine %d round %d: image encoded %s", g, round, got)
					return
				}
				if got := hex.EncodeToString(EncodeRecord(tinyRecord)); got != tiny {
					t.Errorf("goroutine %d round %d: record encoded %s, want %s", g, round, got, tiny)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestWideMapKeysSorted: a map with more keys than the encoder's stack
// buffer holds still encodes its keys in ascending order.
func TestWideMapKeysSorted(t *testing.T) {
	m := make(map[string]value.Value)
	for i := range 40 {
		m[fmt.Sprintf("k%02d", 39-i)] = value.NewInt(int64(i))
	}
	r := NewReader(EncodeValue(value.NewMap(m)))
	if tag, err := r.Byte(); err != nil || tag != tagMap {
		t.Fatalf("tag %d, %v", tag, err)
	}
	n, err := r.Count()
	if err != nil || n != len(m) {
		t.Fatalf("count %d, %v", n, err)
	}
	keys := make([]string, n)
	for i := range keys {
		if keys[i], err = r.String(); err != nil {
			t.Fatal(err)
		}
		if _, err := GetValue(r); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.IsSorted(keys) || !r.Done() {
		t.Errorf("keys %v not sorted, or %d bytes left", keys, r.Remaining())
	}
}
