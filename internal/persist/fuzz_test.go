package persist

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// referenceReplay is replaySegment's specification, written over a whole
// buffer instead of a stream: the contents after every whole commit of
// raw, stopping at the first commit that is torn or invalid. A group
// counts only when its marker verifies and exactly count valid records
// fill exactly its byte count.
func referenceReplay(raw []byte) map[string][]byte {
	state := map[string][]byte{}
	apply := func(kind byte, key string, val []byte) {
		if kind == recPut {
			state[key] = val
		} else {
			delete(state, key)
		}
	}
	for len(raw) >= recHeaderLen {
		if raw[4] != recGroup {
			kind, key, val, n, err := parseRecord(raw)
			if err != nil {
				break
			}
			apply(kind, key, val)
			raw = raw[n:]
			continue
		}
		count := binary.BigEndian.Uint32(raw[5:9])
		end := recHeaderLen + int64(binary.BigEndian.Uint32(raw[9:13]))
		if crc32.ChecksumIEEE(raw[4:recHeaderLen]) != binary.BigEndian.Uint32(raw[0:4]) ||
			count == 0 || end > int64(len(raw)) {
			break
		}
		type rec struct {
			kind byte
			key  string
			val  []byte
		}
		var recs []rec
		body := raw[recHeaderLen:end]
		for len(body) > 0 && uint32(len(recs)) < count {
			kind, key, val, n, err := parseRecord(body)
			if err != nil {
				break
			}
			recs = append(recs, rec{kind, key, val})
			body = body[n:]
		}
		if len(body) != 0 || uint32(len(recs)) != count {
			break
		}
		for _, r := range recs {
			apply(r.kind, r.key, r.val)
		}
		raw = raw[end:]
	}
	return state
}

// FuzzWALReplay opens a store whose active segment is arbitrary bytes.
// Recovery never fails and never panics; what it recovers is exactly what
// the reference finds — in particular no part of a group that is not
// whole; it allocates within a bound set by the file's size, whatever
// lengths and counts the bytes claim; and the recovered store accepts
// writes and reopens to the same contents.
func FuzzWALReplay(f *testing.F) {
	dir := f.TempDir()
	ends, _ := writeCommits(f, dir, groupLog())
	log, err := os.ReadFile(lastSegment(f, dir))
	if err != nil {
		f.Fatal(err)
	}
	group := ends[len(ends)-3] // where the group's marker starts
	f.Add(log)
	f.Add(log[:group+recHeaderLen+20])
	f.Add(log[:ends[len(ends)-2]])
	flipped := append([]byte(nil), log...)
	flipped[ends[len(ends)-2]-1] ^= 1 // the group's last record
	f.Add(flipped)
	f.Add(log[group:]) // a log that starts with a marker
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := writeManifest(dir, []string{segName(1)}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := NewWALStore(dir)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("open over an arbitrary active segment: %v", err)
		}
		// The replay reader is 1 MiB; the rest is index entries and held
		// group records, a few dozen bytes per 13-byte record at most.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+64*len(data)); got > bound {
			t.Errorf("replay of %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		want := referenceReplay(data)
		wantContents(t, "replayed", w, want)
		if err := w.PutAll(map[string][]byte{"post": []byte("recovery"), "post2": {}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want["post"], want["post2"] = []byte("recovery"), []byte{}
		re, err := NewWALStore(dir)
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer re.Close()
		wantContents(t, "reopened", re, want)
	})
}
