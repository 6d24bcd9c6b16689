package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// copyDir clones a WAL directory so a truncation/corruption scenario can
// be replayed without disturbing the original.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// lastSegment returns the path of the manifest's last (active) segment.
func lastSegment(t testing.TB, dir string) string {
	t.Helper()
	names, ok, err := readManifest(dir)
	if err != nil || !ok || len(names) == 0 {
		t.Fatalf("manifest: %v ok=%v names=%v", err, ok, names)
	}
	return filepath.Join(dir, names[len(names)-1])
}

// TestWALTornTailEveryByte is the truncation property test: any prefix
// truncation inside the final record — a torn write at every byte
// boundary — must recover every earlier record exactly, surface zero
// corrupt reads, and leave the store writable.
func TestWALTornTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential Puts: one batch each, so the on-disk order is the call
	// order and every offset is the running sum of record lengths.
	want := make(map[string][]byte)
	var keys []string
	var size int64
	put := func(key string, val []byte) {
		t.Helper()
		if err := w.Put(key, val); err != nil {
			t.Fatal(err)
		}
		want[key] = val
		keys = append(keys, key)
		size += recordLen(len(key), len(val))
	}
	for i := 0; i < 12; i++ {
		put(fmt.Sprintf("slot-%02d", i), bytes.Repeat([]byte{byte(i)}, 5+7*i))
	}
	// The final record overwrites an earlier slot, so a torn tail must
	// resurface the OLD value — not lose the slot, not serve the new one.
	oldVal := append([]byte(nil), want["slot-05"]...)
	lastKey, lastVal := "slot-05", []byte("the final, possibly torn, overwrite")
	put(lastKey, lastVal)
	lastLen := recordLen(len(lastKey), len(lastVal))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	if info, err := os.Stat(seg); err != nil || info.Size() != size {
		t.Fatalf("segment size = %v (%v), computed %d — offset math is off", info.Size(), err, size)
	}

	lastStart := size - lastLen
	for cut := lastStart; cut <= size; cut++ {
		cutDir := copyDir(t, dir)
		if err := os.Truncate(lastSegment(t, cutDir), cut); err != nil {
			t.Fatal(err)
		}
		re, err := OpenWALStore(cutDir, WALOptions{})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		tornLast := cut < size
		for _, k := range keys[:len(keys)-1] {
			wantVal := want[k]
			if k == lastKey && tornLast {
				wantVal = oldVal
			}
			got, err := re.Get(k)
			if err != nil {
				t.Fatalf("cut=%d: Get(%q): %v", cut, k, err)
			}
			if !bytes.Equal(got, wantVal) {
				t.Fatalf("cut=%d: Get(%q) = %d bytes, want %d", cut, k, len(got), len(wantVal))
			}
		}
		if !tornLast {
			if got, err := re.Get(lastKey); err != nil || !bytes.Equal(got, lastVal) {
				t.Fatalf("cut=%d (whole): Get(%q) = %v, %v", cut, lastKey, got, err)
			}
		}
		// The truncated store accepts appends again.
		if err := re.Put("post-recovery", []byte("ok")); err != nil {
			t.Fatalf("cut=%d: post-recovery put: %v", cut, err)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
	}
	t.Run("group", tornTailInsideGroup)
}

// writeCommits applies a scripted sequence of commits — each one PutAll,
// so a single entry is a bare record and several are a group — to a fresh
// WAL in dir, one batch each. It returns the segment's size and the
// store's contents after every commit.
func writeCommits(t testing.TB, dir string, commits []map[string][]byte) (ends []int64, states []map[string][]byte) {
	t.Helper()
	w, err := NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	state := map[string][]byte{}
	for _, c := range commits {
		if err := w.PutAll(c); err != nil {
			t.Fatal(err)
		}
		if len(c) > 1 {
			size += recHeaderLen
		}
		next := make(map[string][]byte, len(state))
		for k, v := range state {
			next[k] = v
		}
		for k, v := range c {
			size += recordLen(len(k), len(v))
			if v == nil {
				delete(next, k)
			} else {
				next[k] = v
			}
		}
		state = next
		ends, states = append(ends, size), append(states, state)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(lastSegment(t, dir)); err != nil || info.Size() != size {
		t.Fatalf("segment size = %v (%v), computed %d — offset math is off", info.Size(), err, size)
	}
	return ends, states
}

// wantContents asserts a store holds exactly the given slots.
func wantContents(t testing.TB, label string, s Backend, want map[string][]byte) {
	t.Helper()
	slots, err := s.List()
	if err != nil || len(slots) != len(want) {
		t.Fatalf("%s: List = %v (%v), want %d slots", label, slots, err, len(want))
	}
	for k, v := range want {
		if got, err := s.Get(k); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("%s: Get(%q) = %q, %v; want %q", label, k, got, err, v)
		}
	}
}

// groupLog is a log whose tail is a five-record group — puts (one an
// overwrite) and deletes (one of a missing slot) — followed by a single
// record.
func groupLog() []map[string][]byte {
	var log []map[string][]byte
	for i := 0; i < 4; i++ {
		log = append(log, map[string][]byte{fmt.Sprintf("slot-%d", i): bytes.Repeat([]byte{byte(i)}, 9+5*i)})
	}
	return append(log,
		map[string][]byte{
			"slot-1": []byte("overwritten inside the group"), "slot-2": nil, "never-was": nil,
			"manifest": []byte("names group-a and group-b"), "group-a": bytes.Repeat([]byte("a"), 40),
		},
		map[string][]byte{"after": []byte("the group")})
}

// tornTailInsideGroup is the truncation property over groups: a cut at any
// byte of a five-record group, or of the record behind it, recovers the
// contents as of the last *whole* commit — the group's records all
// together or not at all — and leaves the store writable.
func tornTailInsideGroup(t *testing.T) {
	dir := t.TempDir()
	commits := groupLog()
	ends, states := writeCommits(t, dir, commits)
	first := len(commits) - 2 // the group
	for cut := ends[first-1]; cut <= ends[len(ends)-1]; cut++ {
		whole := first - 1
		for whole+1 < len(ends) && ends[whole+1] <= cut {
			whole++
		}
		cutDir := copyDir(t, dir)
		if err := os.Truncate(lastSegment(t, cutDir), cut); err != nil {
			t.Fatal(err)
		}
		re, err := OpenWALStore(cutDir, WALOptions{})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		wantContents(t, fmt.Sprintf("cut=%d", cut), re, states[whole])
		if st := re.Stats(); st.TotalBytes != ends[whole] {
			t.Fatalf("cut=%d: log holds %d bytes after recovery, want %d", cut, st.TotalBytes, ends[whole])
		}
		if err := re.PutAll(map[string][]byte{"post": []byte("ok"), "slot-0": nil}); err != nil {
			t.Fatalf("cut=%d: post-recovery batch: %v", cut, err)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
	}
	// A whole-length group whose last record does not verify — sectors
	// need not land in order — is dropped from its marker on: the records
	// ahead of the damage are not applied.
	seg := lastSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[ends[first]-1] ^= 0x01
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	wantContents(t, "damaged group", re, states[first-1])
}

// TestWALCorruptSealedSegmentFailsOpen: a checksum flip in a sealed
// (non-final) segment is real corruption, not a torn tail — recovery must
// refuse rather than silently truncate fsynced history.
func TestWALCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWALStore(dir, WALOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := w.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Stats().Segments < 3 {
		t.Fatalf("want ≥3 segments, got %d", w.Stats().Segments)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, _, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, names[0])
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWALStore(dir, WALOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over corrupt sealed segment: %v, want ErrCorrupt", err)
	}
}

// TestWALCorruptSealedGroup: a byte flipped anywhere inside a group that
// lies in a sealed segment — marker or member — fails the open.
func TestWALCorruptSealedGroup(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWALStore(dir, WALOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	group := map[string][]byte{"g1": bytes.Repeat([]byte{1}, 30), "g2": nil, "g3": bytes.Repeat([]byte{3}, 30)}
	if err := w.PutAll(group); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // roll past the group's segment
		if err := w.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 60)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, _, err := readManifest(dir)
	if err != nil || len(names) < 2 {
		t.Fatalf("manifest %v, %v: the group's segment was not sealed", names, err)
	}
	groupLen := recHeaderLen + recordLen(2, 30)*2 + recordLen(2, 0)
	for at := int64(0); at < groupLen; at++ {
		cutDir := copyDir(t, dir)
		f, err := os.OpenFile(filepath.Join(cutDir, names[0]), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		if _, err := f.ReadAt(b[:], at); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x40
		if _, err := f.WriteAt(b[:], at); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if re, err := OpenWALStore(cutDir, WALOptions{}); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				re.Close()
			}
			t.Fatalf("byte %d of a sealed group flipped: open = %v, want ErrCorrupt", at, err)
		}
	}
}

// TestWALCompactionDropsGroupMarkers: compaction over a log of groups
// keeps the contents and writes a segment of bare records — no marker
// survives, and a reopen replays it to the same contents.
func TestWALCompactionDropsGroupMarkers(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWALStore(dir, WALOptions{SegmentBytes: 1 << 10, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for round := 0; round < 12; round++ {
		batch := map[string][]byte{}
		for i := 0; i < 4; i++ {
			k := fmt.Sprintf("k%d", (round+i)%6)
			batch[k] = []byte(fmt.Sprintf("round %d value of %s", round, k))
			want[k] = batch[k]
		}
		gone := fmt.Sprintf("k%d", (round+5)%6)
		batch[gone] = nil
		delete(want, gone)
		if err := w.PutAll(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	wantContents(t, "compacted", w, want)
	var live int64
	for k, v := range want {
		live += recordLen(len(k), len(v))
	}
	if st := w.Stats(); st.TotalBytes != live || st.GarbageBytes != 0 {
		t.Errorf("after compaction: %+v, want %d live bytes and no garbage (markers and tombstones dropped)", st, live)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, _, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	for len(raw) > 0 {
		kind, _, _, n, err := parseRecord(raw) // refuses a marker
		if err != nil || kind != recPut {
			t.Fatalf("compacted segment holds a record of kind %d (%v)", kind, err)
		}
		raw = raw[n:]
	}
	re, err := NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	wantContents(t, "reopened", re, want)
}

// TestWALGroupCommitConcurrency: many writers on distinct keys — half of
// them with Put, half with three-slot PutAll groups (two puts and the
// delete of the previous group's twin) — all acknowledged writes durable
// across reopen, no lost or torn records.
func TestWALGroupCommitConcurrency(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWALStore(dir, WALOptions{SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const writers, ops = 8, 50
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			prevTwin := ""
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("w%d-op%02d", wr, i)
				if wr%2 == 0 {
					if err := w.Put(key, []byte(key)); err != nil {
						t.Errorf("Put(%q): %v", key, err)
						return
					}
					continue
				}
				batch := map[string][]byte{key: []byte(key), key + "-twin": []byte(key + "-twin")}
				if prevTwin != "" {
					batch[prevTwin] = nil
				}
				if err := w.PutAll(batch); err != nil {
					t.Errorf("PutAll(%q): %v", key, err)
					return
				}
				prevTwin = key + "-twin"
			}
		}(wr)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	slots, err := re.List()
	// Every op's key, and the last twin of each PutAll writer.
	if want := writers*ops + writers/2; err != nil || len(slots) != want {
		t.Fatalf("recovered %d slots (%v), want %d", len(slots), err, want)
	}
	for _, k := range slots {
		if got, err := re.Get(k); err != nil || string(got) != k {
			t.Fatalf("Get(%q) = %q, %v", k, got, err)
		}
	}
}

// TestWALCompaction: overwrite churn grows garbage; Compact shrinks the
// log to ~live size, preserves every visible value (including across
// reopen), and retires the input segments from the directory.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWALStore(dir, WALOptions{SegmentBytes: 4 << 10, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{0xAB}, 256)
	for round := 0; round < 20; round++ {
		for i := 0; i < 8; i++ {
			if err := w.Put(fmt.Sprintf("hot-%d", i), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Put("cold", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := w.Delete("hot-7"); err != nil {
		t.Fatal(err)
	}
	before := w.Stats()
	if before.GarbageBytes == 0 || before.Segments < 2 {
		t.Fatalf("churn produced no garbage to compact: %+v", before)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	after := w.Stats()
	if after.TotalBytes >= before.TotalBytes || after.GarbageBytes >= before.GarbageBytes {
		t.Errorf("compaction did not shrink the log: before %+v after %+v", before, after)
	}
	check := func(s Backend, label string) {
		t.Helper()
		for i := 0; i < 7; i++ {
			if got, err := s.Get(fmt.Sprintf("hot-%d", i)); err != nil || !bytes.Equal(got, val) {
				t.Fatalf("%s: Get(hot-%d): %v", label, i, err)
			}
		}
		if _, err := s.Get("hot-7"); !errors.Is(err, ErrNoSlot) {
			t.Fatalf("%s: deleted slot resurrected: %v", label, err)
		}
		if got, err := s.Get("cold"); err != nil || string(got) != "survives" {
			t.Fatalf("%s: Get(cold) = %q, %v", label, got, err)
		}
	}
	check(w, "compacted")
	// Writes after compaction land in the surviving active segment.
	if err := w.Put("post", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Retired segment files are really gone from the directory.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segsOnDisk := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), segPrefix) {
			segsOnDisk++
		}
	}
	if segsOnDisk != after.Segments+1 { // +1: the roll for "post" — no: post rode the active; recount below
		// Count from the manifest instead of guessing roll behavior.
		names, _, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if segsOnDisk != len(names) {
			t.Errorf("%d segment files on disk, manifest names %d", segsOnDisk, len(names))
		}
	}
	re, err := NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "reopened")
	if got, err := re.Get("post"); err != nil || string(got) != "x" {
		t.Fatalf("post-compaction write lost: %v, %v", got, err)
	}
}

// TestWALAutoCompactTrigger: with a tiny floor, overwrite churn trips the
// background trigger and the log converges to ~live size on its own.
func TestWALAutoCompactTrigger(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWALStore(dir, WALOptions{
		SegmentBytes: 2 << 10, MinCompactBytes: 8 << 10, GarbageRatio: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	val := bytes.Repeat([]byte{1}, 128)
	for i := 0; i < 400; i++ {
		if err := w.Put(fmt.Sprintf("k%d", i%4), val); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := w.Stats()
		if st.CompactErr != nil {
			t.Fatal(st.CompactErr)
		}
		if !st.Compacting && st.TotalBytes < 8<<10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto compaction never converged: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		if got, err := w.Get(fmt.Sprintf("k%d", i)); err != nil || !bytes.Equal(got, val) {
			t.Fatalf("Get(k%d) after auto compaction: %v", i, err)
		}
	}
}

// TestWALCompactionUnderConcurrentWrites: a writer churns while Compact
// runs; the swap must not resurrect overwritten values or drop fresh
// ones.
func TestWALCompactionUnderConcurrentWrites(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWALStore(dir, WALOptions{SegmentBytes: 2 << 10, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 64; i++ {
		if err := w.Put(fmt.Sprintf("k%d", i%8), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var lastGen [8]int
	go func() {
		defer wg.Done()
		gen := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			gen++
			k := gen % 8
			if err := w.Put(fmt.Sprintf("k%d", k), []byte(fmt.Sprintf("gen-%d", gen))); err != nil {
				t.Errorf("churn put: %v", err)
				return
			}
			lastGen[k] = gen
		}
	}()
	for i := 0; i < 5; i++ {
		if err := w.Compact(); err != nil {
			t.Fatalf("compact %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	for k := 0; k < 8; k++ {
		got, err := w.Get(fmt.Sprintf("k%d", k))
		if err != nil {
			t.Fatalf("Get(k%d): %v", k, err)
		}
		if lastGen[k] > 0 && string(got) != fmt.Sprintf("gen-%d", lastGen[k]) {
			t.Errorf("k%d = %q, want gen-%d", k, got, lastGen[k])
		}
	}
}

// TestWALSweepsCrashedCompaction: segment files the manifest does not
// name (a crashed compaction's half-written output) and stray manifest
// temp files are removed at open and never shadow live data.
func TestWALSweepsCrashedCompaction(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("real", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, segName(99))
	if err := os.WriteFile(stray, []byte("half-written compaction output"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "manifest-123.tmp")
	if err := os.WriteFile(tmp, []byte("torn manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, err := re.Get("real"); err != nil || string(got) != "data" {
		t.Fatalf("Get(real) = %q, %v", got, err)
	}
	for _, p := range []string{stray, tmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stray %s survived open: %v", p, err)
		}
	}
}

// TestWALClosedOps: a closed store refuses mutations with ErrClosed.
func TestWALClosedOps(t *testing.T) {
	w, err := NewWALStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("b", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close: %v", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after Close: %v", err)
	}
	if err := w.Compact(); !errors.Is(err, ErrClosed) {
		t.Errorf("Compact after Close: %v", err)
	}
}

// TestWALGetDetectsCorruption: a payload byte flipped in the active
// segment behind an open store's back surfaces as ErrCorrupt on Get — the
// CRC is re-verified on every read, not only at replay — and the damage is
// confined to that slot.
func TestWALGetDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, k := range []string{"before", "victim", "after"} {
		if err := w.Put(k, []byte("payload of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	seg := lastSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, []byte("payload of victim"))
	if at < 0 {
		t.Fatal("victim payload not found in the active segment")
	}
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{raw[at] ^ 0xFF}, int64(at)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Get("victim"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get of flipped slot: %v, want ErrCorrupt", err)
	}
	for _, k := range []string{"before", "after"} {
		if got, err := w.Get(k); err != nil || string(got) != "payload of "+k {
			t.Errorf("Get(%s) = %q, %v", k, got, err)
		}
	}
}
