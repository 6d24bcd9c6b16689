package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// WALStore is a log-structured Backend: every mutation is one record
// appended to the active segment, an in-memory index maps each slot to
// the file offset of its newest record, and background compaction
// rewrites live records into a fresh segment once enough of the log is
// garbage (DESIGN.md §15).
//
// Durability is amortized by group commit: concurrent writers stage
// records into a shared batch while one of them — the leader — appends
// the previous batch with a single write and a single fsync. Under K
// concurrent writers the log pays ~1/K of an fsync per record.
type WALStore struct {
	dir string
	opt WALOptions

	// mu guards the staging batch, the index, the accounting counters and
	// the lifecycle flags. It is never held across file I/O.
	mu       sync.Mutex
	cond     *sync.Cond // batch completion, leader handoff, compaction state
	cur      *walBatch  // staging batch; nil when empty
	spare    walBatch   // buf and ops of the last flushed batch, emptied for the next
	flushing bool       // a leader is appending batches
	closed   bool
	poisoned error // an append failed and could not be rolled back

	index   map[string]slotRef
	total   int64 // bytes of records in all manifest segments
	garbage int64 // bytes of those no index entry references

	// segs is the manifest order, last entry active. The slice is
	// replaced only while holding BOTH mu and flushMu, so holding either
	// one is enough to read it.
	segs    []*segment
	retired []*segment // unlinked by compaction; closed at Close (readers may still hold refs)

	compacting bool
	compactWG  sync.WaitGroup
	compactErr error // last background compaction failure, for Stats/tests

	// flushMu serializes everything that touches segment files for
	// writing: batch appends, segment rolls and manifest swaps. nextSeq
	// is guarded by it.
	flushMu sync.Mutex
	nextSeq uint64
}

var _ Backend = (*WALStore)(nil)

// WALOptions tunes a WALStore. The zero value means defaults.
type WALOptions struct {
	// SegmentBytes is the roll threshold: a batch that would grow the
	// active segment past it seals the segment first. Default 64 MiB.
	SegmentBytes int64
	// GarbageRatio is the compaction trigger: once garbage/total crosses
	// it (and total exceeds MinCompactBytes), a background compaction
	// rewrites live records into a new segment. Default 0.5.
	GarbageRatio float64
	// MinCompactBytes is the log size below which compaction never
	// triggers. Default 4 MiB.
	MinCompactBytes int64
	// DisableAutoCompact turns the background trigger off; Compact can
	// still be called explicitly (tests, maintenance windows).
	DisableAutoCompact bool
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.GarbageRatio <= 0 {
		o.GarbageRatio = 0.5
	}
	if o.MinCompactBytes <= 0 {
		o.MinCompactBytes = 4 << 20
	}
	return o
}

// walOp is one staged record: n framed bytes of its batch's buf.
type walOp struct {
	kind byte
	key  string
	n    int64
}

// walBatch is one group-commit unit: records staged by concurrent
// callers — encoded once, straight into buf — made durable by one leader
// append+fsync, which also assigns seg and off, where buf landed.
type walBatch struct {
	buf  []byte
	ops  []walOp
	seg  *segment
	off  int64
	done bool
	err  error
}

// stage appends one framed record to the batch.
func (b *walBatch) stage(kind byte, key string, val []byte) {
	start := len(b.buf)
	b.buf = encodeRecord(b.buf, kind, key, val)
	b.ops = append(b.ops, walOp{kind: kind, key: key, n: int64(len(b.buf) - start)})
}

// NewWALStore opens (creating if needed) a WAL store with default
// options.
func NewWALStore(dir string) (*WALStore, error) { return OpenWALStore(dir, WALOptions{}) }

// OpenWALStore opens a WAL store, running bootstrap recovery: the
// manifest names the live segments, each is replayed into the in-memory
// index, a torn tail on the active segment is truncated away, and stray
// files from a crashed compaction or manifest swap are swept.
func OpenWALStore(dir string, opt WALOptions) (*WALStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("open wal: %w", err)
	}
	w := &WALStore{
		dir:     dir,
		opt:     opt.withDefaults(),
		index:   make(map[string]slotRef),
		nextSeq: 1,
	}
	w.cond = sync.NewCond(&w.mu)
	names, haveManifest, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if !haveManifest {
		seg, err := createSegment(dir, w.nextSeq)
		if err != nil {
			return nil, err
		}
		w.nextSeq++
		if err := writeManifest(dir, []string{seg.name}); err != nil {
			seg.f.Close()
			os.Remove(filepath.Join(dir, seg.name))
			return nil, err
		}
		w.segs = []*segment{seg}
		return w, nil
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%w: wal manifest names no segments", ErrCorrupt)
	}
	if err := sweepStrays(dir, names); err != nil {
		return nil, err
	}
	for i, name := range names {
		seq, err := parseSegName(name)
		if err != nil {
			return nil, err
		}
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("%w: wal manifest names missing segment %s", ErrCorrupt, name)
		}
		seg := &segment{name: name, seq: seq, f: f}
		active := i == len(names)-1
		err = replaySegment(seg, active, func(kind byte, key string, off, recLen int64) {
			w.applyRecord(kind, key, slotRef{seg: seg, off: off, recLen: recLen})
		})
		if err != nil {
			f.Close()
			for _, s := range w.segs {
				s.f.Close()
			}
			return nil, err
		}
		if seg.seq >= w.nextSeq {
			w.nextSeq = seg.seq + 1
		}
		w.segs = append(w.segs, seg)
	}
	return w, nil
}

// createSegment creates an empty segment file. Its directory entry
// becomes durable with the next manifest write's directory fsync.
func createSegment(dir string, seq uint64) (*segment, error) {
	name := segName(seq)
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open wal: %w", err)
	}
	return &segment{name: name, seq: seq, f: f}, nil
}

// parseSegName recovers a segment's sequence number from its file name.
func parseSegName(name string) (uint64, error) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, fmt.Errorf("%w: wal manifest names foreign file %q", ErrCorrupt, name)
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: wal manifest names foreign file %q", ErrCorrupt, name)
	}
	return seq, nil
}

// sweepStrays removes segment files the manifest does not name (a crashed
// compaction's output, or inputs it had already retired) and leftover
// manifest temp files. They are dead by construction: the manifest swap
// is the commit point.
func sweepStrays(dir string, live []string) error {
	liveSet := make(map[string]bool, len(live))
	for _, n := range live {
		liveSet[n] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("open wal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || liveSet[name] {
			continue
		}
		stray := strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix)
		stray = stray || (strings.HasPrefix(name, "manifest-") && strings.HasSuffix(name, ".tmp"))
		if stray {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("open wal: sweep %s: %w", name, err)
			}
		}
	}
	return nil
}

// Dir returns the backing directory.
func (w *WALStore) Dir() string { return w.dir }

// active returns the append segment. Callers must hold mu or flushMu.
func (w *WALStore) active() *segment { return w.segs[len(w.segs)-1] }

// Put implements Store: one record through the group commit.
func (w *WALStore) Put(slot string, data []byte) error {
	return w.commit(func(b *walBatch) { b.stage(recPut, slot, data) })
}

// PutAll implements Backend: the whole batch rides one group-commit
// entry, so it costs one fsync no matter how many slots it carries (and
// shares even that with concurrent committers). More than one record goes
// behind a group marker, which makes the batch all-or-nothing at replay.
func (w *WALStore) PutAll(batch map[string][]byte) error {
	size := recHeaderLen
	for slot, data := range batch {
		size += int(recordLen(len(slot), len(data)))
	}
	return w.commit(func(b *walBatch) {
		mark := len(b.buf)
		b.buf, b.ops = slices.Grow(b.buf, size), slices.Grow(b.ops, len(batch)+1)
		if len(batch) > 1 {
			b.stage(recGroup, "", nil)
		}
		for slot, data := range batch {
			if data == nil {
				b.stage(recDelete, slot, nil)
			} else {
				b.stage(recPut, slot, data)
			}
		}
		if len(batch) > 1 {
			sealGroup(b.buf[mark:], len(batch))
		}
	})
}

// Delete implements Store: a tombstone record through the group commit.
// Deleting a missing slot still logs a tombstone (the pre-check would
// race concurrent Puts); replay treats it as a no-op.
func (w *WALStore) Delete(slot string) error {
	return w.commit(func(b *walBatch) { b.stage(recDelete, slot, nil) })
}

// Sync implements Backend: an empty commit, which still rides the flush
// queue and fsyncs the active segment — a true barrier behind every
// previously acknowledged write.
func (w *WALStore) Sync() error { return w.commit(func(*walBatch) {}) }

// commit has stage encode the caller's records into the current batch
// (under mu, so one commit's records are contiguous) and sees them to
// durability: if a leader is already flushing, wait for the batch's
// completion; otherwise become the leader and flush staged batches until
// the staging area drains.
func (w *WALStore) commit(stage func(*walBatch)) error {
	w.mu.Lock()
	if err := w.usableLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	if w.cur == nil {
		w.cur = &walBatch{buf: w.spare.buf, ops: w.spare.ops}
		w.spare = walBatch{}
	}
	mine := w.cur
	stage(mine)
	if w.flushing {
		for !mine.done {
			w.cond.Wait()
		}
		err := mine.err
		w.mu.Unlock()
		return err
	}
	w.flushing = true
	for w.cur != nil {
		// Group-commit window: yield once so writers just woken by the
		// previous batch's broadcast (and any still runnable) stage their
		// next op before this batch is taken. Without it the cohorts
		// alternate batches on few cores and the average batch — and with
		// it the fsync amortization — halves.
		w.mu.Unlock()
		runtime.Gosched()
		w.mu.Lock()
		b := w.cur
		if b == nil {
			break
		}
		w.cur = nil
		w.mu.Unlock()
		err := w.flushBatch(b)
		w.mu.Lock()
		b.done = true
		b.err = err
		if err == nil {
			w.applyBatch(b)
		}
		if cap(b.buf) <= 1<<20 { // reuse a journal write's buffers, release a checkpoint's
			w.spare = walBatch{buf: b.buf[:0], ops: b.ops[:0]}
		}
		b.buf, b.ops = nil, nil
		w.cond.Broadcast()
	}
	w.flushing = false
	if w.shouldCompactLocked() {
		w.compacting = true
		w.compactWG.Add(1)
		go w.compactBG()
	}
	w.cond.Broadcast()
	err := mine.err
	w.mu.Unlock()
	return err
}

// usableLocked reports whether the store can accept writes.
func (w *WALStore) usableLocked() error {
	if w.closed {
		return fmt.Errorf("wal %s: %w", w.dir, ErrClosed)
	}
	if w.poisoned != nil {
		return fmt.Errorf("wal %s: %w", w.dir, w.poisoned)
	}
	return nil
}

// flushBatch appends one batch to the active segment and fsyncs it,
// rolling to a fresh segment first if the batch would overflow it. On an
// append error the segment is truncated back; if even that fails the
// store is poisoned — the tail is no longer trustworthy for appends
// (reads and recovery stay safe: the CRC frame bounds the damage).
func (w *WALStore) flushBatch(b *walBatch) error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	total := int64(len(b.buf))
	act := w.active()
	if act.size > 0 && act.size+total > w.opt.SegmentBytes {
		if err := w.roll(); err != nil {
			return err
		}
		act = w.active()
	}
	b.seg, b.off = act, act.size
	if total > 0 {
		if _, err := act.f.WriteAt(b.buf, act.size); err != nil {
			w.rollback(act)
			return fmt.Errorf("wal append: %w", err)
		}
	}
	if err := act.f.Sync(); err != nil {
		w.rollback(act)
		return fmt.Errorf("wal sync: %w", err)
	}
	act.size += total
	return nil
}

// rollback truncates a failed append off the active segment; failure to
// do so poisons the store against further writes.
func (w *WALStore) rollback(act *segment) {
	if err := act.f.Truncate(act.size); err != nil {
		w.mu.Lock()
		w.poisoned = fmt.Errorf("append failed and tail not recoverable: %v", err)
		w.mu.Unlock()
	}
}

// roll seals the active segment and opens a successor, publishing it in
// the manifest. Caller holds flushMu.
func (w *WALStore) roll() error {
	seg, err := createSegment(w.dir, w.nextSeq)
	if err != nil {
		return err
	}
	w.nextSeq++
	names := make([]string, 0, len(w.segs)+1)
	for _, s := range w.segs {
		names = append(names, s.name)
	}
	names = append(names, seg.name)
	if err := writeManifest(w.dir, names); err != nil {
		seg.f.Close()
		os.Remove(filepath.Join(w.dir, seg.name))
		return err
	}
	w.mu.Lock()
	w.segs = append(w.segs, seg)
	w.mu.Unlock()
	return nil
}

// applyBatch publishes a durable batch into the index and the garbage
// accounting. Caller holds mu; readers therefore only ever see fsynced
// records.
func (w *WALStore) applyBatch(b *walBatch) {
	off := b.off
	for _, op := range b.ops {
		w.applyRecord(op.kind, op.key, slotRef{seg: b.seg, off: off, recLen: op.n})
		off += op.n
	}
}

// applyRecord accounts one durable record — a flushed one, or one replay
// recovered — and points the index at it when it is a put. A tombstone or
// a group marker is garbage from birth, and so is whatever a put or a
// tombstone buries. Caller holds mu (or is the opener).
func (w *WALStore) applyRecord(kind byte, key string, ref slotRef) {
	w.total += ref.recLen
	if kind == recGroup {
		w.garbage += ref.recLen
		return
	}
	if old, had := w.index[key]; had {
		w.garbage += old.recLen
	}
	if kind == recPut {
		w.index[key] = ref
	} else {
		w.garbage += ref.recLen
		delete(w.index, key)
	}
}

// Get implements Store: index lookup under mu, then a positioned read of
// the CRC-framed record, re-verified on every read so a disk-level flip
// surfaces as ErrCorrupt rather than as a corrupted object.
func (w *WALStore) Get(slot string) ([]byte, error) {
	w.mu.Lock()
	ref, ok := w.index[slot]
	w.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSlot, slot)
	}
	raw := make([]byte, ref.recLen)
	if _, err := ref.seg.f.ReadAt(raw, ref.off); err != nil {
		return nil, fmt.Errorf("get %q: %w", slot, err)
	}
	_, key, val, _, err := parseRecord(raw)
	if err != nil {
		return nil, fmt.Errorf("get %q: %w", slot, err)
	}
	if key != slot {
		return nil, fmt.Errorf("%w: %q: index points at record for %q", ErrCorrupt, slot, key)
	}
	return val, nil
}

// Delete of the index entry happens in applyBatch; List reads the index.
func (w *WALStore) List() ([]string, error) {
	w.mu.Lock()
	out := make([]string, 0, len(w.index))
	for k := range w.index {
		out = append(out, k)
	}
	w.mu.Unlock()
	sort.Strings(out)
	return out, nil
}

// Close implements Backend: it waits out in-flight flushes and any
// running compaction, then releases every file handle. Idempotent;
// operations after Close fail with ErrClosed.
func (w *WALStore) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	for w.flushing || w.cur != nil {
		w.cond.Wait()
	}
	w.mu.Unlock()
	w.compactWG.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.segs {
		s.f.Close()
	}
	for _, s := range w.retired {
		s.f.Close()
	}
	return nil
}

// WALStats is a point-in-time view of the log's shape, for tests,
// operators and the compaction trigger's observability.
type WALStats struct {
	Segments     int
	TotalBytes   int64
	GarbageBytes int64
	Slots        int
	Compacting   bool
	CompactErr   error
}

// Stats returns current log statistics.
func (w *WALStore) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		Segments:     len(w.segs),
		TotalBytes:   w.total,
		GarbageBytes: w.garbage,
		Slots:        len(w.index),
		Compacting:   w.compacting,
		CompactErr:   w.compactErr,
	}
}
