package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The WAL's on-disk grammar (DESIGN.md §15).
//
// A segment file is a sequence of CRC-framed records:
//
//	[crc32:4][kind:1][klen:4][vlen:4][key:klen][value:vlen]
//
// The checksum covers everything after itself (kind through value), so a
// torn write — a crash mid-append — is detected at the exact record where
// bytes stop being trustworthy and the segment is truncated back to the
// last whole record. kind is recPut or recDelete (a tombstone, vlen 0).
//
// A commit of several records (PutAll) is preceded by a group marker, a
// bare header whose two length fields are reused:
//
//	[crc32:4][kind=recGroup:1][count:4][bytes:4]
//
// count records in exactly bytes bytes follow it. Replay applies a group
// only when all of them are whole and valid; otherwise the log ends (or,
// in a sealed segment, is corrupt) at the marker — a batch is never
// recovered in part. No index entry points at a marker, so compaction
// drops it.
//
// The manifest file names the live segments in replay order. It is
// replaced atomically (temp + rename + dir fsync), which is what makes
// compaction crash-safe: at any instant the directory contains one valid
// manifest naming one complete generation of the data.

const (
	recPut    = 1
	recDelete = 2
	recGroup  = 3

	recHeaderLen = 13

	manifestName  = "wal-manifest"
	manifestMagic = "walv1"
	segPrefix     = "seg-"
	segSuffix     = ".wal"
)

// segName renders the file name of segment seq.
func segName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix)
}

// segment is one log file. Only the last segment of the manifest (the
// active one) is ever appended to; sealed segments are immutable and are
// only read (Get, replay, compaction) until compaction unlinks them.
type segment struct {
	name string // file name within the store directory
	seq  uint64
	f    *os.File
	size int64 // bytes of whole records; the append offset for the active segment
}

// slotRef locates one slot's newest record inside a segment.
type slotRef struct {
	seg    *segment
	off    int64 // record start
	recLen int64
}

// encodeRecord appends one framed record to buf and returns the extended
// buffer.
func encodeRecord(buf []byte, kind byte, key string, val []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, kind)
	var lens [8]byte
	binary.BigEndian.PutUint32(lens[0:4], uint32(len(key)))
	binary.BigEndian.PutUint32(lens[4:8], uint32(len(val)))
	buf = append(buf, lens[:]...)
	buf = append(buf, key...)
	buf = append(buf, val...)
	binary.BigEndian.PutUint32(buf[start:start+4], crc32.ChecksumIEEE(buf[start+4:]))
	return buf
}

// sealGroup fills in the marker at the start of group — staged as an
// empty recGroup record — once the count records behind it are encoded.
func sealGroup(group []byte, count int) {
	binary.BigEndian.PutUint32(group[5:9], uint32(count))
	binary.BigEndian.PutUint32(group[9:13], uint32(len(group)-recHeaderLen))
	binary.BigEndian.PutUint32(group[0:4], crc32.ChecksumIEEE(group[4:recHeaderLen]))
}

// recordLen returns the framed size of a record with the given key/value
// lengths.
func recordLen(klen, vlen int) int64 { return int64(recHeaderLen + klen + vlen) }

// parseRecord validates the record at the start of raw and returns its
// kind, key, value and framed length. io.ErrUnexpectedEOF means raw ends
// mid-record (a torn tail when raw is the end of the active segment);
// ErrCorrupt means the frame is whole but its checksum disagrees.
func parseRecord(raw []byte) (kind byte, key string, val []byte, n int64, err error) {
	if len(raw) < recHeaderLen {
		return 0, "", nil, 0, io.ErrUnexpectedEOF
	}
	kind = raw[4]
	klen := binary.BigEndian.Uint32(raw[5:9])
	vlen := binary.BigEndian.Uint32(raw[9:13])
	n = recordLen(int(klen), int(vlen))
	if int64(len(raw)) < n {
		return 0, "", nil, 0, io.ErrUnexpectedEOF
	}
	if crc32.ChecksumIEEE(raw[4:n]) != binary.BigEndian.Uint32(raw[0:4]) {
		return 0, "", nil, 0, ErrCorrupt
	}
	if kind != recPut && kind != recDelete {
		return 0, "", nil, 0, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
	}
	key = string(raw[recHeaderLen : recHeaderLen+int64(klen)])
	val = raw[recHeaderLen+int64(klen) : n]
	return kind, key, val, n, nil
}

// readManifest parses the manifest and returns the live segment file
// names in replay order. ok is false when no manifest exists (a fresh
// directory).
func readManifest(dir string) (names []string, ok bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("wal manifest: %w", err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 0 || lines[0] != manifestMagic {
		return nil, false, fmt.Errorf("%w: wal manifest has bad magic", ErrCorrupt)
	}
	return lines[1:], true, nil
}

// writeManifest atomically replaces the manifest with the given segment
// list: temp file, fsync, rename, directory fsync. A crash leaves either
// the old or the new manifest — never a torn one.
func writeManifest(dir string, names []string) error {
	tmp, err := os.CreateTemp(dir, "manifest-*.tmp")
	if err != nil {
		return fmt.Errorf("wal manifest: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("wal manifest: %w", err)
	}
	if _, err := tmp.WriteString(manifestMagic + "\n" + strings.Join(names, "\n") + "\n"); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal manifest: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal manifest: %w", err)
	}
	return syncPath(dir)
}

// syncPath fsyncs a directory, making renames/creates/unlinks in it
// durable against power loss.
func syncPath(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// replayFn receives one recovered record. Group markers are reported too
// (kind recGroup, empty key): bytes of the log that no slot references.
type replayFn func(kind byte, key string, off, recLen int64)

// replaySegment streams a segment, calling emit for every record of every
// whole commit: a single record, or a group whose records all verify
// (held back until the last one does). For the active (last) segment a
// torn tail — an incomplete or checksum-failing commit at the end — is
// truncated away and replay succeeds with the surviving prefix; for a
// sealed segment the same condition is corruption and fails the open,
// because sealed segments were fully fsynced before the manifest ever
// named a successor.
func replaySegment(seg *segment, active bool, emit replayFn) error {
	info, err := seg.f.Stat()
	if err != nil {
		return fmt.Errorf("wal %s: %w", seg.name, err)
	}
	size := info.Size()
	r := bufio.NewReaderSize(io.NewSectionReader(seg.f, 0, size), 1<<20)
	type held struct {
		kind byte
		key  string
		n    int64
	}
	var (
		off, good int64  // read position; end of the last whole commit
		group     []held // the open group's marker and records
		left      int    // records the open group still lacks
		groupEnd  int64
	)
	hdr := make([]byte, recHeaderLen)
	body := make([]byte, 0, 4096)
	truncate := func(cause error) error {
		if !active {
			return fmt.Errorf("%w: wal %s: invalid record at offset %d (%v)",
				ErrCorrupt, seg.name, good, cause)
		}
		if err := seg.f.Truncate(good); err != nil {
			return fmt.Errorf("wal %s: truncate torn tail: %w", seg.name, err)
		}
		if err := seg.f.Sync(); err != nil {
			return fmt.Errorf("wal %s: truncate torn tail: %w", seg.name, err)
		}
		seg.size = good
		return nil
	}
	for off < size {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return truncate(io.ErrUnexpectedEOF)
		}
		klen := binary.BigEndian.Uint32(hdr[5:9])
		vlen := binary.BigEndian.Uint32(hdr[9:13])
		if hdr[4] == recGroup {
			if left > 0 || crc32.ChecksumIEEE(hdr[4:]) != binary.BigEndian.Uint32(hdr[0:4]) {
				return truncate(ErrCorrupt)
			}
			left, groupEnd = int(klen), off+recHeaderLen+int64(vlen)
			if left == 0 || groupEnd > size {
				return truncate(io.ErrUnexpectedEOF)
			}
			// Sized by the marker's count, or by what its bytes can hold if it lies.
			if n := min(left, int(vlen)/recHeaderLen) + 1; cap(group) < n {
				group = make([]held, 0, n)
			}
			group = append(group[:0], held{kind: recGroup, n: recHeaderLen})
			off += recHeaderLen
			continue
		}
		n := recordLen(int(klen), int(vlen))
		if off+n > size {
			return truncate(io.ErrUnexpectedEOF)
		}
		if int64(cap(body)) < n {
			body = make([]byte, 0, n)
		}
		body = append(body[:0], hdr...)
		body = body[:n]
		if _, err := io.ReadFull(r, body[recHeaderLen:]); err != nil {
			return truncate(io.ErrUnexpectedEOF)
		}
		kind, key, _, _, err := parseRecord(body)
		if err != nil {
			return truncate(err)
		}
		if left == 0 {
			emit(kind, key, off, n)
			off += n
			good = off
			continue
		}
		group = append(group, held{kind, key, n})
		off += n
		left--
		if off > groupEnd || (left == 0) != (off == groupEnd) {
			return truncate(ErrCorrupt) // the records do not fill the marker's byte count
		}
		if left == 0 {
			for _, h := range group { // contiguous from the marker, at good
				emit(h.kind, h.key, good, h.n)
				good += h.n
			}
		}
	}
	if left > 0 {
		return truncate(io.ErrUnexpectedEOF)
	}
	seg.size = off
	return nil
}
