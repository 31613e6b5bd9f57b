package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/quantilejoins/qjoin/internal/engine"
)

// The write-ahead log holds the delta batches applied since the dataset's
// last snapshot. One file per dataset:
//
//	header: "QJWL" | version u32
//	record: length u32 | crc u32 (Castagnoli, payload) | payload
//	payload: generation u64 | delta (EncodeDelta)
//
// Appends are framed and fsynced before the in-memory generation publishes,
// so an acknowledged delta survives a crash. Recovery reads records in
// order; a record cut short by a crash mid-append (torn tail) ends replay
// cleanly — the delta it held was never acknowledged — while a CRC mismatch
// on a complete record is real damage and fails with ErrCorrupt.
//
// The log is kept a valid prefix at all times: OpenWAL truncates any torn
// tail before positioning for append (so a post-crash record never lands
// after garbage, which would make it unreachable to replay), and a failed
// Append truncates its partial frame back out before reporting the error
// (so a rejected delta can never be resurrected by replay).

var walMagic = [4]byte{'Q', 'J', 'W', 'L'}

const walHeaderLen = 8

// maxWALRecord bounds one record payload (1 GiB); a torn or corrupt length
// prefix must not drive a huge allocation.
const maxWALRecord = 1 << 30

// WAL is an append-only, fsync-per-record delta log.
type WAL struct {
	f *os.File
	// off is the end of the last intact record — the append position. It
	// only advances past fully written and fsynced frames.
	off int64
	// broken is set when a failed append could not be rolled back, leaving
	// the file in an unknown state; further appends refuse rather than risk
	// writing records replay cannot reach.
	broken bool
}

// OpenWAL opens (creating if needed) the log at path, validates its header,
// and positions for append at the end of the last intact record. A file
// shorter than the header — a crash during creation — is reset to a fresh
// empty log; a torn or damaged tail (a crash mid-append) is truncated away
// so the next record extends the valid prefix instead of landing after
// garbage that would make it unreplayable.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < walHeaderLen {
		if err := initWAL(f); err != nil {
			f.Close()
			return nil, err
		}
		// A fresh log file: fsync the directory so the entry itself survives
		// power loss, not just the bytes of the file.
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
		return &WAL{f: f, off: walHeaderLen}, nil
	}
	var hdr [walHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, err
	}
	if [4]byte(hdr[:4]) != walMagic {
		f.Close()
		return nil, fmt.Errorf("%w: %s is not a qjoin WAL", ErrBadMagic, path)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		f.Close()
		return nil, fmt.Errorf("%w: WAL version %d, want %d", ErrVersion, v, Version)
	}
	end, err := validPrefixEnd(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	if end < st.Size() {
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &WAL{f: f, off: end}, nil
}

// validPrefixEnd walks the record frames after the header and returns the
// offset just past the last intact record. Bytes beyond it — a frame torn
// by a crash mid-append, or damage — are not replayable and must not have
// new records appended after them.
func validPrefixEnd(f *os.File, size int64) (int64, error) {
	off := int64(walHeaderLen)
	var hdr [8]byte
	for {
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			if errors.Is(err, io.EOF) {
				return off, nil
			}
			return 0, err
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:4]))
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxWALRecord || off+8+n > size {
			return off, nil
		}
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, off+8); err != nil {
			if errors.Is(err, io.EOF) {
				return off, nil
			}
			return 0, err
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return off, nil
		}
		off += 8 + n
	}
}

// syncDir fsyncs a directory, making renames and newly created entries in
// it durable against power loss (fsyncing the file alone only covers its
// bytes, not its directory entry).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func initWAL(f *os.File) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	var hdr [walHeaderLen]byte
	copy(hdr[:4], walMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	return f.Sync()
}

// Append frames, writes and fsyncs one (generation, delta) record. Only
// after Append returns nil may the caller acknowledge the delta. On any
// failure the partial frame is truncated back out, keeping the log a valid
// prefix: a rejected delta must never be resurrected by replay, and a torn
// frame mid-file would make every later record unreachable. If even the
// rollback fails, the WAL marks itself broken and refuses further appends.
func (w *WAL) Append(gen uint64, delta *engine.Delta) error {
	if w.broken {
		return fmt.Errorf("%w: WAL left in unknown state by an earlier failed append", ErrCorrupt)
	}
	var e Enc
	e.U64(gen)
	EncodeDelta(&e, delta)
	payload := e.Bytes()
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[8:], payload)
	_, err := w.f.WriteAt(buf, w.off)
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		if terr := w.f.Truncate(w.off); terr != nil {
			w.broken = true
		}
		return err
	}
	w.off += int64(len(buf))
	return nil
}

// Truncate drops every record (after a snapshot compaction made them
// redundant) and fsyncs.
func (w *WAL) Truncate() error {
	if err := w.f.Truncate(walHeaderLen); err != nil {
		return err
	}
	w.off = walHeaderLen
	return w.f.Sync()
}

// Close closes the log file.
func (w *WAL) Close() error { return w.f.Close() }

// ReplayWAL streams every intact record of the log at path through fn in
// append order. A missing file is an empty log. A torn final record ends
// replay cleanly; corruption anywhere else fails, and fn errors abort.
func ReplayWAL(path string, fn func(gen uint64, delta *engine.Delta) error) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	var hdr [walHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		// Shorter than a header: a crash during creation left no records.
		return nil
	}
	if [4]byte(hdr[:4]) != walMagic {
		return fmt.Errorf("%w: %s is not a qjoin WAL", ErrBadMagic, path)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return fmt.Errorf("%w: WAL version %d, want %d", ErrVersion, v, Version)
	}
	for {
		var rec [8]byte
		if _, err := io.ReadFull(f, rec[:]); err != nil {
			// Clean EOF between records, or a torn frame header: done.
			return nil
		}
		n := binary.LittleEndian.Uint32(rec[:4])
		crc := binary.LittleEndian.Uint32(rec[4:8])
		if n > maxWALRecord {
			return fmt.Errorf("%w: WAL record length %d", ErrCorrupt, n)
		}
		// Read as the bytes arrive, not into n bytes made up front: a length
		// read from the file allocates no more than the file holds.
		payload, err := io.ReadAll(io.LimitReader(f, int64(n)))
		if err != nil || len(payload) < int(n) {
			// Torn payload at the tail: the append never acknowledged.
			return nil
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			// A complete record with a bad sum is damage, not a torn write —
			// but only if something follows it; a bad sum on the very last
			// bytes of the file is indistinguishable from a torn append that
			// wrote its frame header early, so treat tail damage as torn.
			if _, err := f.Read(make([]byte, 1)); err == io.EOF {
				return nil
			}
			return fmt.Errorf("%w: WAL record checksum mismatch", ErrChecksum)
		}
		d := NewDec(payload)
		gen := d.U64()
		delta, err := DecodeDelta(d)
		if err != nil {
			return err
		}
		if err := fn(gen, delta); err != nil {
			return err
		}
	}
}
