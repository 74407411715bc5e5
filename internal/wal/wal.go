// Package wal is the append-only record log under every durable file of the
// job server: each job's one log (its header, events, spans and results),
// the payload blobs its result records name, and the coordinator's lease
// journal.
//
// A log file is an 8-byte magic followed by frames, integers big-endian:
//
//	[u32 length][u32 CRC-32C of the payload][payload]
//
// Payloads are never empty, so a zero-filled tail (what a filesystem can
// leave past the last write after a crash) never reads as a frame. Append
// hands each frame to the OS; only Sync makes it durable, and the caller
// decides which records are worth that. A crash can therefore tear the last
// frames, and Open keeps every frame up to the first one that is incomplete
// or fails its checksum and cuts the file there, so later appends continue
// right after the last intact record.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// magic heads every log; a file without it holds no intact frame.
const magic = "pnwal01\n"

// frameHeader is the per-frame overhead: payload length + checksum.
const frameHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is one open log file. Its methods are safe for concurrent use.
type Log struct {
	f *os.File

	mu      sync.Mutex
	size    int64 // end of the last intact frame: where the next one goes
	newFile bool  // Open found the file empty: the first Sync syncs its directory too
}

// Open opens the log at path, creating it if needed, and passes every intact
// record to fn in file order with the offset of its frame (the offset ReadAt
// takes). rec is only valid during the call; fn may be nil. Open cuts the
// file at the first torn or corrupt frame and returns the number of bytes
// cut: a file that does not start with the magic is cut to an empty log.
func Open(path string, fn func(off int64, rec []byte)) (*Log, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	info, err := f.Stat()
	var end, cut int64
	if err == nil {
		end, err = scan(f, info.Size(), fn)
		cut = info.Size() - end
	}
	if err == nil && cut > 0 {
		err = f.Truncate(end)
	}
	if err == nil && end == 0 {
		_, err = f.WriteAt([]byte(magic), 0)
		end = int64(len(magic))
	}
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	return &Log{f: f, size: end, newFile: info.Size() == 0}, cut, nil
}

// scan walks the frames of a size-byte file and returns the end of the last
// intact one, or 0 when the magic is missing. Only I/O errors are errors:
// torn and corrupt frames just end the walk.
func scan(f *os.File, size int64, fn func(int64, []byte)) (int64, error) {
	if size < int64(len(magic)) {
		return 0, nil
	}
	r := bufio.NewReaderSize(f, 64<<10)
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:len(magic)]); err != nil {
		return 0, err
	}
	if string(hdr[:len(magic)]) != magic {
		return 0, nil
	}
	off := int64(len(magic))
	var buf []byte
	for off+frameHeader <= size {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return 0, err
		}
		n := int64(binary.BigEndian.Uint32(hdr[0:4]))
		if n == 0 || n > size-off-frameHeader {
			break
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return 0, err
		}
		if crc32.Checksum(buf, castagnoli) != binary.BigEndian.Uint32(hdr[4:8]) {
			break
		}
		if fn != nil {
			fn(off, buf)
		}
		off += frameHeader + n
	}
	return off, nil
}

// coalesce is the part size below which Append copies a part into a pooled
// buffer with the frame header instead of giving it a write of its own: a
// few KiB cost less to copy than a system call.
const coalesce = 16 << 10

// bufs pools the buffers Append gathers the frame header and small parts in.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// Append writes one frame through to the OS and returns the frame's offset.
// The frame's record is parts concatenated, but they are never concatenated
// in memory: the checksum is chained over the parts in place, the header and
// parts under 16 KiB are gathered in one pooled buffer, and each larger part
// is written straight from the caller's slice, so a multi-megabyte payload
// is not copied. The record is durable only after a later Sync. A failed
// write is cut back off, so the log stays appendable; a crash between the
// writes of one frame leaves a torn frame, which Open cuts.
func (l *Log) Append(parts ...[]byte) (int64, error) {
	n := 0
	var crc uint32
	for _, p := range parts {
		n += len(p)
		crc = crc32.Update(crc, castagnoli, p)
	}
	if n == 0 || int64(n) > math.MaxUint32 {
		return 0, fmt.Errorf("wal: record of %d bytes", n)
	}
	pb := bufs.Get().(*[]byte)
	buf := binary.BigEndian.AppendUint32((*pb)[:0], uint32(n))
	buf = binary.BigEndian.AppendUint32(buf, crc)
	l.mu.Lock()
	defer l.mu.Unlock()
	off, pos := l.size, l.size
	var err error
	for _, p := range parts {
		if len(p) < coalesce {
			buf = append(buf, p...)
			continue
		}
		if pos, err = l.write(buf, pos); err != nil {
			break
		}
		buf = buf[:0]
		if pos, err = l.write(p, pos); err != nil {
			break
		}
	}
	if err == nil {
		_, err = l.write(buf, pos)
	}
	*pb = buf[:0]
	bufs.Put(pb)
	if err != nil {
		_ = l.f.Truncate(off) // if this fails too, the next Open cuts the torn frame
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.size = off + frameHeader + int64(n)
	return off, nil
}

// write writes b at pos and returns the offset after it.
func (l *Log) write(b []byte, pos int64) (int64, error) {
	if len(b) == 0 {
		return pos, nil
	}
	_, err := l.f.WriteAt(b, pos)
	return pos + int64(len(b)), err
}

// ReadAt returns the record of the frame at off, as returned by Append or
// passed to Open's fn, after checking its CRC.
func (l *Log) ReadAt(off int64) ([]byte, error) { return l.ReadInto(off, nil) }

// ReadInto is ReadAt reading the record into buf when it has the room (nil:
// a fresh slice), so a loop over many frames can reuse one buffer; the
// record is valid until buf is reused.
func (l *Log) ReadInto(off int64, buf []byte) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := l.f.ReadAt(hdr[:], off); err != nil {
		return nil, fmt.Errorf("wal: reading frame at %d: %w", off, err)
	}
	n := int64(binary.BigEndian.Uint32(hdr[0:4]))
	l.mu.Lock()
	size := l.size
	l.mu.Unlock()
	if n == 0 || off < int64(len(magic)) || off+frameHeader+n > size {
		return nil, fmt.Errorf("wal: no frame at %d", off)
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	rec := buf[:n]
	if _, err := l.f.ReadAt(rec, off+frameHeader); err != nil {
		return nil, fmt.Errorf("wal: reading frame at %d: %w", off, err)
	}
	if crc32.Checksum(rec, castagnoli) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("wal: frame at %d: checksum mismatch", off)
	}
	return rec, nil
}

// Sync flushes the log to stable storage. The first Sync of a log that Open
// found empty also syncs its directory, so the file itself survives a crash.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	if l.newFile {
		d, err := os.Open(filepath.Dir(l.f.Name()))
		if err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		err = d.Sync()
		d.Close()
		if err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		l.newFile = false
	}
	return nil
}

// Close closes the log file.
func (l *Log) Close() error {
	return l.f.Close()
}

// ReadFirst returns the first record of the log at path after checking its
// CRC. It reads the file whole and never opens it for writing, so it holds
// no descriptor afterwards and never creates or cuts a file; a file that is
// missing, lacks the magic, or whose first frame is torn or corrupt is an
// error.
func ReadFirst(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	const start = int64(len(magic)) + frameHeader
	if int64(len(data)) < start || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("wal: %s: no intact frame", path)
	}
	hdr := data[len(magic):start]
	n := int64(binary.BigEndian.Uint32(hdr[0:4]))
	if n == 0 || n > int64(len(data))-start {
		return nil, fmt.Errorf("wal: %s: no intact frame", path)
	}
	rec := data[start : start+n]
	if crc32.Checksum(rec, castagnoli) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("wal: %s: checksum mismatch", path)
	}
	return rec, nil
}
