package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// record is one record Open handed back, with its frame offset.
type record struct {
	off int64
	rec []byte
}

// openAll opens path and collects its records.
func openAll(t testing.TB, path string) (*Log, []record, int64) {
	t.Helper()
	var recs []record
	l, cut, err := Open(path, func(off int64, rec []byte) {
		recs = append(recs, record{off, append([]byte(nil), rec...)})
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, recs, cut
}

// writeLog builds a log of recs at path and returns its bytes and the end
// offset of every frame.
func writeLog(t testing.TB, path string, recs [][]byte) ([]byte, []int64) {
	t.Helper()
	l, _, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for _, r := range recs {
		off, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, off+frameHeader+int64(len(r)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, ends
}

func sameRecords(got []record, want [][]byte) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !bytes.Equal(got[i].rec, want[i]) {
			return false
		}
	}
	return true
}

// TestCrashPoints cuts a log at every byte offset, and also overwrites the
// tail past the offset with zeros and with garbage (what a filesystem can
// leave after a crash). Open must never fail, must return exactly the
// frames that end at or before the offset — so every record synced before
// that point survives — and must leave a log that takes a new append which
// reads back after a reopen.
func TestCrashPoints(t *testing.T) {
	dir := t.TempDir()
	var recs [][]byte
	for i := 0; i < 12; i++ {
		recs = append(recs, bytes.Repeat([]byte{byte('a' + i)}, 1+i*i*3))
	}
	full, ends := writeLog(t, filepath.Join(dir, "full.wal"), recs)
	rng := rand.New(rand.NewSource(1))
	garbage := make([]byte, len(full))
	rng.Read(garbage)
	tails := map[string]func(k int) []byte{
		"cut":     func(k int) []byte { return nil },
		"zeros":   func(k int) []byte { return make([]byte, len(full)-k) },
		"garbage": func(k int) []byte { return garbage[k:] },
	}
	extra := []byte("appended after the crash")
	p := filepath.Join(dir, "crash.wal")
	for name, tail := range tails {
		for k := 0; k <= len(full); k++ {
			data := append(append([]byte(nil), full[:k]...), tail(k)...)
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var want [][]byte
			for i, end := range ends {
				if end <= int64(k) {
					want = append(want, recs[i])
				}
			}
			l, got, cut := openAll(t, p)
			if !sameRecords(got, want) {
				t.Fatalf("%s at %d: Open returned %d records, want %d", name, k, len(got), len(want))
			}
			var intact int64
			if bytes.HasPrefix(data, []byte(magic)) {
				intact = int64(len(magic))
				if len(want) > 0 {
					intact = ends[len(want)-1]
				}
			}
			if cut != int64(len(data))-intact {
				t.Fatalf("%s at %d: cut %d of %d bytes, want all but the %d intact", name, k, cut, len(data), intact)
			}
			if _, err := l.Append(extra); err != nil {
				t.Fatalf("%s at %d: append after Open: %v", name, k, err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l, got, cut = openAll(t, p)
			l.Close()
			if cut != 0 || !sameRecords(got, append(want, extra)) {
				t.Fatalf("%s at %d: reopen after append returned %d records (cut %d), want %d", name, k, len(got), cut, len(want)+1)
			}
		}
	}
}

// TestReadFirst: ReadFirst returns a log's first record, and fails rather
// than return other bytes on a missing file, a file without the magic, and
// a first frame cut at any byte or with a flipped payload byte; it never
// creates or changes the file.
func TestReadFirst(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "first.wal")
	if _, err := ReadFirst(p); err == nil {
		t.Fatal("ReadFirst of a missing file succeeded")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("ReadFirst created the file: %v", err)
	}
	first := []byte("the first record")
	full, ends := writeLog(t, p, [][]byte{first, []byte("a second record")})
	if rec, err := ReadFirst(p); err != nil || !bytes.Equal(rec, first) {
		t.Fatalf("ReadFirst = %q, %v; want %q", rec, err, first)
	}
	for k := 0; k < int(ends[0]); k++ {
		if err := os.WriteFile(p, full[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		if rec, err := ReadFirst(p); err == nil {
			t.Fatalf("cut at %d: ReadFirst = %q", k, rec)
		}
		if info, err := os.Stat(p); err != nil || info.Size() != int64(k) {
			t.Fatalf("cut at %d: ReadFirst changed the file (%v)", k, err)
		}
	}
	flipped := append([]byte(nil), full...)
	flipped[ends[0]-1] ^= 1
	if err := os.WriteFile(p, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if rec, err := ReadFirst(p); err == nil {
		t.Fatalf("a flipped byte: ReadFirst = %q", rec)
	}
}

// TestReadAt: every offset Append returns reads its record back (one given
// in parts too), a flipped payload byte fails the checksum, and an offset
// that is not a frame start is refused.
func TestReadAt(t *testing.T) {
	p := filepath.Join(t.TempDir(), "r.wal")
	l, _, err := Open(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Sync(); err != nil { // a new log: syncs the directory too
		t.Fatal(err)
	}
	var offs []int64
	for i := 0; i < 5; i++ {
		off, err := l.Append([]byte(fmt.Sprintf("record %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	for i, off := range offs {
		rec, err := l.ReadAt(off)
		if err != nil || string(rec) != fmt.Sprintf("record %d", i) {
			t.Fatalf("ReadAt(%d) = %q, %v", off, rec, err)
		}
	}
	if _, err := l.ReadAt(offs[1] + 3); err == nil {
		t.Fatal("ReadAt inside a frame succeeded")
	}
	if _, err := l.Append(nil, []byte{}); err == nil {
		t.Fatal("empty record appended")
	}
	// A record given in parts is one frame holding their concatenation.
	off, err := l.Append([]byte("in "), []byte("parts"))
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := l.ReadAt(off); err != nil || string(rec) != "in parts" {
		t.Fatalf("ReadAt of a record appended in parts = %q, %v", rec, err)
	}
	f, err := os.OpenFile(p, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'X'}, offs[2]+frameHeader); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := l.ReadAt(offs[2]); err == nil {
		t.Fatal("corrupt frame passed its checksum")
	}
	// Reopening cuts the log at the corrupt frame: later frames go with it.
	l2, got, cut := openAll(t, p)
	defer l2.Close()
	if len(got) != 2 || cut == 0 {
		t.Fatalf("reopen over a corrupt frame: %d records, cut %d", len(got), cut)
	}
	if got[1].off != offs[1] {
		t.Fatalf("Open reported offset %d for the frame Append put at %d", got[1].off, offs[1])
	}
}

// TestConcurrentAppend: appends from several goroutines at once each land
// as a whole frame that reads back at its offset, and a reopen finds them
// all.
func TestConcurrentAppend(t *testing.T) {
	p := filepath.Join(t.TempDir(), "c.wal")
	l, _, err := Open(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				want := fmt.Sprintf("writer %d record %d", w, i)
				off, err := l.Append([]byte(want))
				if err == nil {
					var rec []byte
					if rec, err = l.ReadAt(off); err == nil && string(rec) != want {
						err = fmt.Errorf("ReadAt(%d) = %q, want %q", off, rec, want)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, got, cut := openAll(t, p)
	l.Close()
	if len(got) != writers*each || cut != 0 {
		t.Fatalf("reopen found %d records (cut %d), want %d", len(got), cut, writers*each)
	}
}

// multipart is a record in parts shaped like a spill record (index,
// envelope head, payload, envelope tail): Append gathers the small parts
// with the frame header and writes the payload straight from its slice.
func multipart() [][]byte {
	return [][]byte{
		{0, 0, 0, 7},
		[]byte(`{"index":7,"name":"p","result":`),
		bytes.Repeat([]byte("L"), coalesce),
		[]byte(`,"wall_ns":1}`),
	}
}

// TestAppendPartsMatchesConcatenation: a record appended in parts, below and
// above the coalescing size, leaves the file byte for byte as the same
// record appended whole, and reads back whole.
func TestAppendPartsMatchesConcatenation(t *testing.T) {
	dir := t.TempDir()
	records := [][][]byte{
		{[]byte("a"), []byte("bc")},
		multipart(),
		{[]byte("ab"), bytes.Repeat([]byte("L"), coalesce+5), bytes.Repeat([]byte("s"), coalesce-1), bytes.Repeat([]byte("M"), 3*coalesce)},
		{nil, []byte("after empty parts"), {}},
		{[]byte("tail")},
	}
	parts, whole := filepath.Join(dir, "parts.wal"), filepath.Join(dir, "whole.wal")
	lp, _, err := Open(parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	lw, _, err := Open(whole, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range records {
		offP, err := lp.Append(r...)
		if err != nil {
			t.Fatal(err)
		}
		offW, err := lw.Append(bytes.Join(r, nil))
		if err != nil {
			t.Fatal(err)
		}
		if offP != offW {
			t.Fatalf("record %d: offset %d in parts, %d whole", i, offP, offW)
		}
		if rec, err := lp.ReadAt(offP); err != nil || !bytes.Equal(rec, bytes.Join(r, nil)) {
			t.Fatalf("record %d: ReadAt = %d bytes, %v", i, len(rec), err)
		}
	}
	lp.Close()
	lw.Close()
	a, _ := os.ReadFile(parts)
	b, _ := os.ReadFile(whole)
	if !bytes.Equal(a, b) {
		t.Fatalf("file of parts (%d bytes) differs from file of whole records (%d bytes)", len(a), len(b))
	}
}

// TestCrashPointsMultipart: a frame Append writes in several writes is torn
// at every byte, and also with each of its writes missing while the later
// ones landed (a hole the filesystem left zero-filled). Open cuts the frame
// each time, keeps the frame before it, and the next append lands right
// after that frame and reads back.
func TestCrashPointsMultipart(t *testing.T) {
	dir := t.TempDir()
	first := []byte("the intact frame before")
	parts := multipart()
	rec := bytes.Join(parts, nil)
	p := filepath.Join(dir, "m.wal")
	l, _, err := Open(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(first); err != nil {
		t.Fatal(err)
	}
	start, err := l.Append(parts...)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	full, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != start+frameHeader+int64(len(rec)) {
		t.Fatalf("log of %d bytes, want the second frame to end it at %d", len(full), start+frameHeader+int64(len(rec)))
	}
	// The writes Append makes for this frame: header with the small parts
	// before the first large one, each large part, the small parts between
	// and after.
	var writes [][2]int64 // [from, to) in the file
	pos, from := start+frameHeader, start
	for _, part := range parts {
		if len(part) >= coalesce {
			writes = append(writes, [2]int64{from, pos}, [2]int64{pos, pos + int64(len(part))})
			from = pos + int64(len(part))
		}
		pos += int64(len(part))
	}
	writes = append(writes, [2]int64{from, pos})
	check := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, cut := openAll(t, p)
		if !sameRecords(got, [][]byte{first}) || cut != int64(len(data))-start {
			l.Close()
			t.Fatalf("%s: Open returned %d records and cut %d of %d bytes, want 1 record and all bytes from %d", name, len(got), cut, len(data), start)
		}
		off, err := l.Append([]byte("next"))
		if err != nil || off != start {
			t.Fatalf("%s: append after Open at %d (%v), want %d", name, off, err, start)
		}
		l.Close()
		l, got, _ = openAll(t, p)
		l.Close()
		if !sameRecords(got, [][]byte{first, []byte("next")}) {
			t.Fatalf("%s: reopen after append returned %d records", name, len(got))
		}
	}
	for k := start; k < int64(len(full)); k++ {
		check(fmt.Sprintf("cut at %d", k), full[:k])
	}
	for i, w := range writes {
		torn := append([]byte(nil), full...)
		clear(torn[w[0]:w[1]])
		check(fmt.Sprintf("write %d of %d missing", i+1, len(writes)), torn)
	}
}

// FuzzOpen: whatever the file holds, Open succeeds and leaves exactly the
// magic plus the frames of the records it returned, and the log accepts an
// append that reads back after a reopen.
func FuzzOpen(f *testing.F) {
	dir := f.TempDir()
	full, ends := writeLog(f, filepath.Join(dir, "seed.wal"), [][]byte{[]byte("a"), []byte(`{"t":"event"}`), bytes.Repeat([]byte("z"), 300)})
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add([]byte(magic[:5]))
	f.Add(full)
	f.Add(full[:ends[1]+3])
	f.Add(append(full[:ends[0]], make([]byte, 40)...))
	f.Add([]byte("not a log at all, just text\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		p := filepath.Join(dir, "f.wal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, cut := openAll(t, p)
		kept, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var recs [][]byte
		for _, r := range got {
			recs = append(recs, r.rec)
		}
		want, _ := writeLog(t, filepath.Join(dir, "want.wal"), recs)
		if !bytes.Equal(kept, want) {
			t.Fatalf("Open left %d bytes, want the %d bytes of its %d records", len(kept), len(want), len(recs))
		}
		intact := int64(len(kept))
		if !bytes.HasPrefix(data, []byte(magic)) {
			intact = 0
		}
		if cut != int64(len(data))-intact {
			t.Fatalf("cut %d of %d bytes, want all but the %d intact", cut, len(data), intact)
		}
		if _, err := l.Append([]byte("next")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l, again, cut := openAll(t, p)
		l.Close()
		if cut != 0 || !sameRecords(again, append(recs, []byte("next"))) {
			t.Fatalf("reopen: %d records, cut %d", len(again), cut)
		}
	})
}
