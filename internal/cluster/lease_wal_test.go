package cluster

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestLeaseWALReplay: records append durably, replay returns them in order,
// a torn tail is cut, and remove deletes the journal.
func TestLeaseWALReplay(t *testing.T) {
	dir := t.TempDir()
	w, recs, err := openLeaseWAL(dir, "j1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}
	w.append(walRecord{Type: walDispatch, Lease: 0, Attempt: 0, Worker: "http://a", WorkerJob: "wj1"})
	w.append(walRecord{Type: walDispatch, Lease: 1, Attempt: 2, Worker: "http://b", WorkerJob: "wj2"})
	w.append(walRecord{Type: walComplete, Lease: 0, Attempt: 0, Worker: "http://a", WorkerJob: "wj1"})
	w.Close()

	// Simulate a crash mid-append: a torn record at the tail.
	path := filepath.Join(dir, "j1.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"dispatch","lea`)
	f.Close()

	w2, recs, err := openLeaseWAL(dir, "j1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3 (torn tail cut): %+v", len(recs), recs)
	}
	if recs[1].Type != walDispatch || recs[1].Lease != 1 || recs[1].Attempt != 2 || recs[1].Worker != "http://b" {
		t.Fatalf("record 1 corrupted on replay: %+v", recs[1])
	}
	w2.remove()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("remove left the journal behind: %v", err)
	}

	// Empty dir disables journalling; a nil WAL is safe to use.
	var nilWAL *leaseWAL
	if w3, recs, err := openLeaseWAL("", "j1"); w3 != nil || recs != nil || err != nil {
		t.Fatalf("empty dir: %v %v %v", w3, recs, err)
	}
	nilWAL.append(walRecord{Type: walDispatch})
	nilWAL.Close()
	nilWAL.remove()
}

// TestLeaseWALSecondRestart: a coordinator that crashes mid-append, restarts,
// journals more leases and restarts again replays every intact record in
// order: the torn tail is cut at the first restart, so the later records
// are not stranded behind it.
func TestLeaseWALSecondRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j2.wal")
	w, _, err := openLeaseWAL(dir, "j2")
	if err != nil {
		t.Fatal(err)
	}
	want := []walRecord{
		{Type: walDispatch, Lease: 0, Attempt: 0, Worker: "http://a", WorkerJob: "wj1"},
		{Type: walDispatch, Lease: 1, Attempt: 0, Worker: "http://b", WorkerJob: "wj2"},
		{Type: walComplete, Lease: 0, Attempt: 0, Worker: "http://a", WorkerJob: "wj1"},
	}
	for _, rec := range want {
		w.append(rec)
	}
	w.append(walRecord{Type: walDispatch, Lease: 2, Attempt: 0, Worker: "http://a", WorkerJob: "wj3"})
	w.Close()
	// The crash tore the last record: its frame lost its final bytes.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	w, recs, err := openLeaseWAL(dir, "j2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("first restart replayed %+v, want %+v", recs, want)
	}
	more := []walRecord{
		{Type: walDispatch, Lease: 2, Attempt: 1, Worker: "http://b", WorkerJob: "wj4"},
		{Type: walFallback, Lease: 1, Attempt: 1},
	}
	for _, rec := range more {
		w.append(rec)
	}
	w.Close()

	w, recs, err = openLeaseWAL(dir, "j2")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if want = append(want, more...); !reflect.DeepEqual(recs, want) {
		t.Fatalf("second restart replayed %+v, want %+v", recs, want)
	}
}
