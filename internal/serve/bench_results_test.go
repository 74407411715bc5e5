package serve

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/cache"
)

// BenchmarkResultSpill measures the result records' hot path: one op
// spills a 256-point job frame by frame (append + index update, no fsync —
// the job's terminal event syncs them once) and pages the whole set back,
// which is what a client draining /results.jsonl costs the server. The
// payload size is in the ballpark of a small characterisation result; large
// payloads are pure disk bandwidth on top of the same fixed cost per frame.
func BenchmarkResultSpill(b *testing.B) {
	jl := &journal{dir: b.TempDir()}
	payload := bytes.Repeat([]byte(`{"k":0123456789}`), 256) // 4 KiB
	const frames = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// File creation and cleanup, once per job, would drown the
		// per-frame cost in file-system latency noise, so only the frame
		// traffic is on the clock.
		b.StopTimer()
		rf := openResults(b, jl, fmt.Sprintf("bench%d", i), frames)
		b.StartTimer()
		for k := 0; k < frames; k++ {
			if err := rf.append(k, payload); err != nil {
				b.Fatal(err)
			}
		}
		pg, err := rf.page(0, frames)
		if err != nil || len(pg) != frames {
			b.Fatalf("page: %d frames, %v", len(pg), err)
		}
		b.StopTimer()
		rf.log.remove()
		b.StartTimer()
	}
}

// BenchmarkHitSpillLifecycle measures what one cache hit's job log costs
// over a one-point job's life on a journal directory — create it (the
// header and its fsync), append the hit, seal the results, write the
// terminal event (an fsync) and delete the log — with the hit spilled
// inline (a journal without blobs) and as a reference to a live blob. The
// hit is a real hopf point, a 0.48 MB payload. Not gated: file-system
// latency dominates it.
func BenchmarkHitSpillLifecycle(b *testing.B) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pt, err := hopfSpec("bench", 4).Resolve(nil)
	if err != nil {
		b.Fatal(err)
	}
	_, hit := computedAndHit(b, store, pt)
	for _, ref := range []bool{false, true} {
		name := "inline"
		if ref {
			name = "reference"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			jl := &journal{dir: dir, durable: true}
			if ref {
				jl.blobs = newBlobStore(filepath.Join(dir, blobSubdir))
			}
			// A retained job keeps the blob live, as on a server: without
			// it every op would be a first hit and write the blob.
			keep := openResults(b, jl, "keep", 1)
			if err := keep.appendResult(&hit); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rf := openResults(b, jl, fmt.Sprintf("j%d", i), 1)
				if err := rf.appendResult(&hit); err != nil {
					b.Fatal(err)
				}
				rf.seal()
				rf.log.event(Event{Seq: 1, Type: "state", State: StateDone}, true)
				rf.log.remove()
				rf.release()
			}
			b.StopTimer()
			keep.log.remove()
			keep.release()
		})
	}
}
