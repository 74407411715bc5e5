package serve

import (
	"bytes"
	"fmt"
	"testing"
)

// BenchmarkResultSpill measures the result store's hot path: one op spills a
// 256-point job frame by frame (append + index update, no fsync — that
// happens once per job at seal) and pages the whole set back, which is what
// a client draining /results.jsonl costs the server. The payload size is in
// the ballpark of a small characterisation result; large payloads are pure
// disk bandwidth on top of the same fixed cost per frame.
func BenchmarkResultSpill(b *testing.B) {
	rs := &resultStore{dir: b.TempDir()}
	payload := bytes.Repeat([]byte(`{"k":0123456789}`), 256) // 4 KiB
	const frames = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// File creation and cleanup, once per job, would drown the
		// per-frame cost in file-system latency noise, so only the frame
		// traffic is on the clock.
		b.StopTimer()
		id := fmt.Sprintf("bench%d", i)
		rf := rs.open(id, frames)
		if rf == nil {
			b.Fatal("open failed")
		}
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
		rf.closeFile()
		rs.remove(id)
		b.StartTimer()
	}
}
