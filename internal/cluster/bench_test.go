package cluster

import (
	"context"
	"testing"

	"repro/internal/pnclient"
	"repro/internal/serve"
)

// BenchmarkClusterIngest times a coordinator taking in a sweep: an
// in-process coordinator front, two httptest workers and 16 hopf points the
// workers already hold in their caches, so an op is lease dispatch, the
// workers' event and record streams, the coordinator's ingest of about
// 1.2 MB per point and the front's spill — not the pipeline.
func BenchmarkClusterIngest(b *testing.B) {
	f := startFabric(b, 2, func(c *Config) { c.Logf = func(string, ...any) {} })
	pts := hopfPoints(16, 700)
	cl := pnclient.New(f.frontTS.URL, nil, fastRetry)
	ctx := context.Background()
	run := func() {
		st, err := cl.Sweep(ctx, serve.SweepRequest{Points: pts}, "")
		if err == nil {
			st, err = cl.Wait(ctx, st.ID, false, nil)
		}
		if err != nil || st.State != serve.StateDone || st.DonePoints != len(pts) || st.FailedPoints != 0 {
			b.Fatalf("sweep: %+v, %v", st, err)
		}
	}
	run() // the workers compute and cache every point once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
