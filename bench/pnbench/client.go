package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pnclient"
	"repro/internal/serve"
)

// maxConns is how many connections may submit or fetch at once. SSE watches
// ride a separate transport: every in-flight job holds one.
const maxConns = 2

// client is the load generator's view of one server. A 429 or 503 is a
// refusal: requests are tried once, never retried.
type client struct {
	base        string
	apiHTTP     *http.Client
	watchHTTP   *http.Client
	interactive *pnclient.Client // tenant "interactive": characterise and compose
	batch       *pnclient.Client // tenant "batch": sweeps
	watcher     *pnclient.Client
	slots       chan struct{}
}

func newClient(base string) *client {
	once := pnclient.Retry{Attempts: 1}
	c := &client{
		base:      base,
		apiHTTP:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}},
		watchHTTP: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
		slots:     make(chan struct{}, maxConns),
	}
	c.interactive = pnclient.New(base, c.apiHTTP, once)
	c.interactive.SetTenant("interactive")
	c.batch = pnclient.New(base, c.apiHTTP, once)
	c.batch.SetTenant("batch")
	c.watcher = pnclient.New(base, c.watchHTTP, once)
	return c
}

func (c *client) close() {
	c.apiHTTP.CloseIdleConnections()
	c.watchHTTP.CloseIdleConnections()
}

func (c *client) acquire() { c.slots <- struct{}{} }
func (c *client) release() { <-c.slots }

// outcome is what the client saw of one request, as absolute times:
//
//	due → sent (wait) → accepted (submit) → running (queue) → terminal (run) → end
//
// where the last stage takes the final status GET of an interactive job, or
// the JSONL download of a sweep, including the wait for a connection.
type outcome struct {
	req      *request
	id       string
	late     time.Duration // open loop: how late the generator dispatched the request
	due      time.Time
	sent     time.Time
	accepted time.Time
	running  time.Time
	terminal time.Time
	end      time.Time
	state    string
	points   []serve.PointSummary
	pointAt  []time.Time // when each point's event arrived
	compose  *serve.ComposeSummary
	lines    int
	err      error
}

// ok reports a request that was accepted, finished done with every point
// ok, and (for sweeps) downloaded in full.
func (o *outcome) ok() bool {
	if o.err != nil || o.state != serve.StateDone {
		return false
	}
	n := len(o.req.specs())
	if len(o.points) != n || (o.req.Sweep != nil && o.lines != n) {
		return false
	}
	for _, p := range o.points {
		if !p.OK {
			return false
		}
	}
	return o.req.Compose == nil || o.compose != nil
}

// latency is what the user of an interactive job waited: from its due time
// to its terminal event.
func (o *outcome) latency() time.Duration { return o.terminal.Sub(o.due) }

// do runs one request to completion: submit on a connection slot, watch its
// events to the terminal one, then fetch the status (interactive) or stream
// the JSONL results (sweep) on a slot again.
func (c *client) do(ctx context.Context, r *request, due time.Time) *outcome {
	o := &outcome{req: r, due: due}
	api := c.interactive
	if r.Sweep != nil {
		api = c.batch
	}
	c.acquire()
	o.sent = time.Now()
	var st serve.JobStatus
	var err error
	switch {
	case r.Char != nil:
		st, err = api.Characterise(ctx, *r.Char, "")
	case r.Compose != nil:
		st, err = api.Compose(ctx, *r.Compose, "")
	case r.Sweep != nil:
		st, err = api.Sweep(ctx, *r.Sweep, "")
	}
	o.accepted = time.Now()
	c.release()
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		o.running, o.terminal, o.end = o.accepted, o.accepted, o.accepted
		return o
	}
	o.id = st.ID
	err = c.watcher.Watch(ctx, st.ID, 0, func(ev serve.Event) {
		now := time.Now()
		switch ev.Type {
		case "state":
			switch ev.State {
			case serve.StateRunning:
				o.running = now
			case serve.StateDone, serve.StateFailed, serve.StateCanceled:
				o.terminal, o.state = now, ev.State
			}
		case "point":
			if ev.Point != nil {
				o.points = append(o.points, *ev.Point)
				o.pointAt = append(o.pointAt, now)
			}
		case "compose":
			o.compose = ev.Compose
		}
	})
	if o.terminal.IsZero() {
		o.terminal = time.Now()
	}
	if o.running.IsZero() {
		o.running = o.terminal
	}
	if err != nil {
		o.err = fmt.Errorf("watch %s: %w", o.id, err)
		o.end = o.terminal
		return o
	}
	c.acquire()
	if r.Sweep != nil {
		o.lines, err = c.countLines(ctx, o.id)
	} else {
		_, err = api.Job(ctx, o.id, false)
	}
	o.end = time.Now()
	c.release()
	if err != nil {
		o.err = fmt.Errorf("fetch %s: %w", o.id, err)
	}
	return o
}

// countLines downloads a job's results as JSONL and counts the lines. It
// reads the raw stream: decoding every line, as pnclient.StreamResults does,
// would put ~80 MB of JSON decoding per sweep on the load generator, which
// shares the two cores with the server.
func (c *client) countLines(ctx context.Context, id string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/results.jsonl", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.apiHTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("results.jsonl: status %d", resp.StatusCode)
	}
	buf := make([]byte, 1<<20)
	n := 0
	for {
		k, err := resp.Body.Read(buf)
		n += bytes.Count(buf[:k], []byte{'\n'})
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// collector gathers outcomes from concurrent request goroutines.
type collector struct {
	mu   sync.Mutex
	outs []*outcome
}

func (k *collector) add(o *outcome) {
	k.mu.Lock()
	k.outs = append(k.outs, o)
	k.mu.Unlock()
}

func (k *collector) all() []*outcome {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]*outcome(nil), k.outs...)
}

// openLoop sends each request at start+Due whatever the server is doing, and
// waits for all of them. Latency counts from the due time, so a stall also
// charges the requests queued behind it.
func (c *client) openLoop(ctx context.Context, reqs []request, start time.Time, k *collector) {
	var wg sync.WaitGroup
	for i := range reqs {
		due := start.Add(reqs[i].Due)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				wg.Wait()
				return
			}
		}
		wg.Add(1)
		go func(r *request, due time.Time) {
			defer wg.Done()
			late := time.Since(due)
			o := c.do(ctx, r, due)
			o.late = late
			k.add(o)
		}(&reqs[i], due)
	}
	wg.Wait()
}

// closedLoop runs n clients, each sending its next request when the last one
// has finished, until deadline or until next reports no more; the request
// sequence is next(0), next(1), …
func (c *client) closedLoop(ctx context.Context, n int, deadline time.Time, next func(int) (request, bool), k *collector) {
	var seq atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				r, ok := next(int(seq.Add(1) - 1))
				if !ok {
					return
				}
				k.add(c.do(ctx, &r, time.Now()))
			}
		}()
	}
	wg.Wait()
}

// runAll runs reqs to completion on two closed-loop clients (the warm-up).
func (c *client) runAll(ctx context.Context, reqs []request) []*outcome {
	var k collector
	c.closedLoop(ctx, maxConns, time.Now().Add(time.Hour), func(i int) (request, bool) {
		if i >= len(reqs) {
			return request{}, false
		}
		return reqs[i], true
	}, &k)
	return k.all()
}

// recorder keeps the benchmark's own spans in memory; they are written out
// when the run ends. Span IDs are unique within a run.
type recorder struct {
	mu    sync.Mutex
	next  uint64
	spans []obs.Event
}

// span records one completed span and returns its ID.
func (r *recorder) span(trace, name string, parent uint64, start, end time.Time, attrs map[string]any) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.spans = append(r.spans, obs.Event{
		Type: "span", Name: name, Trace: trace, Span: r.next, Parent: parent,
		StartNS: start.UnixNano(), DurNS: int64(end.Sub(start)), Attrs: attrs,
	})
	return r.next
}

// requestTree records the span tree of one request: the root "request" from
// due time to the end of the final fetch, with children wait, submit, queue,
// run and status (interactive) or fetch (sweep), which tile it.
func (r *recorder) requestTree(o *outcome) {
	trace := o.id
	if trace == "" {
		trace = fmt.Sprintf("refused-%d", o.req.Index)
	}
	specs := o.req.specs()
	model := "" // a composition of inline legs characterises nothing
	if len(specs) > 0 {
		model = specs[0].Model
	}
	kind, last := "characterise", "status"
	switch {
	case o.req.Compose != nil:
		kind = "compose"
	case o.req.Sweep != nil:
		kind, last = "sweep", "fetch"
	}
	attrs := map[string]any{
		"index": o.req.Index, "kind": kind, "model": model, "points": len(specs),
		"accepted": o.id != "", "ok": o.ok(),
	}
	if o.err != nil {
		attrs["error"] = o.err.Error()
	}
	root := r.span(trace, "request", 0, o.due, o.end, attrs)
	for _, s := range []struct {
		name       string
		start, end time.Time
	}{
		{"wait", o.due, o.sent},
		{"submit", o.sent, o.accepted},
		{"queue", o.accepted, o.running},
		{"run", o.running, o.terminal},
		{last, o.terminal, o.end},
	} {
		r.span(trace, s.name, root, s.start, s.end, nil)
	}
}

// stageTimes attributes the request trees whose root passes keep: for each
// span name, every span's self time in ms — its duration minus what its
// children cover. The stages of a request have no children, so theirs is the
// span itself; the root's is the time no stage accounts for.
func stageTimes(spans []obs.Event, keep func(root obs.Event) bool) map[string][]float64 {
	kept := map[uint64]bool{}
	children := map[uint64]int64{}
	for _, s := range spans {
		if s.Name == "request" && keep(s) {
			kept[s.Span] = true
		}
		children[s.Parent] += s.DurNS
	}
	out := map[string][]float64{}
	for _, s := range spans {
		if kept[s.Span] || kept[s.Parent] {
			out[s.Name] = append(out[s.Name], float64(s.DurNS-children[s.Span])/1e6)
		}
	}
	return out
}
