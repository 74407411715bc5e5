// Package pnclient is the Go client for the pnserve job API
// (internal/serve): submit characterisation and sweep jobs, poll status,
// stream progress, and survive the failures a long characterisation run
// actually meets — lost responses, server restarts, back-pressure.
//
// Robustness is the point of the package:
//
//   - Every request retries transient failures (connection errors, 429, 5xx)
//     with exponential backoff, full jitter, and respect for the server's
//     Retry-After header. Submissions carry an Idempotency-Key, so a retry
//     whose original response was lost — or that lands on a freshly restarted
//     server — is deduplicated onto the job it already created instead of
//     queueing a duplicate.
//   - Watch streams the job's Server-Sent Events and transparently reconnects
//     with Last-Event-ID after a dropped connection or a server restart,
//     resuming exactly after the last event it delivered. The server keeps
//     sequence numbers stable across restarts (the job journal), so the
//     spliced stream is gap-free; delivery is at-least-once, and consumers
//     key on Point.Index as the events contract requires.
package pnclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
)

// APIError is a non-2xx response from the server, with the decoded error
// message when the body carried one.
type APIError struct {
	Status int
	Msg    string
}

func (e *APIError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("pnclient: server returned %d", e.Status)
	}
	return fmt.Sprintf("pnclient: server returned %d: %s", e.Status, e.Msg)
}

// retryable reports whether the request that produced err may be re-sent:
// transport errors (nothing definite happened) and explicitly transient
// statuses. Other 4xx are the caller's bug and retry identically, and a
// cancelled or expired context is the caller saying stop — retrying it would
// only sleep out the backoff ladder before failing anyway.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Status {
		case http.StatusTooManyRequests, http.StatusInternalServerError,
			http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	// Transport-level failure (refused, reset, server mid-restart).
	return err != nil
}

// Retry tunes the backoff schedule. The zero value means 8 attempts, 100ms
// base delay doubling to a 5s cap, with full jitter.
type Retry struct {
	// Attempts is the total number of tries per request (including the
	// first); <= 0 means 8.
	Attempts int
	// Base is the first backoff step; doubles each retry. <= 0 means 100ms.
	Base time.Duration
	// Max caps the backoff (and any Retry-After wait). <= 0 means 5s.
	Max time.Duration
	// Seed makes the jitter deterministic when non-zero (tests); zero seeds
	// from the clock.
	Seed int64
}

func (r Retry) withDefaults() Retry {
	if r.Attempts <= 0 {
		r.Attempts = 8
	}
	if r.Base <= 0 {
		r.Base = 100 * time.Millisecond
	}
	if r.Max <= 0 {
		r.Max = 5 * time.Second
	}
	return r
}

// Client talks to one pnserve instance. Construct with New; methods are safe
// for concurrent use.
type Client struct {
	base   string
	http   *http.Client
	retry  Retry
	tenant string

	mu  sync.Mutex
	rng *rand.Rand
}

// SetTenant names the tenant every subsequent request is submitted as (the
// X-PN-Tenant header; empty = the server's default tenant). Quota rejections
// for the tenant come back as 429 with Retry-After, which the client's retry
// loop honours. Call before issuing requests; not synchronised against
// concurrent calls in flight.
func (c *Client) SetTenant(name string) { c.tenant = name }

// New returns a client for the server at base (e.g. "http://127.0.0.1:8080").
// httpc may be nil for http.DefaultClient.
func New(base string, httpc *http.Client, retry Retry) *Client {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	retry = retry.withDefaults()
	seed := retry.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Client{
		base:  strings.TrimRight(base, "/"),
		http:  httpc,
		retry: retry,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// backoff computes the wait before retry attempt n (0-based), honouring the
// server's Retry-After when it gave one: full jitter over an exponentially
// growing window, so a fleet of retrying clients spreads out instead of
// stampeding a recovering server in lockstep.
func (c *Client) backoff(n int, retryAfter time.Duration) time.Duration {
	window := c.retry.Base << n
	if window > c.retry.Max || window <= 0 {
		window = c.retry.Max
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(window) + 1))
	c.mu.Unlock()
	if retryAfter > d {
		d = retryAfter
	}
	if d > c.retry.Max {
		d = c.retry.Max
	}
	return d
}

// sleep waits d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do runs one HTTP exchange with retries and decodes the JSON response into
// out (which may be nil), or hands a JSONL response to out line by line when
// it is a func(line []byte) error. body is re-marshalled once and re-sent per
// attempt.
// headers are applied to every attempt.
func (c *Client) do(ctx context.Context, method, path string, body any, headers map[string]string, out any) (*http.Response, error) {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return nil, fmt.Errorf("pnclient: encoding request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; attempt < c.retry.Attempts; attempt++ {
		// A dead context must fail fast even before the first attempt or
		// between a response and the next backoff — never start an exchange
		// (or a jitter sleep) the caller has already abandoned.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			var ra time.Duration
			var ae *APIError
			if errors.As(lastErr, &ae) && ae.Status == http.StatusTooManyRequests {
				ra = lastRetryAfter(lastErr)
			}
			if err := sleep(ctx, c.backoff(attempt-1, ra)); err != nil {
				return nil, err
			}
		}
		resp, err := c.once(ctx, method, path, payload, headers, out)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil || !retryable(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("pnclient: %s %s failed after %d attempts: %w", method, path, c.retry.Attempts, lastErr)
}

// retryAfterError carries the server's Retry-After through the error chain.
type retryAfterError struct {
	*APIError
	after time.Duration
}

func (e *retryAfterError) Unwrap() error { return e.APIError }

func lastRetryAfter(err error) time.Duration {
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.after
	}
	return 0
}

// once performs a single attempt. The pnclient.http fault point sits in front
// of the transport: ModeError simulates a connection-level failure (refused,
// reset) deterministically, ModeDelay a slow network.
func (c *Client) once(ctx context.Context, method, path string, payload []byte, headers map[string]string, out any) (*http.Response, error) {
	if err := faultinject.Fire(faultinject.PnclientHTTP); err != nil {
		return nil, err
	}
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tenant != "" {
		req.Header.Set(serve.TenantHeader, c.tenant)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	// Propagate the caller's trace context (obs.ContextWithSpanContext) so the
	// server binds the job into the same distributed trace.
	if sc, ok := obs.SpanContextFrom(ctx); ok {
		req.Header.Set("Traceparent", sc.Traceparent())
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		apiErr := &APIError{Status: resp.StatusCode, Msg: eb.Error}
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
				return nil, &retryAfterError{APIError: apiErr, after: time.Duration(secs) * time.Second}
			}
		}
		return nil, apiErr
	}
	if fn, ok := out.(func(line []byte) error); ok {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<28)
		for sc.Scan() {
			if line := sc.Bytes(); len(line) > 0 {
				if err := fn(line); err != nil {
					return nil, fmt.Errorf("pnclient: result line: %w", err)
				}
			}
		}
		return resp, sc.Err()
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return nil, fmt.Errorf("pnclient: decoding response: %w", err)
		}
	}
	return resp, nil
}

// Characterise submits a one-point job. idemKey, when non-empty, rides as the
// Idempotency-Key header — always set one for unattended submissions, or a
// retried request can create a second job.
func (c *Client) Characterise(ctx context.Context, req serve.CharacteriseRequest, idemKey string) (serve.JobStatus, error) {
	return c.submit(ctx, "/v1/characterise", req, idemKey)
}

// Sweep submits a multi-point job; see Characterise for idemKey.
func (c *Client) Sweep(ctx context.Context, req serve.SweepRequest, idemKey string) (serve.JobStatus, error) {
	return c.submit(ctx, "/v1/sweep", req, idemKey)
}

// Compose submits a PLL/clock-chain composition job; spec legs characterise
// server-side through the result cache. See Characterise for idemKey.
func (c *Client) Compose(ctx context.Context, req serve.ComposeRequest, idemKey string) (serve.JobStatus, error) {
	return c.submit(ctx, "/v1/compose", req, idemKey)
}

func (c *Client) submit(ctx context.Context, path string, body any, idemKey string) (serve.JobStatus, error) {
	var hdr map[string]string
	if idemKey != "" {
		hdr = map[string]string{"Idempotency-Key": idemKey}
	}
	var st serve.JobStatus
	_, err := c.do(ctx, http.MethodPost, path, body, hdr, &st)
	return st, err
}

// Job fetches the job's status; full adds a compose job's composition result
// (compose_result). Loss-free per-point results come from Results and
// StreamResults.
func (c *Client) Job(ctx context.Context, id string, full bool) (serve.JobStatus, error) {
	path := "/v1/jobs/" + id
	if full {
		path += "?full=1"
	}
	var st serve.JobStatus
	_, err := c.do(ctx, http.MethodGet, path, nil, nil, &st)
	return st, err
}

// Results fetches one page of the job's loss-free point results from the
// server's spill file: offset is the first point index, limit the page width
// (<= 0 lets the server default apply). Works on running jobs (a snapshot of
// what has spilled so far) and journal-recovered ones.
func (c *Client) Results(ctx context.Context, id string, offset, limit int) (serve.ResultsPage, error) {
	path := fmt.Sprintf("/v1/jobs/%s/results?offset=%d", id, offset)
	if limit > 0 {
		path += fmt.Sprintf("&limit=%d", limit)
	}
	var pg serve.ResultsPage
	_, err := c.do(ctx, http.MethodGet, path, nil, nil, &pg)
	return pg, err
}

// StreamResults downloads the job's loss-free results as a JSONL stream
// (GET /v1/jobs/{id}/results.jsonl), handing each line's bytes (one record,
// valid until fn returns) to fn in point-index order, never holding the
// whole result set. An error from fn ends the attempt like a transport
// failure, so a line cut short by a dying connection is fetched again.
// Delivery is at-least-once across retries, which re-fetch from the top, so
// consumers dedup by the record's index (sweep.SplitIndex).
func (c *Client) StreamResults(ctx context.Context, id string, fn func(line []byte) error) error {
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/results.jsonl", nil, nil, fn)
	return err
}

// Cancel trips the job's budget token; the job settles to "canceled"
// cooperatively.
func (c *Client) Cancel(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	_, err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, nil, &st)
	return st, err
}

// Renew extends a leased job's TTL on the worker (see
// serve.SweepRequest.LeaseTTLMS): the returned status doubles as the
// heartbeat payload — progress counters prove the worker is not just
// answering HTTP but actually advancing the job. Renewing a job without a
// lease is a harmless no-op.
func (c *Client) Renew(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	_, err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/renew", nil, nil, &st)
	return st, err
}

// Trace fetches the job's merged distributed timeline: every completed span
// the coordinator recorded or ingested for the job, with per-stage and
// per-process latency rollups.
func (c *Client) Trace(ctx context.Context, id string) (serve.JobTrace, error) {
	var jt serve.JobTrace
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, nil, &jt)
	return jt, err
}

// ClusterStatus fetches the server's live fleet view: worker health, breaker
// states, active leases, and queue depth. Against a plain (non-coordinator)
// server the worker and lease lists are empty.
func (c *Client) ClusterStatus(ctx context.Context) (serve.ClusterStatus, error) {
	var cs serve.ClusterStatus
	_, err := c.do(ctx, http.MethodGet, "/v1/cluster/status", nil, nil, &cs)
	return cs, err
}

// terminalState reports whether s is a terminal job state.
func terminalState(s string) bool {
	return s == serve.StateDone || s == serve.StateFailed || s == serve.StateCanceled
}

// Watch streams the job's events to fn, starting after sequence number
// `after` (0 = from the beginning), until the job goes terminal, ctx is
// cancelled, or the retry budget is exhausted reconnecting. A dropped
// connection — network blip, server restart — reconnects with Last-Event-ID,
// so fn sees a gap-free, strictly ordered sequence; events already delivered
// are never re-delivered by this client, even though the server's stream is
// at-least-once across its own crashes.
func (c *Client) Watch(ctx context.Context, id string, after int64, fn func(serve.Event)) error {
	failures := 0
	for {
		last, terminal, err := c.streamOnce(ctx, id, after, fn)
		if last > after {
			after = last
			failures = 0 // progress resets the reconnect budget
		}
		switch {
		case terminal:
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		case err != nil && !retryable(err):
			return err
		}
		failures++
		if failures >= c.retry.Attempts {
			if err == nil {
				err = errors.New("stream kept closing without a terminal event")
			}
			return fmt.Errorf("pnclient: watch %s failed after %d reconnects: %w", id, failures, err)
		}
		if serr := sleep(ctx, c.backoff(failures-1, lastRetryAfter(err))); serr != nil {
			return serr
		}
	}
}

// streamOnce runs one SSE connection and returns the last sequence number
// delivered and whether a terminal state event arrived. An io error mid-body
// is returned as nil error with terminal=false: the caller reconnects.
func (c *Client) streamOnce(ctx context.Context, id string, after int64, fn func(serve.Event)) (int64, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return after, false, err
	}
	if after > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(after, 10))
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return after, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		return after, false, &APIError{Status: resp.StatusCode, Msg: eb.Error}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	terminal := false
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return after, false, fmt.Errorf("pnclient: bad event payload: %w", err)
		}
		if ev.Seq <= after {
			continue // duplicate from an at-least-once replay: already delivered
		}
		after = ev.Seq
		fn(ev)
		if ev.Type == "state" && terminalState(ev.State) {
			terminal = true
		}
	}
	// A scan error or a clean close without a terminal event both mean the
	// connection died early (server restart, proxy timeout): reconnect.
	return after, terminal, nil
}

// Wait watches the job to completion (fn may be nil) and returns its final
// status; full adds a compose job's composition result, as in Job.
func (c *Client) Wait(ctx context.Context, id string, full bool, fn func(serve.Event)) (serve.JobStatus, error) {
	if fn == nil {
		fn = func(serve.Event) {}
	}
	if err := c.Watch(ctx, id, 0, fn); err != nil {
		return serve.JobStatus{}, err
	}
	return c.Job(ctx, id, full)
}
