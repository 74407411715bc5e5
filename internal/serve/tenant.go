package serve

import (
	"math"
	"sync"
	"time"
)

// Multi-tenant admission control: every submission carries a tenant identity
// (the X-PN-Tenant header; absent means DefaultTenant), and each tenant is
// admitted against its own token-bucket submit quota and in-flight cap before
// the job touches the journal or the queue. One tenant hammering the API gets
// its own 429s — with a Retry-After computed from its own bucket deficit —
// while every other tenant's requests sail through; downstream, the
// weighted-fair scheduler (sched.go) keeps the slot pool shared by weight
// rather than by arrival order. Rejection reasons are split out in
// pn_serve_rejected_total (tenant_rate, tenant_inflight) and per-tenant in
// pn_serve_tenant_rejected_total.

// TenantHeader is the HTTP header naming the submitting tenant.
const TenantHeader = "X-PN-Tenant"

// DefaultTenant is the identity of requests that carry no tenant header.
const DefaultTenant = "default"

// TenantConfig is one tenant's admission and scheduling policy. The zero
// value means unlimited submissions, unlimited in-flight jobs, weight 1.
type TenantConfig struct {
	// SubmitRate is the token-bucket refill rate in submissions per second;
	// 0 (or negative) disables rate limiting for the tenant.
	SubmitRate float64
	// SubmitBurst is the bucket capacity — how many submissions can land
	// back-to-back before the rate applies. Defaults to ceil(SubmitRate),
	// minimum 1, when rate limiting is on.
	SubmitBurst int
	// MaxInFlight caps the tenant's accepted-but-not-finished jobs (queued +
	// running); 0 means unlimited.
	MaxInFlight int
	// Weight is the tenant's share of the slot pool under contention
	// (see sched.go); <= 0 means 1.
	Weight float64
}

func (tc TenantConfig) withDefaults() TenantConfig {
	if tc.SubmitRate > 0 && tc.SubmitBurst <= 0 {
		tc.SubmitBurst = int(math.Ceil(tc.SubmitRate))
		if tc.SubmitBurst < 1 {
			tc.SubmitBurst = 1
		}
	}
	if tc.Weight <= 0 {
		tc.Weight = 1
	}
	return tc
}

// validTenant bounds tenant names to a path- and label-safe alphabet (the
// name becomes a metric label and could appear in file names).
func validTenant(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// tenantState is one tenant's live admission state: a lazily refilled token
// bucket plus the in-flight job count.
type tenantState struct {
	cfg      TenantConfig
	tokens   float64
	last     time.Time
	inflight int
}

// tenants is the admission table. now is injectable for deterministic quota
// boundary tests.
type tenants struct {
	mu       sync.Mutex
	defaults TenantConfig
	perTen   map[string]TenantConfig
	state    map[string]*tenantState
	now      func() time.Time
}

func newTenants(defaults TenantConfig, per map[string]TenantConfig) *tenants {
	t := &tenants{
		defaults: defaults.withDefaults(),
		perTen:   make(map[string]TenantConfig, len(per)),
		state:    make(map[string]*tenantState),
		now:      time.Now,
	}
	for name, cfg := range per {
		t.perTen[name] = cfg.withDefaults()
	}
	return t
}

// get lazily materialises a tenant's state; callers hold t.mu.
func (t *tenants) get(name string) *tenantState {
	ts, ok := t.state[name]
	if !ok {
		cfg, ok := t.perTen[name]
		if !ok {
			cfg = t.defaults
		}
		ts = &tenantState{cfg: cfg, last: t.now()}
		if cfg.SubmitRate > 0 {
			ts.tokens = float64(cfg.SubmitBurst) // buckets start full
		}
		t.state[name] = ts
	}
	return ts
}

// weight reports the tenant's fair-share weight for the scheduler.
func (t *tenants) weight(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.get(name).cfg.Weight
}

// admit charges one submission against the tenant's quota and claims an
// in-flight slot. On acceptance it returns ("", 0); on rejection, the reason
// ("tenant_rate" or "tenant_inflight") and the Retry-After to advertise.
// Accepted submissions that fail later (queue full, draining, idempotency
// race) must call unadmit to return both the token and the slot.
func (t *tenants) admit(name string) (reason string, retryAfter time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.get(name)
	if ts.cfg.SubmitRate > 0 {
		now := t.now()
		ts.tokens += now.Sub(ts.last).Seconds() * ts.cfg.SubmitRate
		if burst := float64(ts.cfg.SubmitBurst); ts.tokens > burst {
			ts.tokens = burst
		}
		ts.last = now
		if ts.tokens < 1 {
			// Advertise when the next whole token lands, rounded up: a client
			// sleeping exactly this long will be admitted.
			deficit := (1 - ts.tokens) / ts.cfg.SubmitRate
			return "tenant_rate", time.Duration(math.Ceil(deficit)) * time.Second
		}
	}
	if ts.cfg.MaxInFlight > 0 && ts.inflight >= ts.cfg.MaxInFlight {
		return "tenant_inflight", time.Second
	}
	if ts.cfg.SubmitRate > 0 {
		ts.tokens--
	}
	ts.inflight++
	return "", 0
}

// unadmit rolls back an admit whose submission was rejected downstream.
func (t *tenants) unadmit(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.get(name)
	if ts.cfg.SubmitRate > 0 {
		if ts.tokens++; ts.tokens > float64(ts.cfg.SubmitBurst) {
			ts.tokens = float64(ts.cfg.SubmitBurst)
		}
	}
	if ts.inflight > 0 {
		ts.inflight--
	}
}

// restore claims an in-flight slot without charging the bucket — journal
// recovery re-registering jobs that were admitted by a previous process.
func (t *tenants) restore(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.get(name).inflight++
}

// release frees the tenant's in-flight slot when its job goes terminal.
func (t *tenants) release(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ts := t.get(name); ts.inflight > 0 {
		ts.inflight--
	}
}
