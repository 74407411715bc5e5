// Command pnserve runs the characterisation-as-a-service job server: an HTTP
// JSON API (internal/serve) that characterises registered oscillator models —
// single points or parameter sweeps — on one pool of -workers execution slots
// (default GOMAXPROCS), in front of the content-addressed result cache
// (internal/cache). Each slot runs one point at a time.
//
// Usage:
//
//	pnserve [-addr :8080] [-workers n] [-queue n]
//	        [-cache-dir dir] [-cache-mem bytes] [-journal-dir dir]
//	        [-coordinator url,url,...] [-lease-ttl d] [-lease-points n]
//	        [-job-timeout d] [-drain-timeout d]
//	        [-tenant-rate r] [-tenant-burst n] [-tenant-inflight n]
//	        [-tenant-quotas name=rate:burst:inflight:weight,...]
//	        [-debug-addr :6060] [-cpuprofile f] [-memprofile f] [-trace-out f]
//
// The API surface (see internal/serve for details):
//
//	POST /v1/characterise          {"model":"hopf","params":{...}}       → job
//	POST /v1/sweep                 {"points":[...],"timeout_ms":60000}   → job
//	GET  /v1/jobs/{id}             job status (+?full=1 for a compose job's compose_result)
//	GET  /v1/jobs/{id}/results     loss-free results, paginated (?offset=&limit=)
//	GET  /v1/jobs/{id}/results.jsonl  loss-free results as a JSONL stream
//	GET  /v1/jobs/{id}/events      live progress as Server-Sent Events
//	GET  /v1/jobs/{id}/trace       the job's distributed trace timeline (+?format=jsonl for raw events)
//	POST /v1/jobs/{id}/cancel      cancel a queued or running job
//	GET  /v1/cluster/status        live fleet view (workers, breakers, leases, queue depth)
//	GET  /v1/models                registered models and their defaults
//	GET  /healthz                  liveness (always 200)
//	GET  /readyz                   readiness (503 while draining or replaying the journal)
//	GET  /metrics                  Prometheus text metrics (pn_serve_*, pn_cache_*, …)
//	GET  /debug/pprof/             the standard pprof handlers
//
// Submissions may carry an X-PN-Tenant header naming the submitting tenant
// (absent = "default"); -tenant-rate/-tenant-burst/-tenant-inflight set every
// tenant's admission quota, -tenant-quotas overrides individual tenants, and
// the scheduler shares the slots across tenants by weight, one point per
// grant, with interactive jobs (characterise, compose) in a strict-priority
// lane above batch sweeps.
// -cache-dir persists results across restarts and shares them with pnsweep
// and pnchar runs pointed at the same directory; -cache-mem bounds the
// in-memory tier. -journal-dir makes jobs durable: accepted jobs are
// journaled before the 202 goes out, and a crashed or killed server replays
// the directory on restart — terminal jobs come back queryable, interrupted
// jobs resume with their completed points served from the result cache (pair
// it with -cache-dir, or the resumed job recomputes). SIGINT/SIGTERM drain
// gracefully: intake stops (503), queued and running jobs finish, and after
// -drain-timeout whatever is still running is cancelled through its budget
// token.
//
// -coordinator turns the node into a cluster coordinator (internal/cluster):
// it keeps the full front-door lifecycle — journal, idempotency, SSE — but
// executes sweeps by leasing point ranges to the listed worker nodes (plain
// pnserve instances), heartbeating each lease and reassigning it if a worker
// dies mid-lease. Point the workers and the coordinator at one shared
// -cache-dir volume so a point computed anywhere is a cache hit everywhere —
// that sharing is what makes lease reassignment exactly-once in effect.
// -lease-ttl is the worker-side self-cancel window (a worker orphaned by a
// dead coordinator stops computing after one TTL), -lease-points the lease
// granularity. With -journal-dir set, lease dispatch state is journalled
// under <journal-dir>/leases, so a SIGKILLed coordinator resumes its leases
// on restart instead of re-running them from scratch.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cliobs"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pnserve: ")
	// All work happens in run so its defers — profile writers, the trace
	// file, the debug server — run before the process exits.
	os.Exit(run())
}

// parseTenantQuotas parses -tenant-quotas: comma-separated
// name=rate:burst:inflight:weight entries, where trailing fields may be
// omitted and empty fields inherit the -tenant-* defaults.
func parseTenantQuotas(spec string, def serve.TenantConfig) (map[string]serve.TenantConfig, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	out := make(map[string]serve.TenantConfig)
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		name, quota, ok := strings.Cut(ent, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenant-quotas entry %q: want name=rate:burst:inflight:weight", ent)
		}
		cfg := def
		for i, f := range strings.Split(quota, ":") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("-tenant-quotas entry %q field %d: %v", ent, i+1, err)
			}
			switch i {
			case 0:
				cfg.SubmitRate = v
			case 1:
				cfg.SubmitBurst = int(v)
			case 2:
				cfg.MaxInFlight = int(v)
			case 3:
				cfg.Weight = v
			default:
				return nil, fmt.Errorf("-tenant-quotas entry %q: too many fields", ent)
			}
		}
		out[name] = cfg
	}
	return out, nil
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "execution slots: points (or coordinator-delegated jobs) run at once")
	queue := flag.Int("queue", 16, "queued-job bound (submissions beyond it get 429)")
	cacheDir := flag.String("cache-dir", "", "persist characterisation results in this directory (empty = memory only)")
	cacheMem := flag.Int64("cache-mem", cache.DefaultMaxBytes, "in-memory result cache bound in bytes")
	journalDir := flag.String("journal-dir", "", "journal jobs in this directory and recover them on restart (empty = jobs die with the process)")
	coordinator := flag.String("coordinator", "", "comma-separated worker base URLs: run as a cluster coordinator leasing sweeps to them (empty = execute in process)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "coordinator mode: worker-side lease self-cancel window, renewed by heartbeat")
	leasePoints := flag.Int("lease-points", 0, "coordinator mode: points per lease (0 = default)")
	jobTimeout := flag.Duration("job-timeout", 0, "ceiling on any job's wall clock, on top of per-request timeout_ms (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain grace before in-flight jobs are cancelled")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant submit rate in jobs/second, applied to every tenant without a -tenant-quotas override (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant submit burst on top of -tenant-rate (0 = ceil(rate))")
	tenantInflight := flag.Int("tenant-inflight", 0, "per-tenant cap on accepted-but-unfinished jobs (0 = unlimited)")
	tenantQuotas := flag.String("tenant-quotas", "", "per-tenant overrides, comma-separated name=rate:burst:inflight:weight; empty fields fall back to the -tenant-* defaults")
	obsFlags := cliobs.Register(flag.CommandLine)
	flag.Parse()

	stopObs, err := obsFlags.Start()
	if err != nil {
		log.Print(err)
		return 1
	}
	defer stopObs()
	// A server always exposes /metrics, debug flags or not; install the
	// registry if cliobs did not already.
	if !obs.Enabled() {
		obs.SetGlobal(obs.NewRegistry())
	}

	store, err := cache.New(cache.Options{MaxBytes: *cacheMem, Dir: *cacheDir})
	if err != nil {
		log.Print(err)
		return 1
	}

	var runner serve.SweepRunner
	var clusterStatus func() ([]serve.WorkerStatus, []serve.LeaseStatus)
	var workerURLs []string
	if *coordinator != "" {
		for _, u := range strings.Split(*coordinator, ",") {
			if u = strings.TrimSpace(u); u != "" {
				workerURLs = append(workerURLs, strings.TrimRight(u, "/"))
			}
		}
		// Lease dispatch state lives in a subdirectory of the job journal so
		// the server's own replay scan never mistakes a lease WAL for a job
		// journal; without -journal-dir, leases are not resumable (same
		// durability contract as the jobs themselves).
		walDir := ""
		if *journalDir != "" {
			walDir = filepath.Join(*journalDir, "leases")
		}
		coord := cluster.New(cluster.Config{
			Workers:     workerURLs,
			LeasePoints: *leasePoints,
			LeaseTTL:    *leaseTTL,
			WALDir:      walDir,
			Cache:       store,
		})
		defer coord.Close()
		runner = coord
		clusterStatus = coord.Status
	}

	tenantDefaults := serve.TenantConfig{
		SubmitRate:  *tenantRate,
		SubmitBurst: *tenantBurst,
		MaxInFlight: *tenantInflight,
	}
	perTenant, err := parseTenantQuotas(*tenantQuotas, tenantDefaults)
	if err != nil {
		log.Print(err)
		return 1
	}

	srv := serve.New(serve.Config{
		Workers:        *workers,
		Queue:          *queue,
		Cache:          store,
		MaxJobWall:     *jobTimeout,
		JournalDir:     *journalDir,
		Runner:         runner,
		ClusterStatus:  clusterStatus,
		TenantDefaults: tenantDefaults,
		Tenants:        perTenant,
	})

	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.Handle("/metrics", obs.MetricsHandler(nil))
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Listen explicitly (rather than ListenAndServe) so the resolved address
	// is printable: with -addr :0 the kernel picks the port, and harnesses
	// (the crash-recovery e2e test, scripts) parse it from this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	fmt.Fprintf(os.Stderr, "pnserve: listening on %s (%d slots, queue %d, cache-mem %d, cache-dir %q, journal-dir %q, GOMAXPROCS %d)\n",
		ln.Addr(), *workers, *queue, *cacheMem, *cacheDir, *journalDir, runtime.GOMAXPROCS(0))
	if len(workerURLs) > 0 {
		fmt.Fprintf(os.Stderr, "pnserve: coordinator for %d worker nodes (lease-ttl %v): %s\n",
			len(workerURLs), *leaseTTL, strings.Join(workerURLs, " "))
	}

	select {
	case err := <-errc:
		log.Printf("http server: %v", err)
		return 1
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "pnserve: %v — draining (grace %v; signal again to abort)\n", sig, *drainTimeout)
	}
	go func() {
		<-sigc
		os.Exit(130)
	}()

	// Drain order: flip /readyz to 503 first so load balancers, health
	// probers and cluster coordinators route new work away while this node
	// can still answer HTTP; then stop the listener so no submission can
	// slip in after the job queue closes; then drain the job server under
	// the grace.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "pnserve: drain grace expired — cancelled in-flight jobs")
	}
	return 0
}
