#!/usr/bin/env bash
# End-to-end smoke test for pnserve: build the server, start it with a disk
# cache, submit a Hopf characterisation over HTTP, poll it to completion,
# resubmit the identical request and assert it is served from the result
# cache, then check the pn_serve_* / pn_cache_* metric families on /metrics.
# After a drain, a restart on the same journal directory must find one log
# per job and the payload blob, and serve the cache hit's loss-free result (a
# reference to that blob) byte for byte as the computed job's.
# A compose phase then submits several PLL composition jobs sharing two
# oscillator legs and asserts the legs characterised exactly once each — the
# cache fan-in the composition layer exists for.
# A second phase stands up a 2-worker cluster behind a coordinator
# (pnserve -coordinator), runs a sweep through the lease fabric, and asserts
# the fleet computed each point exactly once.
# Used by CI (serve-smoke job) and runnable locally: ./scripts/smoke_serve.sh
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
SERVER_PID=""
CLUSTER_PIDS=()

cleanup() {
  local pid
  for pid in ${CLUSTER_PIDS[@]+"${CLUSTER_PIDS[@]}"} "$SERVER_PID"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill -TERM "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
  echo "smoke_serve: FAIL: $*" >&2
  exit 1
}

# Extract a string or number field from a single-object JSON response.
json_field() { # json_field <key> <<< "$json"
  sed -n "s/.*\"$1\":\"\\{0,1\\}\\([^\",}]*\\)\"\\{0,1\\}.*/\\1/p"
}

echo "smoke_serve: building pnserve"
go build -o "$TMP/pnserve" ./cmd/pnserve

echo "smoke_serve: starting on $BASE (cache $TMP/cache, journal $TMP/journal)"
"$TMP/pnserve" -addr "127.0.0.1:$PORT" -workers 2 -cache-dir "$TMP/cache" \
  -journal-dir "$TMP/journal" \
  >"$TMP/server.log" 2>&1 &
SERVER_PID=$!

# Gate on readiness, not liveness: /readyz answers 503 until journal replay
# completes, exactly like a load balancer would wait.
for i in $(seq 1 50); do
  if curl -sf "$BASE/readyz" >/dev/null 2>&1; then break; fi
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$TMP/server.log" >&2; fail "server exited early"; }
  sleep 0.2
  [[ $i -eq 50 ]] && fail "server never became ready"
done
curl -sf "$BASE/healthz" >/dev/null || fail "liveness probe failed on a ready server"

REQ='{"model":"hopf","timeout_ms":60000}'

submit_and_wait() { # submit_and_wait -> prints terminal job JSON
  local resp id state job
  resp="$(curl -sf "$BASE/v1/characterise" -d "$REQ")" || fail "submit failed"
  id="$(json_field id <<<"$resp")"
  [[ -n "$id" ]] || fail "no job id in response: $resp"
  for i in $(seq 1 300); do
    job="$(curl -sf "$BASE/v1/jobs/$id")" || fail "status fetch failed for $id"
    state="$(json_field state <<<"$job")"
    case "$state" in
      done) echo "$job"; return 0 ;;
      failed|canceled) fail "job $id ended $state: $job" ;;
    esac
    sleep 0.2
  done
  fail "job $id never finished: $job"
}

echo "smoke_serve: first submission (cold cache)"
first="$(submit_and_wait)"
grep -q '"cached_points":0' <<<"$first" || fail "cold run reported cached points: $first"
grep -q '"ok":true' <<<"$first" || fail "cold run point not ok: $first"

echo "smoke_serve: identical resubmission (must hit the cache)"
second="$(submit_and_wait)"
grep -q '"cached_points":1' <<<"$second" || fail "resubmit missed the cache: $second"
grep -q '"cached":true' <<<"$second" || fail "resubmit point not marked cached: $second"

c1="$(json_field c_s2hz <<<"$first")"
c2="$(json_field c_s2hz <<<"$second")"
[[ -n "$c1" && "$c1" == "$c2" ]] || fail "cached c differs: $c1 vs $c2"

echo "smoke_serve: checking /metrics"
metrics="$(curl -sf "$BASE/metrics")" || fail "metrics scrape failed"
grep -q 'pn_serve_jobs_total{state="done"} 2' <<<"$metrics" \
  || fail "expected 2 done jobs in metrics"
grep -q 'pn_serve_submitted_total{kind="characterise"} 2' <<<"$metrics" \
  || fail "expected 2 submissions in metrics"
grep -q 'pn_cache_hits_total{tier="mem"} 1' <<<"$metrics" \
  || fail "expected 1 in-memory cache hit"
grep -q 'pn_cache_misses_total 1' <<<"$metrics" || fail "expected 1 cache miss"
grep -q 'pn_core_characterisations_total{outcome="ok"} 1' <<<"$metrics" \
  || fail "expected exactly 1 pipeline run (resubmit must not recompute)"

# --- Compose phase: N compose jobs fan in on 2 cached characterisations ----

COMPOSE_N=6
echo "smoke_serve: submitting $COMPOSE_N compose jobs over 2 shared oscillator legs"
compose_ids=()
for i in $(seq 1 "$COMPOSE_N"); do
  omega=$((3 + i % 2))  # legs rotate over omega=3 and omega=4
  bw="0.0$((20 + i))"   # distinct loop bandwidths: distinct jobs, same legs
  creq='{"stages":[{"ref":{"name":"xo","f0_hz":0.1,"c_s2hz":1e-24},"vco":{"spec":{"name":"leg'"$omega"'","model":"hopf","params":{"lambda":1,"omega":'"$omega"',"sigma":0.02}}},"loop_bandwidth_hz":'"$bw"'}],"grid":{"start_hz":0.001,"stop_hz":100},"jitter_band_hz":[0.01,10],"timeout_ms":60000}'
  resp="$(curl -sf "$BASE/v1/compose" -d "$creq")" || fail "compose submit $i failed"
  compose_ids+=("$(json_field id <<<"$resp")")
done
for id in "${compose_ids[@]}"; do
  [[ -n "$id" ]] || fail "compose submission returned no job id"
  cjob=""
  for i in $(seq 1 300); do
    cjob="$(curl -sf "$BASE/v1/jobs/$id")" || fail "compose status fetch failed for $id"
    state="$(json_field state <<<"$cjob")"
    case "$state" in
      done) break ;;
      failed|canceled) fail "compose job $id ended $state: $cjob" ;;
    esac
    sleep 0.2
    [[ $i -eq 300 ]] && fail "compose job $id never finished: $cjob"
  done
  grep -q '"jitter_sec":' <<<"$cjob" || fail "compose job $id carried no jitter: $cjob"
done

echo "smoke_serve: checking compose fan-in ($COMPOSE_N jobs, 2 characterisations)"
metrics="$(curl -sf "$BASE/metrics")" || fail "metrics scrape failed"
grep -q "pn_serve_submitted_total{kind=\"compose\"} $COMPOSE_N" <<<"$metrics" \
  || fail "expected $COMPOSE_N compose submissions in metrics"
grep -q "pn_pll_compositions_total{outcome=\"ok\"} $COMPOSE_N" <<<"$metrics" \
  || fail "expected $COMPOSE_N ok compositions in metrics"
# 1 pipeline run from the characterise phase plus exactly 1 per distinct leg:
# every other compose job's legs must be served from the result cache.
grep -q 'pn_core_characterisations_total{outcome="ok"} 3' <<<"$metrics" \
  || fail "compose legs were not shared: want exactly 3 total pipeline runs"

echo "smoke_serve: graceful drain"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "server exited non-zero on drain"
SERVER_PID=""

# The "result" member of a one-point results.jsonl download.
result_member() { # result_member <file>
  sed -e 's/^.*"result"://' -e 's/,"pss_is_result":.*$//' "$1"
}

echo "smoke_serve: restart on the same journal directory"
"$TMP/pnserve" -addr "127.0.0.1:$PORT" -workers 2 -cache-dir "$TMP/cache" \
  -journal-dir "$TMP/journal" \
  >"$TMP/restart.log" 2>&1 &
SERVER_PID=$!
for i in $(seq 1 50); do
  if curl -sf "$BASE/readyz" >/dev/null 2>&1; then break; fi
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$TMP/restart.log" >&2; fail "restarted server exited early"; }
  sleep 0.2
  [[ $i -eq 50 ]] && fail "restarted server never became ready"
done
# One log per job: every retained job (2 characterise, $COMPOSE_N compose) is
# one <id>.wal at the top level, and the hit's payload blob sits in blobs/.
ls "$TMP/journal/blobs/"*.wal >/dev/null 2>&1 || fail "no payload blob under the journal directory's blobs/"
[[ ! -e "$TMP/journal/results" && ! -e "$TMP/journal/traces" ]] \
  || fail "the journal directory still has a results/ or traces/ directory"
nlogs="$(find "$TMP/journal" -maxdepth 1 -type f -name '*.wal' | wc -l)"
[[ "$nlogs" -eq $((2 + COMPOSE_N)) ]] \
  || fail "the journal directory holds $nlogs job logs, want one per retained job ($((2 + COMPOSE_N)))"
for which in first second; do
  id="$(json_field id <<<"${!which}")"
  curl -sf "$BASE/v1/jobs/$id/results.jsonl" >"$TMP/$which.jsonl" \
    || fail "results.jsonl of $which job $id failed after the restart"
  [[ "$(wc -l <"$TMP/$which.jsonl")" -eq 1 ]] || fail "$which job $id served $(wc -l <"$TMP/$which.jsonl") lines after the restart"
  result_member "$TMP/$which.jsonl" >"$TMP/$which.result"
done
grep -q '^{"pss":' "$TMP/first.result" || fail "the computed job's line has no result member"
cmp -s "$TMP/first.result" "$TMP/second.result" \
  || fail "after the restart the cache hit's result differs from the computed job's"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "restarted server exited non-zero on drain"
SERVER_PID=""

# --- Cluster phase: 2 workers + a lease coordinator -------------------------

wait_ready() { # wait_ready <base> <pid> <name>
  local i
  for i in $(seq 1 50); do
    if curl -sf "$1/readyz" >/dev/null 2>&1; then return 0; fi
    kill -0 "$2" 2>/dev/null || fail "$3 exited early"
    sleep 0.2
  done
  fail "$3 never became ready"
}

metric_count() { # metric_count <base> <series> -> integer (0 if absent)
  local v
  v="$(curl -sf "$1/metrics" | sed -n "s/^$2 \([0-9][0-9]*\)$/\1/p" | head -1)"
  echo "${v:-0}"
}

W1="http://127.0.0.1:$((PORT + 1))"
W2="http://127.0.0.1:$((PORT + 2))"
COORD="http://127.0.0.1:$((PORT + 3))"

echo "smoke_serve: cluster phase — starting 2 workers and a coordinator"
"$TMP/pnserve" -addr "127.0.0.1:$((PORT + 1))" -workers 1 \
  -cache-dir "$TMP/ccache" >"$TMP/w1.log" 2>&1 &
CLUSTER_PIDS+=($!)
"$TMP/pnserve" -addr "127.0.0.1:$((PORT + 2))" -workers 1 \
  -cache-dir "$TMP/ccache" >"$TMP/w2.log" 2>&1 &
CLUSTER_PIDS+=($!)
wait_ready "$W1" "${CLUSTER_PIDS[0]}" "worker 1"
wait_ready "$W2" "${CLUSTER_PIDS[1]}" "worker 2"

"$TMP/pnserve" -addr "127.0.0.1:$((PORT + 3))" -workers 2 \
  -coordinator "$W1,$W2" -lease-points 2 \
  -cache-dir "$TMP/ccache" -journal-dir "$TMP/cjournal" \
  >"$TMP/coord.log" 2>&1 &
CLUSTER_PIDS+=($!)
wait_ready "$COORD" "${CLUSTER_PIDS[2]}" "coordinator"
grep -q 'coordinator for 2 worker nodes' "$TMP/coord.log" \
  || fail "coordinator did not announce its worker fleet"

SWEEP='{"points":[{"name":"c0","model":"hopf","params":{"lambda":1,"omega":3,"sigma":0.02}},{"name":"c1","model":"hopf","params":{"lambda":1,"omega":4,"sigma":0.02}},{"name":"c2","model":"hopf","params":{"lambda":1,"omega":5,"sigma":0.02}},{"name":"c3","model":"hopf","params":{"lambda":1,"omega":6,"sigma":0.02}}],"timeout_ms":120000}'

echo "smoke_serve: sweeping 4 points through the lease fabric"
resp="$(curl -sf "$COORD/v1/sweep" -d "$SWEEP")" || fail "cluster sweep submit failed"
cid="$(json_field id <<<"$resp")"
[[ -n "$cid" ]] || fail "no job id in cluster response: $resp"
cjob=""
for i in $(seq 1 600); do
  cjob="$(curl -sf "$COORD/v1/jobs/$cid")" || fail "cluster status fetch failed for $cid"
  cstate="$(json_field state <<<"$cjob")"
  case "$cstate" in
    done) break ;;
    failed|canceled) fail "cluster job $cid ended $cstate: $cjob" ;;
  esac
  sleep 0.2
  [[ $i -eq 600 ]] && fail "cluster job $cid never finished: $cjob"
done
grep -q '"done_points":4' <<<"$cjob" || fail "cluster sweep incomplete: $cjob"
grep -q '"failed_points":0' <<<"$cjob" || fail "cluster sweep had failures: $cjob"

echo "smoke_serve: checking cluster metrics"
completed="$(metric_count "$COORD" 'pn_cluster_leases_total{outcome="completed"}')"
[[ "$completed" -ge 1 ]] || fail "coordinator completed no leases"
requeued="$(metric_count "$COORD" 'pn_cluster_leases_total{outcome="requeued"}')"
[[ "$requeued" -eq 0 ]] || fail "healthy fleet requeued $requeued leases"
ok1="$(metric_count "$W1" 'pn_core_characterisations_total{outcome="ok"}')"
ok2="$(metric_count "$W2" 'pn_core_characterisations_total{outcome="ok"}')"
[[ $((ok1 + ok2)) -eq 4 ]] \
  || fail "fleet computed $((ok1 + ok2)) points, want exactly 4 (w1=$ok1 w2=$ok2)"

echo "smoke_serve: checking the trace and fleet-status surfaces"
spans="$(metric_count "$COORD" 'pn_trace_spans_total')"
[[ "$spans" -ge 1 ]] || fail "coordinator recorded no trace spans (pn_trace_spans_total=$spans)"
pulls="$(metric_count "$COORD" 'pn_cluster_trace_pulls_total{outcome="ok"}')"
[[ "$pulls" -ge 1 ]] || fail "coordinator pulled no worker traces (pn_cluster_trace_pulls_total{ok}=$pulls)"
trace="$(curl -sf "$COORD/v1/jobs/$cid/trace")" || fail "trace fetch failed for $cid"
tid="$(json_field trace_id <<<"$trace")"
[[ -n "$tid" ]] || fail "cluster job has no trace id: $trace"
grep -q '"cluster.lease"' <<<"$trace" || fail "timeline lacks coordinator lease spans: $trace"
grep -q '"serve.job"' <<<"$trace" || fail "timeline lacks serve.job spans: $trace"
# The worker batches were pulled on lease settle, so the merged timeline must
# carry spans from at least two distinct processes (coordinator + a worker).
nprocs="$(grep -o '"proc":"[^"]*"' <<<"$trace" | sort -u | wc -l)"
[[ "$nprocs" -ge 2 ]] \
  || fail "timeline spans come from $nprocs process(es), want >= 2 (worker pulls missing)"
status="$(curl -sf "$COORD/v1/cluster/status")" || fail "cluster status fetch failed"
grep -q '"coordinator":true' <<<"$status" || fail "status surface lacks coordinator flag: $status"
grep -q '"healthy":true' <<<"$status" || fail "status surface reports no healthy workers: $status"

echo "smoke_serve: draining the cluster"
for pid in "${CLUSTER_PIDS[2]}" "${CLUSTER_PIDS[1]}" "${CLUSTER_PIDS[0]}"; do
  kill -TERM "$pid"
  wait "$pid" || fail "cluster process $pid exited non-zero on drain"
done
CLUSTER_PIDS=()

# --- Overload phase: streamed/paginated results + per-tenant quotas ---------

TBASE="http://127.0.0.1:$((PORT + 4))"
echo "smoke_serve: overload phase — tenant quotas, paginated and streamed results"
"$TMP/pnserve" -addr "127.0.0.1:$((PORT + 4))" -workers 2 \
  -cache-dir "$TMP/tcache" -journal-dir "$TMP/tjournal" \
  -tenant-quotas 'throttled=1:1:0:1' \
  >"$TMP/tenant.log" 2>&1 &
SERVER_PID=$!
wait_ready "$TBASE" "$SERVER_PID" "overload-phase server"

RSWEEP='{"points":[{"name":"p0","model":"hopf","params":{"lambda":1,"omega":7,"sigma":0.02}},{"name":"p1","model":"hopf","params":{"lambda":1,"omega":8,"sigma":0.02}},{"name":"p2","model":"hopf","params":{"lambda":1,"omega":9,"sigma":0.02}},{"name":"p3","model":"hopf","params":{"lambda":1,"omega":10,"sigma":0.02}},{"name":"p4","model":"hopf","params":{"lambda":1,"omega":11,"sigma":0.02}}],"timeout_ms":120000}'
resp="$(curl -sf "$TBASE/v1/sweep" -d "$RSWEEP")" || fail "overload-phase sweep submit failed"
rid="$(json_field id <<<"$resp")"
[[ -n "$rid" ]] || fail "no job id in overload-phase response: $resp"
for i in $(seq 1 300); do
  rjob="$(curl -sf "$TBASE/v1/jobs/$rid")" || fail "status fetch failed for $rid"
  rstate="$(json_field state <<<"$rjob")"
  case "$rstate" in
    done) break ;;
    failed|canceled) fail "overload-phase job $rid ended $rstate: $rjob" ;;
  esac
  sleep 0.2
  [[ $i -eq 300 ]] && fail "overload-phase job $rid never finished: $rjob"
done

echo "smoke_serve: paginated results window"
page="$(curl -sf "$TBASE/v1/jobs/$rid/results?offset=0&limit=2")" || fail "paginated results fetch failed"
grep -q '"total":5' <<<"$page" || fail "results page total wrong: $page"
grep -q '"spilled":5' <<<"$page" || fail "results page spilled wrong: $page"
grep -q '"next_offset":2' <<<"$page" || fail "results page cursor wrong: $page"
npage="$(grep -o '"index":' <<<"$page" | wc -l)"
[[ "$npage" -eq 2 ]] || fail "results page carried $npage results, want 2"

echo "smoke_serve: streaming JSONL download"
curl -sf "$TBASE/v1/jobs/$rid/results.jsonl" >"$TMP/results.jsonl" \
  || fail "results.jsonl fetch failed"
nlines="$(wc -l <"$TMP/results.jsonl")"
[[ "$nlines" -eq 5 ]] || fail "results.jsonl carried $nlines lines, want 5"
nfull="$(grep -c '"result":' "$TMP/results.jsonl")"
[[ "$nfull" -eq 5 ]] || fail "only $nfull/5 jsonl lines carry the loss-free payload"

echo "smoke_serve: per-tenant quota enforcement"
code="$(curl -s -o /dev/null -w '%{http_code}' -H 'X-PN-Tenant: throttled' -d "$REQ" "$TBASE/v1/characterise")"
[[ "$code" == "202" ]] || fail "throttled tenant's first submit answered $code, want 202"
over="$(curl -si -H 'X-PN-Tenant: throttled' -d "$REQ" "$TBASE/v1/characterise")"
grep -q '^HTTP/[0-9.]* 429' <<<"$over" || fail "throttled tenant's burst-exceeding submit was not 429: $over"
grep -qi '^retry-after: [0-9]' <<<"$over" || fail "tenant 429 carried no Retry-After: $over"
code="$(curl -s -o /dev/null -w '%{http_code}' -d "$REQ" "$TBASE/v1/characterise")"
[[ "$code" == "202" ]] || fail "default tenant was collateral damage of the throttled one: $code"

echo "smoke_serve: checking overload metrics"
rejected="$(metric_count "$TBASE" 'pn_serve_tenant_rejected_total{tenant="throttled"}')"
[[ "$rejected" -ge 1 ]] || fail "throttled tenant's rejection was not counted"
spilled="$(metric_count "$TBASE" 'pn_serve_results_spilled_total')"
[[ "$spilled" -ge 5 ]] || fail "expected >= 5 spilled results, got $spilled"

echo "smoke_serve: draining the overload-phase server"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "overload-phase server exited non-zero on drain"
SERVER_PID=""

echo "smoke_serve: PASS"
