# Tier-1 verification: formatting, build, full test suite, vet, and a
# race-detector pass over every package (the sweep engine, Monte-Carlo
# ensembles, and the budget token thread concurrency through the whole stack).
# Run `make verify` before every PR. CI (.github/workflows/ci.yml) runs the
# same steps.

GO ?= go

.PHONY: verify fmt build test vet race fuzz chaos chaos-cluster bench bench-json bench-compare smoke-serve

verify: fmt build test vet race

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -timeout 10m ./...

# Fuzzing: each native fuzz target for 15 s (the decoders of crash-torn or
# foreign bytes: the log scanner, journal replay, the result store's
# reference records and payload blobs, the non-finite float codec, the
# loss-free result codecs, the record index splitter the coordinator
# re-indexes worker lines with, the cache's disk envelope, the cache's JSON
# check against json.Valid and the sweep and compose request bodies). Their seed
# inputs also run as plain tests under `make test`. Minimization is capped so
# a new input does not eat the whole budget. CI runs the same target (fuzz
# job).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzReferenceRecord$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzWfloat$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/wfloat/
	$(GO) test -run '^$$' -fuzz '^FuzzPointResultJSON$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/sweep/
	$(GO) test -run '^$$' -fuzz '^FuzzSplitIndex$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/sweep/
	$(GO) test -run '^$$' -fuzz '^FuzzResultJSON$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzDiskGet$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/cache/
	$(GO) test -run '^$$' -fuzz '^FuzzValid$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/cache/
	$(GO) test -run '^$$' -fuzz '^FuzzSweepRequest$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzComposeRequest$$' -fuzztime 15s -fuzzminimizetime 5s ./internal/serve/

# Fault-injection (chaos) suite under the race detector: the faultinject
# package itself, the named-fault consumers in cache/sweep/osc/serve
# (journal durability, readiness lifecycle, injected I/O and model faults),
# and the SIGKILL crash-recovery e2e in cmd/pnserve. CI runs the same
# commands (chaos job).
chaos:
	$(GO) test -race -timeout 10m ./internal/faultinject/
	$(GO) test -race -timeout 15m \
		-run 'TestChaos|TestFault|TestJournal|TestReadyz|TestCrashRecovery' \
		./internal/cache/ ./internal/sweep/ ./internal/osc/ ./internal/serve/ ./internal/pll/ ./cmd/pnserve

# Cluster-fabric chaos suite under the race detector: lease expiry and renewal
# on the worker side, the coordinator's injected dispatch/kill/heartbeat/
# transport faults, coordinator-restart resume, and the real-SIGKILL e2e over
# a worker fleet (child processes are built with -race too). CI runs the same
# command (chaos-cluster job).
chaos-cluster:
	$(GO) test -race -timeout 20m \
		-run 'TestCluster|TestChaos|TestLease' \
		./internal/cluster/ ./internal/serve/ ./cmd/pnserve

# End-to-end smoke of the job server: build pnserve, characterise over HTTP,
# assert the identical resubmission is a cache hit, scrape /metrics. CI runs
# the same script (serve-smoke job).
smoke-serve:
	./scripts/smoke_serve.sh

bench:
	$(GO) test -bench . -benchmem -benchtime 1x ./...

# Machine-readable benchmark record for trend tracking: -count 3 for noise
# estimation, output captured as BENCH_<date>.json (go test -json stream;
# BenchmarkResult lines carry ns/op, B/op, allocs/op). CI uploads the same
# file as a build artifact.
bench-json:
	$(GO) test -json -bench . -benchmem -count 3 -run '^$$' ./... > BENCH_$$(date +%Y-%m-%d).json

# Benchmark regression gate: re-runs the gated benchmark set and fails on
# >10% ns/op drift (CPU-calibrated vs the machine that wrote the baseline)
# or any allocs/op increase. Refresh after intentional perf changes with
# `go run ./scripts/bench_compare -update`.
bench-compare:
	$(GO) run ./scripts/bench_compare
