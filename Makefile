GO ?= go

.PHONY: build vet test race verify fmt-check bench bench-smoke perfbench-smoke chaos-smoke gateway-smoke multigroup-smoke trust-smoke fuzz-smoke linkcheck clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# verify is the tier-1 gate: build + vet + full test suite under the race
# detector (the serial-vs-parallel differential tests rely on -race to catch
# worker-pool data races).
verify: build vet race

# fmt-check fails (listing the offenders) if any file is not gofmt-clean;
# CI runs this as its lint step.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# bench runs every Go benchmark with allocation reporting.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-smoke runs every benchmark for exactly one iteration — no timing
# value, but it executes every bench body, so harness rot (benchmarks that
# no longer compile or crash) is caught on every PR without CI paying for a
# real measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# perfbench-smoke vets the repository benchmark and runs its smoke-size
# pass of every workload and check (see docs/BENCHMARKING.md). perfbench is
# its own module, built against this one through a replace directive, so
# build, vet and test above never compile it; without this target an API
# change could break the benchmark unnoticed.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

# chaos-smoke runs both fault-injection convergence matrices — the 4-peer
# cells (loss, dup, jitter, partition, store crash + snapshot rebuild, and
# the streaming cells that cut the watch stream mid-flight) and the
# 16/32-peer scale matrix (churn, asymmetric partitions, store crash
# composed with client rebuild, slow store — see docs/FAULTS.md) — and the
# fabric/retry unit layer under the race detector. make verify covers
# these too; this target runs them by name so a chaos regression is
# unmissable in CI.
chaos-smoke:
	$(GO) test -race -count=1 -run '^TestChaosMatrix|^TestScaleMatrix' .
	$(GO) test -race -count=1 -run '^TestFault|^TestOneWayPartition|^TestCrashRestart|^TestLinkFaults|^TestRetry' ./internal/simnet ./internal/rpc

# gateway-smoke runs the gateway contract suite under the race detector
# (auth, per-group rate limits, backpressure shedding, idempotent retry
# after a 429, long-poll + SSE watch, pool round-robin — see
# docs/GATEWAY.md), then the closed-loop driver: concurrent keyed clients
# saturating a tiny gate, with the exactly-once audit required to find
# every operation despite the shedding.
gateway-smoke:
	$(GO) test -race -count=1 ./internal/gateway
	$(GO) run ./cmd/orchestra-bench -gateway -clients 8 -rounds 10

# multigroup-smoke runs the multi-group contract gates under the race
# detector (see docs/MULTIGROUP.md): the cross-tenant differential (every
# fleet-hosted group bit-identical to a standalone run, across fleet sizes
# and drive modes), the tenant-isolation suite with the torn multi-tenant
# WAL crash cell, and the placement/rebalance drain proofs. make verify
# covers these too; running them by name makes a tenancy regression
# unmissable in CI.
multigroup-smoke:
	$(GO) test -race -count=1 -run '^TestFleet' .
	$(GO) test -race -count=1 -run '^TestTenant' ./internal/store/central

# trust-smoke runs the trust-layer contract gates under the race detector
# (see docs/TRUST.md): the compiled-vs-interpreted differentials (whole-
# system reconciliation transcripts across every topology, plus the
# 1k-peer effective-policy sweep with its mid-stream blast-radius
# assertions), the policy/graph unit layer, the recompile-counter and
# restart-persistence cells, and a short parser fuzz budget. make verify
# covers the tests too; running them by name makes a trust regression
# unmissable in CI.
trust-smoke:
	$(GO) test -race -count=1 -run '^TestTrustTopologyDifferential$$|^TestTrustScale|^TestTrustTopologyGenerator$$' .
	$(GO) test -race -count=1 ./internal/trust
	$(GO) test -race -count=1 -run '^TestTrust' ./internal/store/central
	$(GO) test -race -count=1 -run '^TestRefreshTrust|^TestPriorityCache|^TestSetTrustInvalidatesCache$$' ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzTrustParse$$' -fuzztime 10s ./internal/trust

# fuzz-smoke gives every native fuzz target a short budget on top of its
# checked-in seed corpus (testdata/fuzz): enough to catch decoder panics
# and corpus rot on every PR without CI paying for a real fuzzing campaign.
# go's -fuzz runs one target per invocation, so each gets its own line.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePublishedTxns$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshot$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzNamespaceCodec$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzNamespacePrefixFree$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzTrustParse$$' -fuzztime 10s ./internal/trust

# linkcheck verifies every relative markdown link in README.md and docs/
# resolves to an existing file (offline; external URLs are not fetched).
# make verify covers it too — this target just runs it by name for CI.
linkcheck:
	$(GO) test -run '^TestMarkdownLinks$$' .

clean:
	$(GO) clean ./...
