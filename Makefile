GO ?= go

.PHONY: all vet build test race bench bench-smoke perf-gate table1 fuzz cover fmt-check api api-check docs-check serve-smoke session-smoke chaos metrics-smoke fleet-smoke flake corpus

all: vet fmt-check api-check build test docs-check

vet:
	$(GO) vet ./...

# Fail when any file is not gofmt-clean (CI gate).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Regenerate the public API snapshot after an intentional surface change
# (see DESIGN.md §4 for the compatibility contract).
api:
	$(GO) doc -all ./rapids > rapids/api.txt

# Fail when the public rapids surface drifted from the snapshot (CI gate).
api-check:
	$(GO) doc -all ./rapids | diff -u rapids/api.txt - || (echo "public API drifted: run 'make api' and review the diff"; exit 1)

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

# Short-mode race run: exercises the scoring worker pool and the
# extraction cache under the race detector.
race:
	$(GO) test -race -short ./...

# One pass over every paper benchmark; see DESIGN.md §6 for the index.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Fast subset for CI: the PR-2 engine benchmarks, the full and
# incremental STA benchmarks (one move, one wide update) and the
# post-optimization verification, one iteration each.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkMoveGen|BenchmarkExtractIncremental|BenchmarkFig2Swap|BenchmarkFullSTA|BenchmarkIncrementalSTA|BenchmarkIncrementalWideUpdate|BenchmarkVerify$$' -benchtime 1x .

# Perf-regression gate: the micro-benchmark set under -benchmem against
# the golden bands in PERF_BASELINE.json (tight allocs/op, generous
# ns/op — see the note in that file). Fails with a readable diff. The
# windowed rounds run is its own invocation: a sub-benchmark pattern
# would filter every other benchmark's sub-benchmarks too. The edit
# reply encoder is unexported, so its benchmark runs in rapids/server.
perf-gate:
	{ $(GO) test -run xxx -bench 'BenchmarkMoveGen$$|BenchmarkMoveGenSumSlack$$|BenchmarkFullSTA$$|BenchmarkIncrementalSTA$$|BenchmarkIncrementalWideUpdate$$|BenchmarkRollback$$|BenchmarkRollbackWindowed$$|BenchmarkExtractIncremental$$|BenchmarkFig2Swap$$|BenchmarkRegionRoundTrip$$|BenchmarkSessionApply$$|BenchmarkSnapshotAfterResize$$|BenchmarkVerify$$|BenchmarkPlace$$' -benchmem -benchtime 1x -count 3 . && \
	  $(GO) test -run xxx -bench 'BenchmarkOptimizeRegioned$$/^rounds,window=0.005$$' -benchmem -benchtime 1x -count 3 . && \
	  $(GO) test -run xxx -bench 'BenchmarkEditReply$$' -benchmem -benchtime 1x -count 3 ./rapids/server ; } \
	  | $(GO) run ./cmd/perfgate -baseline PERF_BASELINE.json

table1:
	$(GO) run ./cmd/table1 -quick

# The phase-start shadow on the whole optimizer corpus: all 114 rows of
# TestOptimizeNetworkGolden (19 circuits x 3 configs x placement seeds 1
# and 2), each run checking its timer, supergate cache and ranking
# against fresh state at every phase start. Tier-1 runs three circuits.
corpus:
	$(GO) test -tags corpus -count=1 -run 'TestPhaseStartsMatchFreshStateCorpus$$' ./internal/opt

# Native fuzz smoke: each parser target, the resize and swap kernels
# against their oracles, the incremental timer against full analysis on random placed
# DAGs, result-store files with arbitrary content, and the annealing
# placer against its re-scanning oracle on random DAGs, the edit reply
# encoder against encoding/json, and journal replay of arbitrary file
# bytes, for FUZZTIME (default 10s); the CI fuzz-smoke job runs the same
# invocations.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzParseBLIF -fuzztime=$(FUZZTIME) ./internal/blif
	$(GO) test -fuzz=FuzzParseBench -fuzztime=$(FUZZTIME) ./internal/bench
	$(GO) test -fuzz=FuzzSessionEdit -fuzztime=$(FUZZTIME) ./rapids
	$(GO) test -fuzz=FuzzResizeFrame -fuzztime=$(FUZZTIME) ./internal/sizing
	$(GO) test -fuzz=FuzzSwapFrame -fuzztime=$(FUZZTIME) ./internal/opt
	$(GO) test -fuzz=FuzzIncrementalTiming -fuzztime=$(FUZZTIME) ./internal/sta
	$(GO) test -fuzz=FuzzStoreEntry -fuzztime=$(FUZZTIME) ./rapids/server/store
	$(GO) test -fuzz=FuzzPlace -fuzztime=$(FUZZTIME) ./internal/place
	$(GO) test -fuzz=FuzzDeltaJSON -fuzztime=$(FUZZTIME) ./rapids/server
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./rapids/server/journal

# Docs gate: vet the service packages and run the markdown link + flag
# checkers over README/DESIGN/EXPERIMENTS (docs_test.go).
docs-check:
	$(GO) vet ./rapids/... ./cmd/rapidsd
	$(GO) test -run 'TestDoc' -count=1 .

# End-to-end service smoke under the race detector: boots the real
# rapidsd binary, submits a job, streams SSE, asserts Result equality
# with a direct facade run, takes a cache hit, cancels mid-job
# (best-so-far), checks goroutine hygiene, drains on SIGTERM — and
# SIGKILLs a journaled daemon mid-batch, restarts it, and proves
# bit-identical completion of every accepted job.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke|TestKillRestartRecovery' -v ./cmd/rapidsd
	$(GO) test -race -count=1 -run 'TestCancelMidJob|TestNoGoroutineLeaks|TestGracefulDrain' ./rapids/server

# Interactive ECO session smoke (DESIGN.md §5d), all under the race
# detector: the facade determinism oracle and snapshot tests, the full
# server session endpoint suite (life-cycle, SSE deltas, SSE resume
# across the 32-delta window with Last-Event-ID and the resync frame,
# cap backpressure, TTL eviction, in-process crash recovery,
# journal-failure safety, metrics reconciliation, goroutine hygiene),
# and the real-binary smoke — boot rapidsd, open a session over HTTP,
# apply edit batches, verify every delta over SSE, and SIGKILL +
# restart on the same journal with bit-identical rebuilt timing.
session-smoke:
	$(GO) test -race -count=1 -run 'TestSession|TestEdit|TestParseEdits' ./rapids ./rapids/server
	$(GO) test -race -count=1 -run 'TestSessionSmoke|TestKillRestartSessionRecovery' -v ./cmd/rapidsd

# Fault-injection suite under the race detector (DESIGN.md §5a): the
# journal package, worker panic isolation, retry/backoff, job
# timeouts, journal write failures, in-process journal recovery, cache
# corruption detection, the DELETE state table, readiness, the chaos
# sweep, admission by circuit size (hook-held attempts script the
# line; concurrent results match a one-worker server's) — and the
# real-binary SIGKILL + restart of an ECO session.
chaos:
	$(GO) test -race -count=1 ./rapids/server/journal
	$(GO) test -race -count=1 -run 'TestAdmission|TestConcurrentResultsMatchSerial|TestWorkerPanicIsolation|TestTransientPanicRetries|TestJobTimeoutRetriesThenFails|TestRequestTimeoutMS|TestJournalWriteErrorTurnsUnready|TestRecoveryRequeuesAcceptedJobs|TestRecoveryRebirthsTerminalJobs|TestCacheCorruptionDetected|TestDeleteStateTable|TestReadyz|TestChaosSweepLosesNothing|TestCacheConcurrentAccess|TestFleetStoreDegraded|TestFleetPeerUnreachable|TestSessionCrashRecovery|TestSessionJournalFailureClosesSession' -v ./rapids/server
	$(GO) test -race -count=1 -run 'TestKillRestartSessionRecovery' -v ./cmd/rapidsd

# Multi-replica acceptance (DESIGN.md §5c), all under the race
# detector: the store and router unit suites, the in-process fleet
# tests (cross-replica determinism, routing accounting, forwarded job
# lifecycle, scatter relearn, typed peer errors, Retry-After
# passthrough, degraded store, shared-dir store) — and the real-binary
# smoke: two rapidsd processes share a store directory and a
# consistent-hash ring, one is SIGKILLed mid-batch and restarted, and
# every result must match the single-replica oracle with the summed
# metrics identity intact.
fleet-smoke:
	$(GO) test -race -count=1 ./rapids/server/store ./rapids/server/router
	$(GO) test -race -count=1 -run 'TestFleet' ./rapids/server
	$(GO) test -race -count=1 -run 'TestFleetSmoke' -v ./cmd/rapidsd

# Flake hunt: the real-binary smokes of the job and session life cycle
# (boot, SSE, cache hit, cancel, drain, SIGKILL + restart, fleet, ECO
# sessions), five runs each. A flaky test is a bug, in the test or in
# the system.
flake:
	$(GO) test -count=5 -run 'TestServeSmoke|TestKillRestartRecovery|TestFleetSmoke|TestSessionSmoke|TestKillRestartSessionRecovery' -v ./cmd/rapidsd

# Metrics smoke (DESIGN.md §5b): the exposition-format unit tests, the
# concurrent scrape-and-reconcile test over a live server, the
# queue-full rejection count, and the journaled job timings — all under
# the race detector.
metrics-smoke:
	$(GO) test -race -count=1 ./internal/metrics
	$(GO) test -race -count=1 -run 'TestMetricsEndpointUnderLoad|TestMetricsDisabled|TestQueueBackpressure|TestJobTimingsReported|TestRetryMetrics|TestRetryBackoffNoOverflow' -v ./rapids/server

# Coverage profile + per-function summary (cover.out is the CI artifact).
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -20
