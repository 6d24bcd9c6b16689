GO ?= go

.PHONY: verify fmt-check vet build test examples race verify-race race-core-cpu race-hadas-cpu fuzz-short bench-module bench-smoke bench-record bench-check bench-parallel bench-profile chaos-short chaos chaos-nightly

# Benchmarks tracked for regressions across PRs (see cmd/benchguard).
# Each is run BENCH_COUNT times and benchguard keeps the fastest
# repetition, damping scheduler noise on shared machines. E11 (agent hop
# round trip) guards the journaled migration protocol's dispatch cost, on
# an empty site and past 2 048 resident APOs (E11_AgentHopHome2048). E4's
# cold gets and E3/E5's cold calls pay a full Match each, and
# GetDataItemHandles pins handles as a function of the item.
BENCH_TRACKED = E3|E4|E5|E11|GetDataItemHandles
BENCH_TIME    = 100000x
BENCH_COUNT   = 3

# E14 (single-RTT fan-out) is tracked too, but separately: its ops run at
# wall-clock scale — the rtt=1ms tier pays a synthetic WAN round trip per
# op — so it gets a short benchtime of its own rather than riding
# BENCH_TIME.
BENCH_WALL      = E14
BENCH_WALL_TIME = 100x

# The parallel tier (bench_parallel_test.go): P-swept RunParallel
# throughput over the concurrent Home container (DESIGN.md §11). Tracked in
# the same BENCH_PR.json snapshots as the scalar set, but at a shorter
# benchtime (each op is µs-scale and runs P-wide) and under -short for the
# routine record/check runs (skipping the 1e6-object tier); `make
# bench-parallel` records the full population sweep.
PBENCH      = P_
PBENCH_TIME = 20000x

# The persistence tier (bench_persist_test.go): sustained Put throughput
# of the group-commit WAL under 8 concurrent writers (DESIGN.md §15) and
# E15, bootstrap recovery time by slot count. Both are fsync-bound, so
# they get their own short benchtimes: a Put costs 20µs–40µs, and one E15
# iteration replays a whole log (the 1e6-slot tier builds a ~150 MB one,
# skipped under -short in the routine runs).
BENCH_PERSIST      = WALPut
BENCH_PERSIST_TIME = 2000x
BENCH_RECOVER      = E15_BootstrapRecovery
BENCH_RECOVER_TIME = 1x

# The bulk tier (internal/transport/bench_test.go): one 512 KiB streamed
# call over TCP loopback. Its B/op is the copy census of the streamed path
# (DESIGN.md §14): one assembly per call, and a reintroduced copy shows as
# another 512 KiB.
BENCH_STREAM      = StreamedCall
BENCH_STREAM_TIME = 2000x

# verify is the tier-1 gate: formatting, static checks, build, tests
# (including the race detector, and internal/core and Home's concurrency
# tests again across a -cpu sweep), a one-iteration benchmark smoke run, a
# comparison of the tracked benchmarks against BENCH_PR.json (bench-check),
# bounded fuzzes of the frame reader, the image and value decoders,
# MScript, WAL replay and the protocol records, the benchmark module's own
# vet and tests, and the bounded chaos
# sweep (chaos-short) behind the SLO gate, and a run of every example.
verify: fmt-check vet build test examples verify-race race-core-cpu race-hadas-cpu fuzz-short bench-module bench-smoke bench-check chaos-short

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# examples runs each program under examples/ and fails on a non-zero exit.
# Only the exit status is checked: agent and quickstart print ids that
# change on every run.
examples:
	@for d in examples/*/; do \
		echo "$(GO) run ./$$d"; \
		$(GO) run "./$$d" >/dev/null || { echo "$$d exited non-zero"; exit 1; }; \
	done

# verify-race runs the whole suite under the race detector; part of the
# tier-1 verify gate. `race` is kept as a shorthand alias.
verify-race:
	$(GO) test -race ./...

race: verify-race

# race-core-cpu repeats the core suite at one, two and four Ps. The
# dispatch cache is lock-free on its read side, and a publish race there
# was red at GOMAXPROCS >= 2 and green at 1 — so whichever the machine's
# default is, the other side of that line runs too. The security suite
# rides along: every audited call records into the Auditor's sharded rings.
# So does the wire suite: every encode writes into a pooled Codec's scratch.
race-core-cpu:
	$(GO) test -race -cpu 1,2,4 ./internal/core ./internal/security ./internal/wire

# race-hadas-cpu does the same where Home's compare-and-swap loops live:
# the container, admission and arrival tests of internal/hadas, with the
# dedup table's acknowledgements (concurrent dispatches share a pending set
# at the origin and an unacknowledged list at the destination); and where a
# request buffer is reused once its call returns: the ownership tests of
# hadas and transport, with the per-connection stream cap; and where calls
# share a deadline, a call record is pooled, and a request's context is
# cancelled by a FrameCancel or a teardown; and where a server hands a
# request to a parked handler worker, and a teardown cuts a stream.
race-hadas-cpu:
	$(GO) test -race -cpu 1,2,4 -run 'Home|Contention|Concurrent|Arrival|Aliased|FailedCallKeeps|RetriedDispatch|InDoubtOutlives|DedupCap|CrashLosesAckBatch|CallDeadline' ./internal/hadas
	$(GO) test -race -cpu 1,2,4 -run 'CallerOwnsPayload|TeardownWaitsForWriter|StreamIDCap|WaitForASlot|PooledCallRecord|HandlerContextOverTCP|SequentialCallsShareAWorker|BlockedHandlerLeavesConnectionServing|BurstLeavesAtMostKParked|CloseEndsParkedWorkers|FinishedRequestCancelSparesTheNext|TeardownCutStreamFailsClosed' ./internal/transport

# fuzz-short runs the wire frame reader against its whole-body reference
# parser for a bounded time, seeded from the golden frame vectors, and then
# MScript source through lex, parse, resolve and both evaluators (slot
# frames against the map-per-scope reference), seeded from the package's
# test programs, and then arbitrary bytes as a WAL's active segment against
# a whole-buffer reference replay, seeded from a log that ends in a group
# (an exec there costs a few fsyncs, so minimizing a find is capped —
# uncapped it takes the whole ten seconds), and then arbitrary bytes into
# every protocol record's decoder, seeded from the records' golden vectors,
# and into the object-image decoder, seeded from current images and the
# golden image in the format from before records, and into both value
# decoders (copying and in place), seeded from the golden value vectors and
# a list nested past MaxDepth.
fuzz-short:
	$(GO) test -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzImage$$' -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzValue$$' -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzEval$$' -fuzztime=10s ./internal/mscript
	$(GO) test -run='^$$' -fuzz='^FuzzWALReplay$$' -fuzztime=10s -fuzzminimizetime=10x ./internal/persist
	$(GO) test -run='^$$' -fuzz='^FuzzProtocolRecords$$' -fuzztime=10s ./internal/hadas

# bench-module vets and tests bench/, the repository benchmark: a module of
# its own (BENCHMARK.json runs it) that `go build ./... && go test ./...`
# never sees, though it calls wire, transport and hadas functions whose
# signatures a change here can break.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench-smoke:
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./...

# bench-record appends a snapshot of the tracked benchmarks (ns/op plus
# allocs/op and B/op from -benchmem) to BENCH_PR.json; run it once per PR
# so bench-check has a fresh baseline. The scalar set and the parallel
# tier run as two invocations (different benchtimes) into one snapshot.
bench-record:
	@{ $(GO) test -run='^$$' -bench='$(BENCH_TRACKED)' -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) -benchmem . ; \
	   $(GO) test -run='^$$' -bench='$(BENCH_WALL)' -benchtime=$(BENCH_WALL_TIME) -count=$(BENCH_COUNT) -benchmem . ; \
	   $(GO) test -run='^$$' -bench='$(BENCH_STREAM)' -benchtime=$(BENCH_STREAM_TIME) -count=$(BENCH_COUNT) -benchmem ./internal/transport ; \
	   $(GO) test -short -run='^$$' -bench='$(PBENCH)' -benchtime=$(PBENCH_TIME) -count=$(BENCH_COUNT) -benchmem . ; \
	   $(GO) test -run='^$$' -bench='$(BENCH_PERSIST)' -benchtime=$(BENCH_PERSIST_TIME) -count=$(BENCH_COUNT) -benchmem . ; \
	   $(GO) test -run='^$$' -bench='$(BENCH_RECOVER)' -benchtime=$(BENCH_RECOVER_TIME) -count=$(BENCH_COUNT) -benchmem . ; } \
		| $(GO) run ./cmd/benchguard -mode record

# bench-check compares the tracked benchmarks with the latest
# BENCH_PR.json snapshot: >20% slower is a warning (ns/op is noisy here),
# more allocations per op fails the target (beyond one count or 0.5 % of
# a non-zero count, which is what the figure resolves; see cmd/benchguard).
bench-check:
	@{ $(GO) test -run='^$$' -bench='$(BENCH_TRACKED)' -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) -benchmem . ; \
	   $(GO) test -run='^$$' -bench='$(BENCH_WALL)' -benchtime=$(BENCH_WALL_TIME) -count=$(BENCH_COUNT) -benchmem . ; \
	   $(GO) test -run='^$$' -bench='$(BENCH_STREAM)' -benchtime=$(BENCH_STREAM_TIME) -count=$(BENCH_COUNT) -benchmem ./internal/transport ; \
	   $(GO) test -short -run='^$$' -bench='$(PBENCH)' -benchtime=$(PBENCH_TIME) -count=$(BENCH_COUNT) -benchmem . ; \
	   $(GO) test -run='^$$' -bench='$(BENCH_PERSIST)' -benchtime=$(BENCH_PERSIST_TIME) -count=$(BENCH_COUNT) -benchmem . ; \
	   $(GO) test -short -run='^$$' -bench='$(BENCH_RECOVER)' -benchtime=$(BENCH_RECOVER_TIME) -count=$(BENCH_COUNT) -benchmem . ; } \
		| $(GO) run ./cmd/benchguard -mode check

# bench-parallel records the FULL parallel sweep — including the 1e6-object
# tier the routine runs skip — alongside the scalar tracked set, so the
# snapshot bench-check compares against stays complete.
# The full sweep far exceeds go test's default 10m timeout (the 1e6-object
# sites take seconds to build per -count rep, and churn ops are ms-scale);
# without -timeout the binary is killed mid-sweep and the pipe into
# benchguard swallows the failure, silently recording a partial snapshot.
bench-parallel:
	@{ $(GO) test -run='^$$' -bench='$(BENCH_TRACKED)' -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) -benchmem . ; \
	   $(GO) test -run='^$$' -bench='$(BENCH_WALL)' -benchtime=$(BENCH_WALL_TIME) -count=$(BENCH_COUNT) -benchmem . ; \
	   $(GO) test -run='^$$' -bench='$(BENCH_STREAM)' -benchtime=$(BENCH_STREAM_TIME) -count=$(BENCH_COUNT) -benchmem ./internal/transport ; \
	   $(GO) test -run='^$$' -bench='$(PBENCH)' -benchtime=$(PBENCH_TIME) -count=$(BENCH_COUNT) -benchmem -timeout=60m . ; } \
		| $(GO) run ./cmd/benchguard -mode record

# chaos-short is the bounded chaos sweep wired into verify: 5 seeds over a
# 5-site mesh under concurrent partition/crash/migration/rewrite churn,
# each run checked against the global invariants and the SLO thresholds
# in CHAOS_SLO.json (cmd/chaosgate exits non-zero and names the failing
# seed — the printed line reproduces the exact fault schedule). It runs
# twice: over MemStore, and over the WAL, so tier-1 crashes and restarts
# sites over the one durable store under churn.
chaos-short:
	$(GO) run ./cmd/chaosgate -seeds 5 -seed-base 1 -slo CHAOS_SLO.json
	@dir="$$(mktemp -d)"; \
	$(GO) run ./cmd/chaosgate -seeds 5 -seed-base 1 -slo CHAOS_SLO.json -store wal -storedir "$$dir"; \
	status=$$?; rm -rf "$$dir"; exit $$status

# chaos is the full sweep: more seeds, a bigger mesh, heavier churn, over
# WAL-backed sites so crash/restart recovery exercises the real store
# (group commit + compaction under churn). Not part of verify — run it
# before releases or after touching the migration/recovery machinery.
chaos:
	$(GO) run ./cmd/chaosgate -seeds 25 -seed-base 1 -sites 7 -epochs 4 \
		-clients 4 -ops 15 -agents 6 -hops 3 \
		-slo CHAOS_SLO.json -store wal -storedir /tmp/repro-chaos-wal -out /tmp/repro-chaos-wal-sweep.json

# bench-profile writes CPU and heap profiles of the warm dispatch (E3) and
# security (E5) benchmarks to profiles/ for `go tool pprof`.
bench-profile:
	@mkdir -p profiles
	$(GO) test -run='^$$' -bench='E3_MROM|E5_' -benchtime=$(BENCH_TIME) \
		-cpuprofile=profiles/cpu.out -memprofile=profiles/heap.out .
	@echo "wrote profiles/cpu.out and profiles/heap.out (inspect with: $(GO) tool pprof profiles/cpu.out)"

# chaos-nightly rotates the seed base so successive nightly runs keep
# exploring fresh seed space (ROADMAP: the fixed verify sweep only ever
# replays seeds 1-5). The base comes from CHAOS_SEED_BASE when set, else
# from today's date — either way one run is fully deterministic and any
# failure reproduces from the seed the gate prints.
chaos-nightly:
	$(GO) run ./cmd/chaosgate -seeds 10 \
		-seed-base $${CHAOS_SEED_BASE:-$$(date +%Y%m%d)} \
		-sites 7 -epochs 4 -clients 4 -ops 12 -agents 6 -hops 3 \
		-slo CHAOS_SLO.json -out /tmp/repro-chaos-nightly.json
