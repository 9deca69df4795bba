# Standard-library-only Go module; these targets are the whole toolchain.

GO ?= go

.PHONY: build test race bench bench-micro bench-json bench-compare bench-smoke \
	verify verify-obs replay-smoke stream-smoke trace-smoke fleet-smoke \
	spec-smoke quota-smoke check-docs

# The fault-servicing hot-path microbenchmarks (channel deque, EPC page
# table, owned victim scan, end-to-end HandleFault).
BENCH_MICRO = BenchmarkPendingQueue|BenchmarkPendingMembership|BenchmarkEPCLookup|BenchmarkEPCPresent|BenchmarkSelectVictimOwned|BenchmarkHandleFault

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The parallel-vs-sequential speedup benchmark from the experiment
# engine; compare the two lines' ns/op (>= 2x apart on >= 4 cores).
bench:
	$(GO) test ./internal/experiments/ -run '^$$' -bench 'BenchmarkRunAll' -benchtime 2x

bench-micro:
	$(GO) test ./internal/channel/ ./internal/epc/ ./internal/kernel/ \
		-run '^$$' -bench '$(BENCH_MICRO)' -benchmem

# Regenerate BENCH_engine.json: current microbenchmark + RunAll +
# streamed-engine + trace-I/O numbers, with the previous committed
# numbers carried forward as the baseline.
bench-json:
	{ $(GO) test ./internal/channel/ ./internal/epc/ ./internal/kernel/ \
		-run '^$$' -bench '$(BENCH_MICRO)' -benchmem ; \
	  $(GO) test ./internal/sim/ -run '^$$' -bench 'BenchmarkRunStream|BenchmarkStep' -benchmem ; \
	  $(GO) test ./internal/obs/ -run '^$$' -bench 'BenchmarkTraceWrite|BenchmarkStreamSink' -benchmem ; \
	  $(GO) test ./internal/replay/ -run '^$$' -bench 'BenchmarkTraceParse' -benchmem ; \
	  $(GO) test ./internal/experiments/ -run '^$$' -bench 'BenchmarkRunAll' -benchtime 2x ; } \
	| $(GO) run ./cmd/benchjson -baseline BENCH_engine.json -out BENCH_engine.json

# Diff the committed BENCH_engine.json against its own baseline section
# (both measured on the same machine by consecutive bench-json runs).
# The nanosecond-scale microbenches swing 20-40% run-to-run on shared
# vCPUs, so the automated gate uses a 50% budget — loose enough to ride
# out scheduler noise, tight enough to catch a real hot-path regression
# (dropping the zero-alloc trace encoder, for instance, is +580%).
# Tighten with `go run ./cmd/benchjson -compare BENCH_engine.json`
# (15% default) when measuring on quiet hardware.
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_engine.json -max-regress 50

# One fast iteration of each benchmark; compilation + smoke for CI.
bench-smoke:
	$(GO) test ./internal/channel/ ./internal/epc/ ./internal/kernel/ ./internal/experiments/ \
		-run '^$$' -bench . -benchtime 1x

# Observability gate: build, race-test the instrumented packages, and
# measure the hook plumbing (a no-op hook must stay within 15% of a nil
# hook; the guard is wall-clock based, hence opt-in via env).
verify-obs:
	$(GO) build ./...
	$(GO) test -race ./internal/obs/ ./internal/channel/ ./internal/kernel/ ./internal/dfp/ ./internal/sim/
	SGXSIM_HOOKGUARD=1 $(GO) test ./internal/sim/ -run TestHookOverheadGuard -v

# CLI-level replay acceptance: trace a run, replay the trace, and
# require the two metrics reports to be byte-identical.
replay-smoke:
	rm -rf .replay-smoke && mkdir -p .replay-smoke
	$(GO) run ./cmd/sgxsim -bench cactuBSSN -scheme dfp-stop \
		-trace .replay-smoke/run.jsonl -metrics-out .replay-smoke/live.txt
	$(GO) run ./cmd/sgxsim -replay .replay-smoke/run.jsonl \
		-metrics-out .replay-smoke/replayed.txt
	cmp .replay-smoke/live.txt .replay-smoke/replayed.txt
	$(GO) run ./cmd/sgxsim -diff .replay-smoke/run.jsonl .replay-smoke/run.jsonl \
		| grep -q 'timelines:           identical'
	rm -rf .replay-smoke

# Streaming acceptance: a 10M-access pull-based run must finish with
# peak heap independent of trace length (the materialized equivalent is
# ~400 MB), and the per-step allocation guard must hold.
stream-smoke:
	SGXSIM_STREAMSMOKE=1 $(GO) test ./internal/sim/ \
		-run 'TestStreamSmoke|TestStepAllocsO1' -v

# Traced-streaming acceptance: a 10M-access streamed run with -trace
# active must hold peak heap within a fixed ceiling (the StreamSink never
# accumulates the timeline), and both trace formats must replay to
# byte-identical metrics reports.
trace-smoke:
	SGXSIM_TRACESMOKE=1 $(GO) test ./cmd/sgxsim/ -run TestTraceSmoke -v

# Cluster-fleet acceptance: a small timed-arrival fleet under each
# placement policy, with the report required byte-identical between
# sequential (-parallel 1) and parallel (-parallel 8) host advancement.
FLEET_SMOKE_ARGS = -bench leela,nab,exchange2,leela -fleet 2 -arrival-period 500000

fleet-smoke:
	rm -rf .fleet-smoke && mkdir -p .fleet-smoke
	for p in round-robin least-loaded pressure affinity; do \
		$(GO) run ./cmd/sgxsim $(FLEET_SMOKE_ARGS) -fleet-policy $$p -parallel 1 \
			> .fleet-smoke/$$p.seq.txt || exit 1; \
		$(GO) run ./cmd/sgxsim $(FLEET_SMOKE_ARGS) -fleet-policy $$p -parallel 8 \
			> .fleet-smoke/$$p.par.txt || exit 1; \
		cmp .fleet-smoke/$$p.seq.txt .fleet-smoke/$$p.par.txt || exit 1; \
		grep -q 'fleet-wide fault latency' .fleet-smoke/$$p.seq.txt || exit 1; \
	done
	rm -rf .fleet-smoke

# Arrival-spec acceptance: the golden manifest must match the committed
# fixture, and the compiled spec run through the cluster must be
# byte-identical between sequential and 8-way host advancement.
SPEC_SMOKE_ARGS = -spec internal/workload/spec/testdata/fixture.json \
	-fleet 2 -fleet-policy affinity -scheme dfp-stop

spec-smoke:
	rm -rf .spec-smoke && mkdir -p .spec-smoke
	$(GO) test ./internal/workload/spec/ -run TestGoldenManifest -count=1
	$(GO) run ./cmd/sgxsim $(SPEC_SMOKE_ARGS) -parallel 1 > .spec-smoke/seq.txt
	$(GO) run ./cmd/sgxsim $(SPEC_SMOKE_ARGS) -parallel 8 > .spec-smoke/par.txt
	cmp .spec-smoke/seq.txt .spec-smoke/par.txt
	grep -q 'fixture-two-cohorts: 26 launches' .spec-smoke/seq.txt
	rm -rf .spec-smoke

# EPC-quota acceptance: the cluster grid under each -quota policy, with
# the report required byte-identical between sequential and parallel
# host advancement, and the global policy required byte-identical to a
# run with no -quota flag at all (quotas off = the pre-arbiter engine).
quota-smoke:
	rm -rf .quota-smoke && mkdir -p .quota-smoke
	$(GO) run ./cmd/sgxsim $(FLEET_SMOKE_ARGS) -parallel 1 > .quota-smoke/none.txt
	for q in global static prop adaptive; do \
		$(GO) run ./cmd/sgxsim $(FLEET_SMOKE_ARGS) -quota $$q -parallel 1 \
			> .quota-smoke/$$q.seq.txt || exit 1; \
		$(GO) run ./cmd/sgxsim $(FLEET_SMOKE_ARGS) -quota $$q -parallel 8 \
			> .quota-smoke/$$q.par.txt || exit 1; \
		cmp .quota-smoke/$$q.seq.txt .quota-smoke/$$q.par.txt || exit 1; \
	done
	cmp .quota-smoke/none.txt .quota-smoke/global.seq.txt
	grep -q 'quota' .quota-smoke/adaptive.seq.txt
	rm -rf .quota-smoke

# Docs drift gate: every cmd/sgxsim flag must be mentioned in at least
# one of README.md, OBSERVABILITY.md, EXPERIMENTS.md, or WORKLOADS.md,
# and every registered workload must appear (backtick-quoted) in
# WORKLOADS.md's catalog.
check-docs:
	@missing=0; \
	for f in $$(sed -n 's/.*fs\.\(String\|Bool\|Int\|Float64\)("\([a-z-]*\)".*/\2/p' cmd/sgxsim/main.go); do \
		grep -q -e "-$$f" README.md OBSERVABILITY.md EXPERIMENTS.md WORKLOADS.md || \
			{ echo "flag -$$f undocumented in README.md/OBSERVABILITY.md/EXPERIMENTS.md/WORKLOADS.md"; missing=1; }; \
	done; \
	for w in $$($(GO) run ./cmd/sgxsim -list | awk '{print $$1}'); do \
		grep -q -e "\`$$w\`" WORKLOADS.md || \
			{ echo "workload $$w missing from WORKLOADS.md"; missing=1; }; \
	done; \
	[ $$missing -eq 0 ] && echo "check-docs: all cmd/sgxsim flags and workloads documented"

# The full pre-merge gate.
verify: verify-obs stream-smoke trace-smoke fleet-smoke spec-smoke quota-smoke check-docs
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
