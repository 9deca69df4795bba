# Standard-library-only Go module; these targets are the whole toolchain.

GO ?= go

.PHONY: build test race bench bench-micro bench-json bench-compare bench-smoke \
	verify verify-obs stream-smoke trace-smoke check-docs

# The fault-servicing hot-path microbenchmarks (channel deque, EPC page
# table, global and owned victim scans, end-to-end HandleFault).
BENCH_MICRO = BenchmarkPendingQueue|BenchmarkPendingMembership|BenchmarkEPCLookup|BenchmarkEPCPresent|BenchmarkSelectVictim|BenchmarkSelectVictimOwned|BenchmarkHandleFault

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
# streamed-engine + generator-pull + trace-I/O numbers, with the
# previous committed numbers carried forward as the baseline.
bench-json:
	{ $(GO) test ./internal/channel/ ./internal/epc/ ./internal/kernel/ \
		-run '^$$' -bench '$(BENCH_MICRO)' -benchmem ; \
	  $(GO) test ./internal/sim/ -run '^$$' -bench 'BenchmarkRunStream|BenchmarkStep|BenchmarkDrain' -benchmem ; \
	  $(GO) test ./internal/workload/ -run '^$$' -bench 'BenchmarkStreamPull|BenchmarkGenerate|BenchmarkSitePick|BenchmarkIrrFamilyTables' -benchmem ; \
	  $(GO) test ./internal/obs/ -run '^$$' -bench 'BenchmarkTraceWrite|BenchmarkStreamSink' -benchmem ; \
	  $(GO) test ./internal/replay/ -run '^$$' -bench 'BenchmarkTraceParse|BenchmarkReadFile' -benchmem ; \
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
	$(GO) test ./internal/channel/ ./internal/dfp/ ./internal/epc/ ./internal/kernel/ \
		./internal/experiments/ ./internal/workload/ -run '^$$' -bench . -benchtime 1x

# Observability gate: build, race-test the instrumented packages, and
# measure the hook plumbing (a no-op hook must stay within 15% of a nil
# hook; the guard is wall-clock based, hence opt-in via env).
verify-obs:
	$(GO) build ./...
	$(GO) test -race ./internal/obs/ ./internal/channel/ ./internal/kernel/ ./internal/dfp/ ./internal/sim/
	SGXSIM_HOOKGUARD=1 $(GO) test ./internal/sim/ -run TestHookOverheadGuard -v

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

# Docs drift gate: every cmd/sgxsim flag must be mentioned in at least
# one of README.md, OBSERVABILITY.md, EXPERIMENTS.md, or WORKLOADS.md,
# every flag an sgxsim command line in those files or DESIGN.md shows
# (from `sgxsim ` to the end of the command: a backslash continues it;
# a backtick, #, |, ;, & or > ends it) must be one cmd/sgxsim defines,
# every registered workload must appear (backtick-quoted) in
# WORKLOADS.md's catalog, and every directory under internal/, cmd/,
# examples/ or bench/ holding non-test Go files must have a
# backtick-quoted row in DESIGN.md §3's module table.
check-docs:
	@missing=0; \
	modules=$$(awk '/^## 3\./ {on = 1; next} /^## / {on = 0} on' DESIGN.md); \
	for d in $$(find internal cmd examples bench -path '*/.*' -prune -o -path '*/testdata' -prune \
			-o -name '*.go' ! -name '*_test.go' -print | xargs -n1 dirname | sort -u); do \
		echo "$$modules" | grep -q -F "| \`$$d\` |" || \
			{ echo "module $$d has no row in DESIGN.md §3"; missing=1; }; \
	done; \
	flags=$$(sed -n 's/.*fs\.\(String\|Bool\|Int\|Float64\)("\([a-z-]*\)".*/\2/p' cmd/sgxsim/main.go); \
	for f in $$flags; do \
		grep -q -e "-$$f" README.md OBSERVABILITY.md EXPERIMENTS.md WORKLOADS.md || \
			{ echo "flag -$$f undocumented in README.md/OBSERVABILITY.md/EXPERIMENTS.md/WORKLOADS.md"; missing=1; }; \
	done; \
	for f in $$(awk '/\\$$/ {sub(/\\$$/, ""); buf = buf $$0; next} {print buf $$0; buf = ""}' \
			README.md OBSERVABILITY.md EXPERIMENTS.md WORKLOADS.md DESIGN.md \
			| grep -o 'sgxsim [^`#|;&>]*' | tr ' ' '\n' | grep -x -e '-[a-z][a-z-]*' | sort -u); do \
		echo "$$flags" | grep -q -x -e "$${f#-}" || \
			{ echo "an sgxsim command line in the docs uses $$f, which cmd/sgxsim does not define"; missing=1; }; \
	done; \
	for w in $$($(GO) run ./cmd/sgxsim -list | awk '{print $$1}'); do \
		grep -q -e "\`$$w\`" WORKLOADS.md || \
			{ echo "workload $$w missing from WORKLOADS.md"; missing=1; }; \
	done; \
	[ $$missing -eq 0 ] && echo "check-docs: all cmd/sgxsim flags, workloads and modules documented; documented command lines use defined flags"

# The full pre-merge gate. The fleet, spec, quota and replay determinism
# checks run in plain `go test` (TestDeterminismMatrix in cmd/sgxsim);
# the two smokes here are the env-gated heap-ceiling runs. Every Go file,
# bench/ included, must be gofmt-clean.
verify: verify-obs stream-smoke trace-smoke check-docs
	@unformatted=$$(gofmt -l .); [ -z "$$unformatted" ] || { echo "gofmt needed:"; echo "$$unformatted"; exit 1; }
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
