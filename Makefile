# Build/test entry points; `make ci` is what .github/workflows/ci.yml runs.

GO ?= go
# Parallel workers for figure sweeps (cmd/csbfig -j); defaults to all cores.
J ?= 0

.PHONY: all build vet fmt-check lint test race bench-smoke examples figures perf-ab zero-alloc journeys cluster-trace flight-recorder ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt over every tracked Go file outside testdata/ (analyzer fixtures
# keep their deliberate layout); fails listing the files that need it.
fmt-check:
	@out=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Formatting and go vet. The project's invariant analyzers (pooling,
# determinism, hot-path allocation, the cluster engine's phase and
# clock-domain contracts) and the SV9L protocol lint of the example
# programs are tests that `go test ./...` runs: TestModuleInvariants in
# internal/analysis and TestLintExamplesClean in internal/asm. CI adds a
# pinned staticcheck in its lint job.
lint: fmt-check vet

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark — catches bit-rot in the measurement
# harnesses without paying for full benchmark runs.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# Run every example program (examples/<name>/main.go) and diff its stdout
# against the committed examples/<name>/output.golden; an example without
# a golden fails. The outputs are deterministic. Refresh a golden only on
# purpose: go run ./examples/<name> > examples/<name>/output.golden
EXAMPLES := $(patsubst examples/%/main.go,%,$(wildcard examples/*/main.go))
examples:
	@set -e; for e in $(EXAMPLES); do \
		echo "examples: $$e"; \
		$(GO) run ./examples/$$e > .examples.out; \
		diff -u examples/$$e/output.golden .examples.out; \
	done; rm -f .examples.out

# Regenerate all paper figures, sweeping measurement points across $(J)
# workers (0 = one per core).
figures:
	$(GO) run ./cmd/csbfig -all -j $(J)

# Parent-vs-change benchmark pairs, the protocol a performance change is
# judged by: BASE's committed files are extracted into .bench_build/base
# and run with their own csbperf, the working tree with its own; PAIRS
# pairs of `bench.sh run --seconds 20` alternate which side
# runs first, the reports land in out/perf-ab/ (base-N.json, head-N.json)
# and `csbperf compare` prints the verdicts, failing on a regression.
BASE ?= HEAD
PAIRS ?= 10
perf-ab:
	rm -rf .bench_build/base out/perf-ab
	mkdir -p .bench_build/base out/perf-ab
	git archive --format=tar $(BASE) | tar -x -C .bench_build/base
	@set -e; for i in $$(seq 1 $(PAIRS)); do \
		sides="base head"; [ $$((i % 2)) = 1 ] || sides="head base"; \
		for side in $$sides; do \
			dir=.; [ $$side = head ] || dir=.bench_build/base; \
			echo "perf-ab: pair $$i/$(PAIRS): $$side"; \
			(cd $$dir && bash cmd/csbperf/bench.sh run --seconds 20 \
				--out $(CURDIR)/out/perf-ab/$$side-$$i.json) > /dev/null; \
		done; \
	done
	bash cmd/csbperf/bench.sh compare out/perf-ab/base-*.json -- out/perf-ab/head-*.json

# The steady-state zero-allocation checks and the machine-construction
# allocation pin must run WITHOUT -race (the race detector's
# instrumentation allocates); the race target skips them via their build
# tag. This is the one list of them: CI runs this target. -v logs each
# test by name, so a log shows which ran.
zero-alloc:
	$(GO) test -run 'TestTickSteadyStateZeroAlloc|TestRunSteadyStateZeroAlloc|TestBuildAllocs|TestRegenerationAllocs|TestAssembleAllocs' -v ./internal/bench/
	$(GO) test -run 'TestUncachedLoadAllocs|TestLineFillAllocs|TestDMABurstAllocs|TestResetAllocs' -v ./internal/sim/
	$(GO) test -run 'TestRxQueueAllocs' -v ./internal/device/
	$(GO) test -run 'TestPumpAllocs' -v ./internal/cluster/

# Journey-traced runs of the paired store workloads: record the per-hop
# store journeys for the uncached and CSB paths, render both with csbrec
# (journey counters and whole-run per-layer latency histograms, then the
# slowest-journey table), and draw the CSB run's Perfetto trace from its
# recording: instruction lifetimes, bus transactions and memory-system
# journeys with flow arrows.
# A third run drives csbsim's end-of-run flush of the periodic hooks:
# the recording must come out with the CSB occupancy gauges in it, and
# its pipeline tail draws the last 16 instructions.
# Artifacts land in out/.
journeys:
	mkdir -p out
	$(GO) run ./cmd/csbsim -uncached 0x40000000:64K \
		-journeys -record out/journeys_uncached.rec examples/asm/uncached_stores.s
	$(GO) run ./cmd/csbsim -combining 0x40000000:64K \
		-journeys -record out/journeys_csb.rec examples/asm/csb_stores.s
	$(GO) run ./cmd/csbrec series -m 'machine/journey/*' out/journeys_uncached.rec
	$(GO) run ./cmd/csbrec journeys -top 5 out/journeys_uncached.rec
	$(GO) run ./cmd/csbrec series -m 'machine/journey/*' out/journeys_csb.rec
	$(GO) run ./cmd/csbrec journeys -top 5 out/journeys_csb.rec
	$(GO) run ./cmd/csbrec perfetto -o out/trace_csb.json out/journeys_csb.rec
	$(GO) run ./cmd/csbsim -combining 0x40000000:64K \
		-record out/csb.rec -record-every 1000 examples/asm/csb_stores.s
	$(GO) run ./cmd/csbrec summary out/csb.rec
	$(GO) run ./cmd/csbrec series -m 'machine/csb/*' out/csb.rec | grep 'csb/occupancy_bytes'
	$(GO) run ./cmd/csbrec pipeview -n 16 out/csb.rec

# Cross-node tracing: record a traced two-node ping-pong under each
# engine, require the two recordings to match (csbrec diff exits 1 on
# any difference, the wire spans included), do the same at a zero-latency
# wire, whose windows end at the transmit lead, then list the slowest spans
# and write the two-timeline Perfetto export to out/. CI uploads out/ as
# an artifact. What the trace and the recorder cost is checked exactly
# by TestServeObservedEffort and TestObservedEffort (go test ./...) and
# timed by BenchmarkObservedPingPong (bench-smoke).
cluster-trace:
	mkdir -p out
	$(GO) run ./cmd/csbcluster -send csb -rounds 50 -wire 120 -engine parallel \
		-trace -record out/cluster_trace_parallel.rec -v
	$(GO) run ./cmd/csbcluster -send csb -rounds 50 -wire 120 -engine seq \
		-trace -record out/cluster_trace_seq.rec
	$(GO) run ./cmd/csbrec diff out/cluster_trace_parallel.rec out/cluster_trace_seq.rec
	$(GO) run ./cmd/csbcluster -send csb -rounds 50 -wire 0 -engine parallel \
		-trace -record out/cluster_trace_wire0_parallel.rec
	$(GO) run ./cmd/csbcluster -send csb -rounds 50 -wire 0 -engine seq \
		-trace -record out/cluster_trace_wire0_seq.rec
	$(GO) run ./cmd/csbrec diff out/cluster_trace_wire0_parallel.rec out/cluster_trace_wire0_seq.rec
	$(GO) run ./cmd/csbrec journeys -top 3 -recent 2 out/cluster_trace_parallel.rec
	$(GO) run ./cmd/csbrec perfetto -o out/cluster_trace_perfetto.json out/cluster_trace_parallel.rec

# Flight recorder end to end: record a faulted serving run with the
# committed SLO spec riding along (live breaches land in the event log),
# print the summary, re-verify the spec offline with `csbrec check`,
# export the counter-track Perfetto view, and render every window with
# csbrec top (the finished file has a footer, so it renders and exits).
# out/serve.rec is the replayable artifact (`csbrec top out/serve.rec`); CI
# uploads out/.
flight-recorder:
	mkdir -p out
	$(GO) run ./cmd/csbcluster -serve -nodes 4 -rate 0.33 -send csb -horizon 300000 \
		-timeout 6000 -retries 4 -wire-faults "wiredrop=8,outage=2,outagemax=300" \
		-record out/serve.rec -record-every 20000 -slo @specs/serving.slo
	$(GO) run ./cmd/csbrec summary out/serve.rec
	$(GO) run ./cmd/csbrec check -slo @specs/serving.slo out/serve.rec
	$(GO) run ./cmd/csbrec perfetto -o out/serve_rec_perfetto.json out/serve.rec
	$(GO) run ./cmd/csbrec top -plain out/serve.rec

ci: lint build race zero-alloc examples bench-smoke
