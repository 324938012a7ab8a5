GO ?= go

# External tools, pinned so a local `make check-all` runs exactly what
# CI runs. `go run mod@version` fetches on first use, so these targets
# need network access; everything in `check` is offline-safe.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK := golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: build test vet lint lint-json race bench bench-json bench-scale serve-load fuzz-smoke staticcheck vuln check check-all

build:
	$(GO) build ./...

# -shuffle=on randomizes test order per run to surface test-order
# dependence; the seed is printed on failure for reproduction.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# The repo's own analyzer suite, eight checkers over one shared
# type-checked load: determinism (detrand, and detflow through the
# call graph), cancellation (ctxflow, ctxleak), hot-path allocation
# (hotalloc), metrics (obsmetric), map iteration (maporder) and float
# equality (floateq). See internal/analysis and DESIGN.md §12.
lint:
	$(GO) run ./cmd/repolint ./...

# Machine-readable lint report, as uploaded by CI.
lint-json:
	$(GO) run ./cmd/repolint -json ./... > repolint.json

race:
	$(GO) test -race ./...

# The hot kernels: the alternate-path engine, the netsim link and path
# evaluations, and one traceroute over a warm quick suite (the probe
# benchmark lives in the root harness, beside the suite it needs); then
# a cold quick suite build, whose B/op and allocs/op track the
# campaigns' allocation next to the kernels, and the quick snapshot
# warm start (decode and reassembly, from memory and from disk), whose
# B/op tracks the decoded datasets' allocation beside the build's.
bench:
	$(GO) test -bench 'BestAlternates|GreedyRemoveTop' -benchmem -run '^$$' ./internal/core/
	$(GO) test -bench . -benchmem -run '^$$' ./internal/netsim/
	$(GO) test -bench 'ProbeTraceroute' -benchmem -run '^$$' .
	$(GO) test -bench '^Benchmark(SuiteBuildPreset|ServeWarmStart|SnapshotLoad)$$/^quick$$' -benchmem -run '^$$' .

# Machine-readable baseline of the root benchmark harness: one
# iteration of every exhibit (enough for a committed reference point;
# -benchtime=1x keeps the expensive ablations bounded), converted to
# JSON by cmd/benchjson. Override the PR number (make bench-json N=9)
# or the whole filename (BENCH_OUT=baseline.json) instead of editing
# this file each PR.
N ?= 10
BENCH_OUT ?= BENCH_$(N).json
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x -timeout 30m . | $(GO) run ./cmd/benchjson > $(BENCH_OUT)

# Planet-scale smoke: build the 10k-AS / 100k-host suite end to end
# under a hard memory ceiling and wall-clock timeout. The test itself
# asserts the substrate size, the <8 GB peak RSS budget, and identical
# analysis output across concurrency levels.
bench-scale:
	PATHSEL_SCALE_SMOKE=1 GOMEMLIMIT=7GiB $(GO) test -run TestScaleSmoke -v -timeout 10m ./internal/experiments/

# Serving-stack load test: assemble the shard router and two workers
# in-process, replay the committed request mix over real HTTP, and
# assert the p99 latency and error budgets. Writes the committed
# baseline (make serve-load LOAD_OUT=LOAD_10.json regenerates it).
LOAD_OUT ?= LOAD_$(N).json
serve-load:
	$(GO) run ./cmd/loadtest -out $(LOAD_OUT)

# Short fuzz runs of the parsers that face external input (FuzzLoad is
# the dataset loader behind `altpath FILE`), plus the packet data
# plane's and the quantile's invariant fuzzers; CI runs the same
# budgets. FuzzRestore's and FuzzLoad's inputs are KB-sized snapshots,
# and the default 60 s minimization of each new coverage input would
# spend the whole budget on one input, so their minimization is capped.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=15s -run '^$$' ./internal/trace
	$(GO) test -fuzz=FuzzParsePreset -fuzztime=15s -run '^$$' ./internal/experiments
	$(GO) test -fuzz=FuzzDataPlane -fuzztime=15s -run '^$$' ./internal/packetnet
	$(GO) test -fuzz=FuzzDecode -fuzztime=15s -run '^$$' ./internal/snapshot
	$(GO) test -fuzz=FuzzRestore -fuzztime=15s -fuzzminimizetime=50x -run '^$$' ./internal/snapshot
	$(GO) test -fuzz=FuzzLoad -fuzztime=15s -fuzzminimizetime=50x -run '^$$' ./internal/dataset
	$(GO) test -fuzz=FuzzQuantile -fuzztime=15s -run '^$$' ./internal/stats

staticcheck:
	$(GO) run $(STATICCHECK) ./...

vuln:
	$(GO) run $(GOVULNCHECK) ./...

# Offline-safe gate: what every PR must pass locally.
check: vet lint test race

# check plus the network-fetching tools; matches the full CI run.
check-all: check staticcheck vuln fuzz-smoke
