# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build check test lint certify certify-update races races-update lifetimes lifetimes-update race fuzz-smoke bench bench-sched bench-mem bench-mem-gate bench-graph bench-graph-gate bench-graph-xl bench-graph-xl-gate report figures inputs clean

build:
	$(GO) build ./...

test: lint
	$(GO) test ./...

# Everything the merge gate needs in one target: build, the full fear
# checker (vet + census), all three certification passes against their
# committed artifacts, then the test suite. CI runs exactly this.
check: build lint certify races lifetimes test

# Source-level fear checker: static census + containment + race
# heuristics (docs/LINT.md). Shared by CI.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/rpblint ./...

# Offset-provenance certification (docs/LINT.md "Certification"):
# re-derives every proof and fails if the committed lint-certs.json is
# stale. Shared by CI; certify-update regenerates the file.
certify:
	$(GO) run ./cmd/rpblint -certify

certify-update:
	$(GO) run ./cmd/rpblint -certify -write-certs

# Parallel-write certification (docs/LINT.md "Write certification"):
# classifies every shared write in every parallel region and fails on
# unexplained refusals in the enforced packages or a stale committed
# lint-races.json. Shared by CI; races-update regenerates the file.
races:
	$(GO) run ./cmd/rpblint -races

races-update:
	$(GO) run ./cmd/rpblint -races -write-races

# Arena-lifetime certification (docs/LINT.md "Lifetime certification"):
# classifies every arena checkout's lifetime and fails on unexplained
# refusals in the enforced packages or a stale committed
# lint-lifetimes.json. Shared by CI; lifetimes-update regenerates it.
lifetimes:
	$(GO) run ./cmd/rpblint -lifetimes

lifetimes-update:
	$(GO) run ./cmd/rpblint -lifetimes -write-lifetimes

race:
	$(GO) test -race ./...

# Codec fuzz smoke: run FuzzCodecRoundTrip — group-varint rows,
# group-skip probes, shard assembly — for a few wall-clock seconds of
# mutation on top of the seed corpus. Not a soak; just enough for CI to
# catch an encoder change that breaks round-tripping on shapes the unit
# tests don't enumerate.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME) ./internal/graph/

bench:
	$(GO) test -bench=. -benchmem ./...

# Scheduler fast-path microbenchmarks (lazy splitting, join frames,
# park/wake) plus the check-elision microbenchmark (what a certificate
# buys; docs/LINT.md), exported to BENCH_sched.json as benchmark name
# -> ns/op, allocs/op, splits/op. CI runs this with BENCHTIME=1x as a
# smoke test so the fast path cannot silently rot; see docs/SCHED.md.
SCHED_BENCH = BenchmarkSchedFor|BenchmarkSchedJoin|BenchmarkForOverhead|BenchmarkJoinFib|BenchmarkSpawnJoinOverhead|BenchmarkGrainSweep|BenchmarkCheckElision|BenchmarkAtomicElision
BENCHTIME ?= 1s
bench-sched:
	$(GO) test -run xxx -bench '$(SCHED_BENCH)' -benchmem -benchtime $(BENCHTIME) ./internal/sched/ ./internal/core/ | $(GO) run ./cmd/benchjson -out BENCH_sched.json

# Steady-state allocation benchmarks (bench_mem_test.go): per-round
# allocs/op and B/op of every converted kernel and sequence primitive,
# exported to BENCH_mem.json. bench-mem-gate reruns them into a scratch
# file and diffs allocs/op against the committed BENCH_mem.json with
# `benchjson -gate` (tolerance new > old*1.30+2), failing on any
# regression — the alloc-regression gate in CI (docs/MEMORY.md).
MEM_BENCH = BenchmarkMem
bench-mem:
	$(GO) test -run xxx -bench '$(MEM_BENCH)' -benchmem -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson -out BENCH_mem.json

bench-mem-gate:
	$(GO) test -run xxx -bench '$(MEM_BENCH)' -benchmem -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson -out BENCH_mem.gate.json -gate BENCH_mem.json
	rm -f BENCH_mem.gate.json

# Graph-kernel wall-clock benchmarks (bench_graph_test.go): hybrid BFS,
# batched delta-stepping SSSP, and the degree-aware CSR builder at
# small scale, plus the triangle-counting hub sweep of internal/bench
# (BenchmarkGraphTCHubs: it sets the unexported hub count), exported to
# BENCH_graph.json. The committed
# BENCH_graph_before.json is the pre-batching snapshot that `rpbreport
# -what graph` diffs against (docs/GRAPH.md). bench-graph-gate reruns
# into a scratch file and gates ns/op-adjacent allocs against the
# committed BENCH_graph.json, the same regression discipline as
# bench-mem-gate. Both graph tiers run at -cpu 1, where the committed
# baselines were taken: with more workers every steal adds closure and
# frame allocations, and a one-iteration gate run counts them all.
GRAPH_BENCH = BenchmarkGraph
bench-graph:
	$(GO) test -run xxx -bench '$(GRAPH_BENCH)' -benchmem -benchtime $(BENCHTIME) -cpu 1 . ./internal/bench/ | $(GO) run ./cmd/benchjson -out BENCH_graph.json

bench-graph-gate:
	$(GO) test -run xxx -bench '$(GRAPH_BENCH)' -benchmem -benchtime $(BENCHTIME) -cpu 1 . ./internal/bench/ | $(GO) run ./cmd/benchjson -out BENCH_graph.gate.json -gate BENCH_graph.json
	rm -f BENCH_graph.gate.json

# Beyond-LLC graph benchmarks (bench_graph_xl_test.go): the same BFS /
# SSSP kernels at ScaleLarge over plain and compressed CSR, reporting
# bytes/edge and MTEPS into BENCH_graph_xl.json — the compressed-CSR
# acceptance data (docs/GRAPH.md "Compressed CSR") — plus the
# BenchmarkXLGraphDecode* decode-bandwidth family (GB/s and edges/ns:
# plain stream vs group-varint, forward and transpose), which the BenchmarkXLGraph regex picks up so the gate's
# smoke row covers decode too. Building the inputs takes minutes,
# hence the long timeout; CI runs the gate variant at BENCHTIME=1x as
# a smoke test. -baseline-add lets a first-appearance benchmark enter
# the committed baseline instead of failing the gate.
XLGRAPH_BENCH = BenchmarkXLGraph
bench-graph-xl:
	$(GO) test -run xxx -bench '$(XLGRAPH_BENCH)' -benchmem -benchtime $(BENCHTIME) -cpu 1 -timeout 90m . | $(GO) run ./cmd/benchjson -out BENCH_graph_xl.json

bench-graph-xl-gate:
	$(GO) test -run xxx -bench '$(XLGRAPH_BENCH)' -benchmem -benchtime $(BENCHTIME) -cpu 1 -timeout 90m . | $(GO) run ./cmd/benchjson -out BENCH_graph_xl.gate.json -gate BENCH_graph_xl.json -baseline-add
	rm -f BENCH_graph_xl.gate.json

# Regenerate every table and figure at small scale.
report:
	$(GO) run ./cmd/rpbreport -what all -scale small

# The paper-scale (default) evaluation; slower.
figures:
	$(GO) run ./cmd/rpbreport -what all -scale default

# Export PBBS-format inputs for interchange with C++ PBBS / Rust RPB.
inputs:
	$(GO) run ./cmd/rpbgen -scale small -out ./inputs

clean:
	rm -rf ./inputs
