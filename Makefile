# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build check test lint certify certify-update races races-update lifetimes lifetimes-update race fuzz-smoke bench bench-graph-xl report figures inputs clean

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

# Beyond-LLC graph benchmarks (bench_graph_xl_test.go): BFS, SSSP,
# PageRank and triangle counting at ScaleLarge over plain and compressed
# CSR, reporting bytes/edge and MTEPS (docs/GRAPH.md "Compressed CSR"),
# plus the BenchmarkXLGraphDecode* decode-bandwidth family (GB/s and
# edges/ns). Building the inputs takes minutes, hence the long timeout;
# CI runs it at BENCHTIME=1x so the ScaleLarge code cannot rot. -cpu 1
# is where the dated numbers in docs/GRAPH.md were taken. Not a workload
# of the repository benchmark (benchmark/README.md says why): nothing
# reads its output, committed numbers come from `go run ./benchmark`.
BENCHTIME ?= 1s
bench-graph-xl:
	$(GO) test -run xxx -bench BenchmarkXLGraph -benchmem -benchtime $(BENCHTIME) -cpu 1 -timeout 90m .

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
