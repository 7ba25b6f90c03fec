# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build check test lint certs certify-update races-update lifetimes-update race fuzz-smoke bench report figures inputs loc clean

build:
	$(GO) build ./...

test: lint
	$(GO) test ./...

# Everything the merge gate needs in one target: build, the full fear
# checker (vet + census), all three certification passes against their
# committed artifacts, then the test suite. CI runs exactly this.
check: build lint certs test

# Source-level fear checker: static census + containment + worker-escape
# (docs/LINT.md), behind a formatting gate: gofmt -l must print nothing,
# testdata fixtures included. Shared by CI.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: unformatted files:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/rpblint ./...

# The three certification passes over one type-checked module
# (docs/LINT.md): offset provenance ("Certification"), parallel-body
# writes ("Write certification"), arena-checkout lifetimes ("Lifetime
# certification"). Each re-derives its report and fails on a stale
# committed lint-{certs,races,lifetimes}.json or on a refusal anywhere
# in the module that no //lint:scared marker audits. Shared by CI; the
# three *-update targets regenerate one file each.
certs:
	$(GO) run ./cmd/rpblint -certify -races -lifetimes

certify-update:
	$(GO) run ./cmd/rpblint -certify -write

races-update:
	$(GO) run ./cmd/rpblint -races -write

lifetimes-update:
	$(GO) run ./cmd/rpblint -lifetimes -write

race:
	$(GO) test -race ./...

# Fuzz smoke: run FuzzCodecRoundTrip — group-varint rows, group-skip
# probes, shard assembly — FuzzSymmetrize — the integer-sort
# Symmetrize against its comparison-sort reference — FuzzBuild — the
# CSR counting sort under Build, BuildW and Transpose against a
# sequential stable reference, rows in input order at every worker
# count — FuzzArrayAgainstNaive
# — the packed-key prefix-doubling suffix array, sequential and on a
# pool, unchecked and checked, against DC3 and a comparison sort —
# FuzzBWTRoundTrip, FuzzSortAgainstSlices — the branch-free quicksort
# leaf against slices.Sort — FuzzReduceBlocks — float reductions on
# a pool and sequentially against a blocked reference, bit for bit —
# FuzzCountSort — the counting-sort engine's slots and offsets against
# a sequential stable counting sort at every worker count —
# FuzzTriangulate — duplicates, collinear runs and cocircular rings
# triangulated and refined on a two-worker pool, mesh invariants after
# each — and FuzzReadAdjacencyGraph — the one reader of outside input
# (rpbgen -in) on arbitrary bytes — for a few wall-clock seconds of
# mutation each on top of the seed corpus. Not a soak; just enough for
# CI to catch an encoder, key-packing, partition, combine-order, mesh
# or parser change that breaks on shapes the unit tests don't
# enumerate.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run xxx -fuzz FuzzSymmetrize -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run xxx -fuzz FuzzBuild -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run xxx -fuzz FuzzArrayAgainstNaive -fuzztime $(FUZZTIME) ./internal/suffix/
	$(GO) test -run xxx -fuzz FuzzBWTRoundTrip -fuzztime $(FUZZTIME) ./internal/suffix/
	$(GO) test -run xxx -fuzz FuzzSortAgainstSlices -fuzztime $(FUZZTIME) ./internal/qsort/
	$(GO) test -run xxx -fuzz FuzzReduceBlocks -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run xxx -fuzz FuzzCountSort -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run xxx -fuzz FuzzTriangulate -fuzztime $(FUZZTIME) ./internal/geom/
	$(GO) test -run xxx -fuzz FuzzReadAdjacencyGraph -fuzztime $(FUZZTIME) ./internal/pbbsio/

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure at small scale.
report:
	$(GO) run ./cmd/rpbreport -what all -scale small

# The paper-scale (default) evaluation; slower.
figures:
	$(GO) run ./cmd/rpbreport -what all -scale default

# Export PBBS-format inputs for interchange with C++ PBBS / Rust RPB.
inputs:
	$(GO) run ./cmd/rpbgen -scale small -out ./inputs

# Code size per package, the measure ROADMAP.md tracks: non-blank
# lines that are not // comments, in non-test .go files outside
# testdata, then the module total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | sort | \
		xargs awk '!/^[[:space:]]*$$/ && !/^[[:space:]]*\/\// { d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++; t++ } \
		END { for (d in n) printf "%6d  %s\n", n[d], d; printf "%6d  total\n", t }' | sort -k2

clean:
	rm -rf ./inputs
