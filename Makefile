# Developer entry points. `make ci` is the gate: formatting, vet, build,
# and the full test suite under the race detector (the experiment
# harness and the Engine's batch methods run real worker pools, so
# -race is load-bearing, not ceremony).

GO ?= go
PROFILINT ?= /tmp/profilint-$(shell id -u)

.PHONY: ci fmt vet lint lint-fix build test race benchmod bench bench-smoke fuzz-smoke apicheck apicheck-update

ci: fmt vet lint build race benchmod fuzz-smoke apicheck

fmt:
	@out=$$(gofmt -s -l . | grep -v '^vendor/'); \
	if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# profilint: the repo's own go/analysis suite (detrand, mapiter,
# poolgo, ctxthread, seedmix + nilness/shadow), run as a vet tool so
# package loading and caching are go's own. Findings name the analyzer
# and the invariant it guards; see internal/lint and the README's
# "Static analysis" section for the //profilint:ignore contract.
lint:
	$(GO) build -o $(PROFILINT) ./cmd/profilint
	$(GO) vet -vettool=$(PROFILINT) ./...

# lint-fix emits findings as JSON (one object per package, keyed by
# analyzer) for scripted triage — pipe through jq to list, sort or
# auto-annotate: `make lint-fix | jq -r 'to_entries[]'`. go vet's
# -json swallows the failing exit, so this always exits 0.
lint-fix:
	$(GO) build -o $(PROFILINT) ./cmd/profilint
	$(GO) vet -vettool=$(PROFILINT) -json ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench/ is its own module (the end-to-end benchmark), so ./... above
# never builds it; vet it and run its short tests so a change to the
# internal packages it calls cannot leave it broken.
benchmod:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# The perf baseline: the suite-level and batch benchmarks plus the
# cached cold/warm pair, the SimulateBatch pair and the campaign
# cold-store/warm-resume pair, each driven through an Engine built
# outside the timer, recorded into BENCH_results.json
# (structured metrics + the verbatim benchstat-compatible text under
# .raw; compare runs with
# `jq -r .raw BENCH_results.json | benchstat old.txt /dev/stdin`).
# benchjson doubles as the perf guard: the fresh numbers are compared
# against the committed baseline before it is overwritten, and the
# target fails when ns/op or allocs/op regressed past 20% or when the
# cached experiments suite ran slower than the sequential one (git
# still holds the previous baseline for the diff). bench-delta.json
# carries the comparison for CI artifacts. BENCHFLAGS=-warn demotes
# the guard to a report on noisy machines.
# The observability pair runs separately with -count so the on-vs-off
# gate compares minima instead of single noisy samples (benchjson
# aggregates repeated lines by per-metric minimum).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkAllExperiments|BenchmarkAnalyzeBatch|BenchmarkAnalyzeCached|BenchmarkSimulateBatch|BenchmarkCampaign|BenchmarkEngineConcurrentCallers' -benchmem . > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	$(GO) test -run '^$$' -bench 'BenchmarkEngineObs' -benchmem -count=5 . >> bench.out || (cat bench.out; rm -f bench.out; exit 1)
	cat bench.out
	$(GO) run ./cmd/benchjson -o BENCH_results.json -baseline BENCH_results.json -delta bench-delta.json $(BENCHFLAGS) < bench.out
	@rm -f bench.out

# One iteration of every benchmark in the module: catches bit-rotted
# benchmark code without paying for statistically meaningful timings.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Exported-API golden check: cmd/apicheck dumps the root package's
# exported surface (sorted, comment-free declarations) and diffs it
# against testdata/api.golden, so every surface change lands as a
# reviewable diff and CI fails on unreviewed ones. After reviewing an
# intentional change, regenerate with `make apicheck-update`.
apicheck:
	@$(GO) run ./cmd/apicheck | diff -u testdata/api.golden - \
		|| { echo "exported API surface changed; review the diff and run 'make apicheck-update'"; exit 1; }

apicheck-update:
	@mkdir -p testdata
	$(GO) run ./cmd/apicheck > testdata/api.golden

# Short fuzzing smoke pass: the checked-in seed corpus already runs in
# `make race`; this additionally lets each fuzzer mutate for a few
# seconds so trivially reachable crashes surface in the gate.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/configfile
	$(GO) test -run '^$$' -fuzz '^FuzzParseTopology$$' -fuzztime 5s ./internal/configfile
	$(GO) test -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime 3s ./internal/configfile
	$(GO) test -run '^$$' -fuzz '^FuzzNetworkValidate$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseCampaign$$' -fuzztime 5s ./internal/campaign
