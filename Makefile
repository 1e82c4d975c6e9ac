# Developer entry points. `make ci` is the gate: formatting, vet, build,
# the full test suite under the race detector (the experiment harness
# and the Engine's batch methods run real worker pools, so -race is
# load-bearing, not ceremony), a run of the deterministic examples and
# one pass of every benchmark. Performance is compared between commits
# by bench/ (bash bench/run.sh -collect/-compare, see bench/README.md);
# `make perf-rules` checks the two same-run timing rules.

GO ?= go
PROFILINT ?= /tmp/profilint-$(shell id -u)

.PHONY: ci fmt vet lint lint-fix build test race examples benchmod bench-smoke perf-rules fuzz-smoke apicheck apicheck-update

ci: fmt vet lint build race examples bench-smoke benchmod fuzz-smoke apicheck

fmt:
	@out=$$(gofmt -s -l . | grep -v '^vendor/'); \
	if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
	fi

# perfrules_test.go builds only under its tag; vet it too so it
# cannot rot unseen.
vet:
	$(GO) vet ./...
	$(GO) vet -tags perfrules .

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

# Run the deterministic examples: each must exit 0 (a failed
# cross-check panics), which `build` alone does not check. batchsweep
# prints wall-clock timings and campaign writes a result store, so
# both stay compile-only.
examples:
	@for e in dccs quickstart ttrtuning multisegment edfvsdm endtoend; do \
		$(GO) run ./examples/$$e > /dev/null || { echo "examples/$$e failed"; exit 1; }; \
	done

# bench/ is its own module (the end-to-end benchmark), so ./... above
# never builds it; vet it and run its short tests so a change to the
# internal packages it calls cannot leave it broken.
benchmod:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# The two timing rules that compare benchmarks of one run with each
# other: the instrumented Engine at most 5% slower than the
# uninstrumented one, and the cached experiments suite at most 10%
# slower than the sequential one (TestPerfRules, perfrules_test.go).
# Wall-clock rules need a quiet host, so they sit behind a build tag
# instead of in `make ci`; the allocation half of the observability
# rule is the tier-1 TestObservabilityAddsNoAllocations. Regressions
# between commits are bench/'s job: bench/run.sh -collect/-compare.
perf-rules:
	$(GO) test -tags perfrules -run '^TestPerfRules$$' -count=1 -v .

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
	$(GO) test -run '^$$' -fuzz '^FuzzStreamSetEncoding$$' -fuzztime 5s ./internal/memo
