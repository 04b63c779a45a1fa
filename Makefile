GO ?= go

.PHONY: build test test-386 vet vet-generic fuzz-smoke race race-mp soak bench bench-check loc perfguard smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Nothing on an amd64 runner compiles the portable kernels (dot_generic.go and
# the other !amd64 files); vetting internal/ for arm64 type-checks them.
vet-generic:
	GOARCH=arm64 $(GO) vet ./internal/...

# Every end-to-end property — served, batched, cached, migrated, under chaos
# ≡ the GenerateInto oracle; endpoints; drain — is a Go test and runs here,
# including the one test that needs real processes (cmd/ft2router's
# TestRealProcessCluster: flag wiring, SIGKILL mid-stream, spill → restart →
# resume, SIGTERM drain; skipped under -short).
test:
	$(GO) test ./...

# Ten seconds of each fuzz target (their seed corpora already run under plain
# `go test`). A failing input is written to the package's testdata/.
fuzz-smoke:
	$(GO) test ./internal/tensor -run XXX -fuzz FuzzRangeScreen -fuzztime 10s
	$(GO) test ./internal/tensor -run XXX -fuzz FuzzSoftmaxRow -fuzztime 10s
	$(GO) test ./internal/tensor -run XXX -fuzz FuzzStrideSweeps -fuzztime 10s
	$(GO) test ./internal/tensor -run XXX -fuzz FuzzMatMulT -fuzztime 10s
	$(GO) test ./internal/prefixcache -run XXX -fuzz FuzzCacheOps -fuzztime 10s
	$(GO) test ./internal/campaign -run XXX -fuzz FuzzJournalLoad -fuzztime 10s
	$(GO) test ./internal/wire -run XXX -fuzz FuzzDecodeSession -fuzztime 10s
	$(GO) test ./internal/protect -run XXX -fuzz FuzzLoadPolicy -fuzztime 10s
	$(GO) test ./internal/protect -run XXX -fuzz FuzzObserveBareMatchesProtected -fuzztime 10s
	$(GO) test ./internal/router -run XXX -fuzz FuzzRelayStream -fuzztime 10s
	$(GO) test ./internal/serve -run XXX -fuzz FuzzGenerateRequest -fuzztime 10s
	$(GO) test ./internal/serve -run XXX -fuzz FuzzImportRequest -fuzztime 10s

# The race detector pass covers the packages whose code starts goroutines —
# the campaign worker pool, the serving scheduler with its shared read-only
# bounds store, and the cluster router — plus internal/wire and the prefix
# cache, whose entries sessions borrow while other sessions insert and evict. The engine
# (internal/model, internal/tensor) runs on its caller's goroutine
# (TestForwardPassStartsNoGoroutine), so there is nothing in it to race.
# race-mp repeats the pass at GOMAXPROCS=4, so batched decode, the kill storm
# and the HTTP surface run with real scheduler preemption even on
# single-core runners.
# -count=1 there because the test cache does not key on GOMAXPROCS: without
# it race-mp replays race's results for every package the two share.
race:
	$(GO) test -race -short ./internal/campaign/... ./internal/serve/... ./internal/wire/... ./internal/router/... ./internal/prefixcache/...

race-mp:
	GOMAXPROCS=4 $(GO) test -race -short -count=1 ./internal/campaign/... ./internal/serve/... ./internal/wire/... ./internal/router/... ./internal/prefixcache/...

# Ten minutes of mixed serving traffic (internal/serve/soak_test.go, build
# tag soak): the goroutine count, the live heap and the reserved KV bytes,
# sampled between load rounds, must stay flat. Not part of ci.
soak:
	$(GO) test -tags soak -run TestSoak -count=1 -timeout 20m -v ./internal/serve

# The portable (non-amd64) kernels are the definition the amd64 tiers are
# held to; a 386 build runs them (dot_generic.go is !amd64), so this leg is
# the one that executes the portable Dot loop under matMulTRows. -short skips
# the real-process cluster test and the long experiment runs.
test-386:
	GOARCH=386 $(GO) test -short ./...

bench:
	$(GO) test -run XXX -bench 'BenchmarkGenerate(Unprotected|FT2)' -benchmem .
	$(GO) test -run XXX -bench BenchmarkDecodeStep -benchmem ./internal/model/
	$(GO) test -run XXX -bench 'Benchmark(AttnHead|GELU|DecodeLinears|ReLU)' ./internal/tensor/
	$(GO) test -run XXX -bench BenchmarkStreamRelay ./internal/router/

# The repository benchmark under bench/ is its own module (own go.mod), so
# root `go build ./...` never compiles it: this target is what catches an
# internal API break there. -o /dev/null because `go build ./...` over a lone
# main package would otherwise write its binary into bench/.
bench-check:
	cd bench && export GOFLAGS=-mod=mod GOWORK=off && $(GO) vet ./... && $(GO) build -o /dev/null ./... && $(GO) test ./...

# Non-test Go line counts of the engine packages (plus assembly lines where a
# package has *.s files) and their Go + asm total, then of the one file ROADMAP
# tracks by name (the scheduler), of the experiment drivers and their CLI
# (ROADMAP aim 2: the counts go down; cmd/ft2bench stays ≤ 600), then all of
# cmd/ and the shell under scripts/.
loc:
	@total=0; for p in model tensor serve prefixcache core protect abft chaos campaign; do \
		n=$$(ls internal/$$p/*.go | grep -v _test.go | xargs cat | wc -l); \
		asm=$$(cat internal/$$p/*.s 2>/dev/null | wc -l); total=$$((total + n + asm)); \
		if [ $$asm -gt 0 ]; then printf '%-11s %s + %s asm = %s\n' $$p $$n $$asm $$((n + asm)); else printf '%-11s %s\n' $$p $$n; fi; \
	done; printf '%-11s %s\n' 'total Go+asm' $$total; \
	printf 'internal/serve/scheduler.go %s\n' $$(wc -l < internal/serve/scheduler.go); \
	for d in internal/experiments cmd/ft2bench; do \
		printf '%s %s\n' $$d $$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l); \
	done; \
	printf 'cmd %s\nscripts %s\n' $$(ls cmd/*/*.go | grep -v _test.go | xargs cat | wc -l) $$(cat scripts/* | wc -l)

# Performance guard: two paired gates, each printed as median ± spread of the
# per-pair speedups — warm shared-prefix serving must beat cold, and the
# serving stack must beat one serial Generate per request by 1.35×. Fails the
# build on regression.
perfguard:
	$(GO) run ./cmd/ft2bench -perfguard

# The one shell script: SIGINT a small campaign mid-run, resume it from the
# journal, and diff the final table against an uninterrupted run.
smoke:
	scripts/campaign_smoke.sh

ci: vet vet-generic build test test-386 fuzz-smoke bench-check race race-mp perfguard smoke
