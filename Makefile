GO ?= go

.PHONY: build test vet vet-generic fuzz-smoke race race-mp bench bench-check loc perfguard smoke ci

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
	$(GO) test ./internal/prefixcache -run XXX -fuzz FuzzCacheOps -fuzztime 10s
	$(GO) test ./internal/wire -run XXX -fuzz FuzzDecodeSession -fuzztime 10s
	$(GO) test ./internal/protect -run XXX -fuzz FuzzLoadPolicy -fuzztime 10s

# The race detector pass covers the packages with goroutine fan-out: the
# tensor kernels' pooled parallel paths, the campaign worker pool, and the
# serving scheduler with its shared read-only bounds store. race-mp repeats
# it at GOMAXPROCS=4 — adding internal/model so the mixed-phase battery and
# the batching-invariance property test (co-batched prefill+decode with the
# per-(session×head) attention fan-out on pool workers) run with real
# scheduler preemption even on single-core runners. -short only drops the
# packed exp's every-float32 sweep (TestExpVecMatchesMathExp keeps its sampled
# form): single-buffer arithmetic the detector slows tenfold and cannot fault,
# and plain `make test` runs it in full. race-mp over internal/serve and
# internal/router is also what the former serve-smoke-mp target was for:
# batched decode, the kill storm and the HTTP surface at GOMAXPROCS=4.
# -count=1 there because the test cache does not key on GOMAXPROCS: without
# it race-mp replays race's results for every package the two share.
race:
	$(GO) test -race -short ./internal/tensor/... ./internal/campaign/... ./internal/serve/... ./internal/wire/... ./internal/router/...

race-mp:
	GOMAXPROCS=4 $(GO) test -race -short -count=1 ./internal/tensor/... ./internal/model/... ./internal/campaign/... ./internal/serve/... ./internal/wire/... ./internal/router/...

bench:
	$(GO) test -run XXX -bench 'BenchmarkGenerate(Unprotected|FT2)' -benchmem .
	$(GO) test -run XXX -bench BenchmarkDecodeStep -benchmem ./internal/model/
	$(GO) test -run XXX -bench BenchmarkAttnHead ./internal/tensor/

# The repository benchmark under bench/ is its own module (own go.mod), so
# root `go build ./...` never compiles it: this target is what catches an
# internal API break there. -o /dev/null because `go build ./...` over a lone
# main package would otherwise write its binary into bench/.
bench-check:
	cd bench && export GOFLAGS=-mod=mod GOWORK=off && $(GO) vet ./... && $(GO) build -o /dev/null ./... && $(GO) test ./...

# Non-test Go line counts of the engine packages (plus assembly lines where a
# package has *.s files) and their Go total, then of the one file ROADMAP
# tracks by name (the scheduler), of the experiment drivers and their CLI
# (ROADMAP aim 2: the counts go down; cmd/ft2bench stays ≤ 600), then all of
# cmd/ and the shell under scripts/.
loc:
	@total=0; for p in model tensor serve prefixcache core protect abft chaos campaign; do \
		n=$$(ls internal/$$p/*.go | grep -v _test.go | xargs cat | wc -l); total=$$((total + n)); \
		asm=$$(cat internal/$$p/*.s 2>/dev/null | wc -l); \
		if [ $$asm -gt 0 ]; then printf '%-11s %s + %s asm\n' $$p $$n $$asm; else printf '%-11s %s\n' $$p $$n; fi; \
	done; printf '%-11s %s\n' total $$total; \
	printf 'internal/serve/scheduler.go %s\n' $$(wc -l < internal/serve/scheduler.go); \
	for d in internal/experiments cmd/ft2bench; do \
		printf '%s %s\n' $$d $$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l); \
	done; \
	printf 'cmd %s\nscripts %s\n' $$(ls cmd/*/*.go | grep -v _test.go | xargs cat | wc -l) $$(cat scripts/* | wc -l)

# Performance guard: three kinds of paired gate, each printed as median ±
# spread of the per-pair speedups — with the calibrated kernel cost model P=4
# single-session decode must not lose to P=1 on any model family, warm
# shared-prefix serving must beat cold, and the serving stack must beat one
# serial Generate per request by 1.35×. Fails the build on regression.
perfguard:
	$(GO) run ./cmd/ft2bench -perfguard

# The one shell script: SIGINT a small campaign mid-run, resume it from the
# journal, and diff the final table against an uninterrupted run.
smoke:
	scripts/campaign_smoke.sh

ci: vet vet-generic build test fuzz-smoke bench-check race race-mp perfguard smoke
