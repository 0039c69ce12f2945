GO ?= go

.PHONY: check build test race vet fmt lint api staticadv serve-smoke bench bench-streaming bench-costmodel cover

# check is the tier-1 verify gate (see ROADMAP.md): static checks, the
# invariant linter suite, the static kernel advisor gate, the public API
# surface lock, the full test suite, the race-enabled run that guards
# the concurrent offline analysis pipeline, and the drgpum-serve smoke
# round-trip. Steps run in cheapest-first order and fail fast; each
# announces itself so CI logs show exactly where a red run stopped.
check: vet fmt build lint staticadv api test race serve-smoke
	@echo "== check: all gates passed =="

build:
	@echo "== build =="
	$(GO) build ./...

test:
	@echo "== test =="
	$(GO) test ./...

race:
	@echo "== race =="
	$(GO) test -race ./...

vet:
	@echo "== vet =="
	$(GO) vet ./...

fmt:
	@echo "== fmt =="
	@out="$$(gofmt -s -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
	fi

# lint runs the drgpum invariant analyzers (mapiter, hookreentry,
# sharedwrite, simerr) over the whole module. See cmd/drgpum-lint and
# DESIGN.md "Mechanized invariants".
lint:
	@echo "== lint =="
	$(GO) run ./cmd/drgpum-lint ./...

# staticadv runs the static kernel advisor (DESIGN.md "Static kernel
# advisor") twice: a zero-finding sweep over the annotated examples tree,
# then the per-workload sweep + stride report + cross-validation gate
# (>=80% naive agreement with the dynamic Table 1, zero static-only
# findings on optimized variants). The second invocation runs all three
# suites in ONE process on purpose: the internal/lint loader cache hands
# them the same loaded workloads package, and -loadstats prints the
# measured saving (~100ms of go list -export + typecheck avoided per
# extra suite on a warm build cache — about half the step's load cost).
staticadv:
	@echo "== staticadv (examples sweep + workload xval gate; one export-data load serves sweep+stride+xval) =="
	$(GO) run ./cmd/drgpum-staticadv ./examples/...
	$(GO) run ./cmd/drgpum-staticadv -workloads -stride -xval -gate -loadstats > STATICADV.txt
	@tail -n 4 STATICADV.txt

# api diffs the exported surface of the public packages against the
# api/drgpum.txt lock. Regenerate deliberately with:
#   $(GO) run ./cmd/drgpum-api -write
api:
	@echo "== api =="
	$(GO) run ./cmd/drgpum-api -check

# serve-smoke boots the drgpum-serve daemon on a loopback port, drives
# one profiling session end to end through its own HTTP API (submit →
# poll → report → metrics), then shuts it down gracefully — the cheapest
# whole-binary proof that the serving path works.
serve-smoke:
	@echo "== serve-smoke =="
	$(GO) run ./cmd/drgpum-serve -smoke

bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# bench-streaming measures the streaming pipeline (ingest ns/op, snapshot
# ns/op, resident bytes, offline counterparts) and writes
# BENCH_streaming.json. CI publishes it from the bench-smoke step; the
# EXPERIMENTS.md streaming appendix records representative values.
bench-streaming:
	@echo "== bench-streaming =="
	$(GO) run ./cmd/drgpum-bench -out BENCH_streaming.json
	@cat BENCH_streaming.json

# bench-costmodel measures what the memory-hierarchy cost model adds to an
# end-to-end profile (cost-on vs cost-off per-workload medians, overhead
# percentage, total modeled cycles as a determinism fingerprint) and
# rewrites BENCH_costmodel.json. The checked-in copy is the baseline; CI
# re-runs this and publishes the fresh numbers in the step summary.
bench-costmodel:
	@echo "== bench-costmodel =="
	$(GO) run ./cmd/drgpum-bench -costmodel -out BENCH_costmodel.json
	@cat BENCH_costmodel.json

# cover runs the test suite with coverage of every package (not just the
# one under test) and prints the per-function summary. cover.out is
# .gitignored; open it with `go tool cover -html=cover.out`.
cover:
	@echo "== cover =="
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) tool cover -func=cover.out | tail -n 1
