# Developer entry points. `make check` is the gate every PR must pass:
# gofmt, build, vet, and the full test suite with the race detector on (the
# simnet lockstep runs one goroutine per player and the parallel compute
# pools fan out inside them, so -race exercises real cross-goroutine
# traffic, including the shared interpolation-domain cache and per-index
# result slots).

GO ?= go

.PHONY: check build vet test race examples bench fmt-check

check: fmt-check build vet race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# examples runs the in-process example programs: each checks the property it
# demonstrates and exits non-zero when it is violated (examples/multiproc
# spawns daemons and has its own CI job).
examples:
	@for e in quickstart batchvss multicell randomizedba persistence proactive; do \
		echo "== examples/$$e"; $(GO) run ./examples/$$e >/dev/null || exit 1; done

# bench runs the repository's benchmark (BENCHMARK.json, bench/README.md):
# five workloads, the traced run and the per-layer ladders; results land in
# bench/.build/out/.
bench:
	$(GO) run ./bench

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
