GO ?= go

.PHONY: all build test race vet fmt lint bench-short benchsuite-test simcheck chaos crash qos-smoke scale-smoke detgate golden ci experiments

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench-short runs the package micro-benchmarks at -benchtime=1x, just
# to prove they still compile and run. The performance harness is
# benchsuite/ (bash benchsuite/run.sh).
bench-short:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./internal/sim/ ./internal/mesh/ ./internal/sweep/ ./internal/stats/ ./internal/pfs/ ./internal/ionode/

# benchsuite-test runs the benchmark suite's own tests. benchsuite/ is a
# module of its own (it builds against this one through a replace
# directive), so `go test ./...` at the root does not reach it; this is
# what catches a machine or sim API change that breaks the benchmark.
benchsuite-test:
	cd benchsuite && $(GO) test ./...

# simcheck sweeps 100 random scenarios through the oracle battery
# (determinism, data, conservation, sanity).
simcheck:
	$(GO) run ./cmd/simcheck -seeds 100

# chaos force-arms transient disk faults with the retry layer on every
# seed: all must recover, and at least one must be shown fatal without
# the retries.
chaos:
	$(GO) run ./cmd/simcheck -chaos -seeds 25

# crash force-arms whole-I/O-node outages (and sometimes a permanent
# RAID member loss with an online rebuild) under restart-aware failover
# on every seed: every requested byte must be delivered, counted late,
# or counted unavailable, and at least one seed must be shown fatal with
# the failover and parity stripped.
crash:
	$(GO) run ./cmd/simcheck -crash -seeds 25

# fmt fails (listing the files) if anything is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs staticcheck and govulncheck when they are installed and
# skips them (loudly) when not — local boxes need not have them; CI
# installs pinned versions.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed, skipping"; fi

# detgate pins the simulation's determinism (golden fingerprint + trace
# digests of the four golden scenarios) and the zero-allocation hot
# paths.
detgate:
	$(GO) run ./cmd/detgate -allocs

# golden regenerates the committed determinism digests
# (cmd/detgate/golden.digest) from this build. Run it after any
# deliberate change to the simulation's event history or to the result
# fingerprint's field set, review the printed digests, and commit the
# refreshed file together with the change — detgate fails CI until the
# two agree again.
golden:
	$(GO) run ./cmd/detgate -update

# qos-smoke is the multi-tenant overload gate: the open-loop QoS oracle
# battery (fair queueing, admission, starvation-freedom, FIFO-twin
# unfairness) under the race detector, plus a quick ext-qos tail-latency
# sweep.
qos-smoke:
	$(GO) run -race ./cmd/simcheck -qos -seeds 25 -parallel 4
	$(GO) run ./cmd/experiments -quick -run ext-qos -parallel 4

# scale-smoke is the large-machine gate: the random-scenario oracle
# battery on the 256x64 platform and a quick ext-scale coordination-cost
# sweep.
scale-smoke:
	$(GO) run -race ./cmd/simcheck -scale -seeds 12 -parallel 4
	$(GO) run ./cmd/experiments -quick -run ext-scale -parallel 4

# ci reproduces the GitHub Actions pipeline locally: lint, build, race
# tests, the benchsuite module's tests, the simcheck/chaos/crash/scale/qos
# smoke sweeps, the determinism/alloc gate, the micro-benchmark smoke, and
# a one-second benchsuite smoke run (not a timing gate).
ci: fmt vet lint build race benchsuite-test
	$(GO) run -race ./cmd/simcheck -seeds 25 -parallel 4
	$(GO) run -race ./cmd/simcheck -chaos -seeds 25 -parallel 4
	$(GO) run -race ./cmd/simcheck -crash -seeds 25 -parallel 4
	$(GO) run -race ./cmd/simcheck -scale -seeds 12 -parallel 4
	$(GO) run -race ./cmd/simcheck -qos -seeds 25 -parallel 4
	$(GO) run ./cmd/experiments -quick -run ext-tournament -parallel 4
	$(GO) run ./cmd/experiments -quick -run ext-qos -parallel 4
	$(GO) run ./cmd/experiments -quick -run ext-scale -parallel 4
	$(GO) run ./cmd/detgate -allocs
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./internal/sim/ ./internal/mesh/ ./internal/sweep/ ./internal/stats/ ./internal/pfs/ ./internal/ionode/
	bash benchsuite/run.sh --workload paper-balanced --seconds 1 --trace 1 > /dev/null
	@echo "ci: all gates passed"

experiments:
	$(GO) run ./cmd/experiments -quick
