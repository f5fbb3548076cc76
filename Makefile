# Convenience targets; everything here is plain `go` — no extra tooling.

# Benchmarks committed with a PR. `make bench` reruns the headline
# benchmarks (simulation throughput, the simulator's schedule-and-fire
# cycle, flow round-trip, Table 1 end-to-end, plus the health plane's
# observe and frame-encode hot paths, the fault plane's shape tick and the
# placement decision, all of which must stay allocation-free) with
# allocation counts and refreshes the JSON snapshot via cmd/benchjson. The
# sim, health, fault-shape and placement benchmarks live in ./internal/sim,
# ./internal/health, ./internal/faults and ./internal/placement, hence the
# extra packages on the command line.
BENCH_OUT ?= BENCH_pr10.json
BENCH_PATTERN = ^(BenchmarkScheduleAndFire|BenchmarkFlowRoundTrip|BenchmarkNetsimEventRate|BenchmarkTable1|BenchmarkHealthObserve|BenchmarkTelemetryFrame|BenchmarkFaultShapeTick|BenchmarkPlacementDecision)$$

.PHONY: all build test race bench

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

bench:
	go test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count 1 \
		. ./internal/sim ./internal/health ./internal/faults ./internal/placement \
		| tee /dev/stderr \
		| go run ./cmd/benchjson -o $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"
