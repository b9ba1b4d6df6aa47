# Convenience targets; `make check` is the full verification gate
# (build + vet + race-enabled tests) CI and pre-commit should run.

.PHONY: check build test bench figures fuzz

check:
	./scripts/check.sh

# Short-budget fuzzing of every Fuzz* target (conformance checker
# equivalence, trace-format round-trip); FUZZTIME overrides the
# default 10s per target.
fuzz:
	./scripts/fuzz.sh

build:
	go build ./...

test:
	go test ./...

# Benchmark smoke over every Benchmark* (including BenchmarkCluster's
# fleet study), then one short seed-1 run of each workload that
# BENCHMARK.json lists, through the perfbench harness. Each run checks
# its outputs and prints its metrics; timing is judged by paired runs,
# not by a fixed floor.
bench:
	go test -run=NONE -bench=. -benchtime=1x -benchmem ./...
	bash perfbench/run.sh --workload mvm-cold --seed 1 --seconds 10 --trace 0
	bash perfbench/run.sh --workload fleet-serve --seed 1 --seconds 10 --trace 0

figures:
	go run ./cmd/newton-bench -fig all
