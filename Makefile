.PHONY: check coverage profile lint vet build test fmt

# The repository gate: exactly what CI runs (scripts/check.sh), stdlib
# toolchain only. Keep this the single local gate.
check:
	./scripts/check.sh

# The ratchets: `make gate-<run>` (e.g. gate-scale-perf, gate-reclaim)
# runs one named benchtool run through scripts/gates.sh, which checks
# that run's lines of scripts/gates.txt. Tighten a ratchet when the
# measurement improves with `./scripts/gates.sh <run> -record` and
# commit scripts/gates.txt.
gate-%:
	./scripts/gates.sh $*

coverage: gate-coverage

# Local profiling bundle: pprof CPU + heap profiles in perf/ and the
# gated scale-perf table (BENCH_scale-perf.json, with allocs/step), plus
# the hot-path microbenchmarks. Inspect with `go tool pprof perf/cpu.pprof`.
profile:
	mkdir -p perf
	./scripts/gates.sh scale-perf -cpuprofile perf/cpu.pprof -memprofile perf/mem.pprof
	go test -run - -bench . -benchmem . ./internal/oct ./internal/memo ./internal/wal \
		| tee perf/microbench.txt

# staticcheck + govulncheck at the versions pinned in scripts/lint.sh;
# skips tools that are not installed locally (CI installs them).
lint:
	./scripts/lint.sh

vet:
	go vet ./...

build:
	go build ./...

test:
	go test -race -vet=all ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
