# Tier-1 verify plus the guards that keep the build honest. `make check`
# is what CI should run: vet catches the missing-go.mod class of rot at
# the first command, -race exercises the parallel scenario runner, and
# the bench smoke proves the benchmark harness still compiles and runs.

GO ?= go

# bench-save output file and bench-compare inputs.
OUT ?= bench.txt
OLD ?= old.txt
NEW ?= new.txt
# BENCH_JSON is the perf-trajectory snapshot bench-json writes and the
# baseline bench-gate compares against.
BENCH_JSON ?= BENCH_13.json
# bench-gate tuning: GATE_ONLY is the single source of truth for what
# the gate covers — comma-separated benchmark name prefixes, passed to
# benchjson -only and converted into the -bench run regex below, so the
# set of benchmarks that run and the set that are gated cannot desync.
# GATE_LIMIT is the tolerated fractional ns/op, B/op or allocs/op
# regression versus the committed baseline.
GATE_ONLY ?= BenchmarkE6,BenchmarkE9,BenchmarkE10,BenchmarkE11,BenchmarkE13,BenchmarkE14
GATE_BENCH = $(shell echo '$(GATE_ONLY)' | sed 's/Benchmark//g; s/,/|/g')
GATE_LIMIT ?= 0.15

.PHONY: verify build test check vet lint race race-goldens fuzz-smoke bench bench-smoke bench-save bench-json bench-compare bench-gate

verify: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint: the domain linter (tools/mmlint) over the whole module — packet
# ownership, determinism discipline, noalloc annotations, simtime
# fencing, and deadapi (every exported internal/ function has a non-test
# use or a //mmlint:testref waiver). The binary is cached under bin/ and
# rebuilt only when the linter's sources change; findings exit non-zero.
# It also runs as a vettool: go vet -vettool=$(PWD)/bin/mmlint ./...
# — except deadapi, which needs the whole module at once and so runs only
# here, standalone over ./... The separate bench/ module is invisible to
# it.
MMLINT_SRCS := $(shell find tools/mmlint -name '*.go' -not -path '*/testdata/*')

bin/mmlint: $(MMLINT_SRCS)
	@mkdir -p bin
	$(GO) build -o $@ ./tools/mmlint

lint: bin/mmlint
	./bin/mmlint ./...

race:
	$(GO) test -race ./...

# race-goldens: every golden (the E1–E8 suite and E9–E14) in its
# measurement-worker variant, plus the trace golden's, under the race
# detector — byte-identity and data-race freedom of the fan-out in one run.
race-goldens:
	$(GO) test -race ./internal/experiments -run '^TestGolden(TraceParallelMeasurementMatches)?$$/./measure-workers' -count=1

# fuzz-smoke: every Fuzz* target in the module for 5 s each. go test
# fuzzes one target per call, so each target gets its own call; the
# checked-in corpora under testdata/fuzz replay first. bench/ is a
# separate module and is not searched.
fuzz-smoke:
	@grep -rl --include='*_test.go' '^func Fuzz' --exclude-dir=bench . | sort | while read -r f; do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$f"); do \
			echo "fuzz $$(dirname "$$f") $$t"; \
			$(GO) test "$$(dirname "$$f")" -run '^$$' -fuzz "^$$t\$$" -fuzztime 5s || exit 1; \
		done; \
	done

check: vet lint race bench-smoke bench-gate

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-smoke: every benchmark once, allocation counters on — fast enough
# for CI, enough to catch a broken bench or a gross alloc regression.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' .

# bench-save: a comparable snapshot (fixed iteration count so runs pair up
# under benchstat).
bench-save:
	$(GO) test -bench . -benchtime 3x -benchmem -run '^$$' . > $(OUT)

# bench-json: machine-readable ns/op, B/op and allocs/op per experiment, written
# to $(BENCH_JSON) so the perf trajectory is tracked in-repo PR over PR.
# The bench output lands in an intermediate file first so a failing bench
# run aborts the recipe instead of silently truncating the snapshot.
bench-json:
	$(GO) test -bench . -benchtime 3x -benchmem -run '^$$' . > $(BENCH_JSON).tmp
	$(GO) run ./tools/benchjson < $(BENCH_JSON).tmp > $(BENCH_JSON)
	rm -f $(BENCH_JSON).tmp

bench-compare:
	sh tools/bench-compare.sh $(OLD) $(NEW)

# bench-gate: the benchmark-regression gate CI runs — re-measure the
# gated experiment benchmarks (E6, E9 incl. the 10k-MN column, E10, E11,
# E13 closed-loop) and
# fail if ns/op, B/op or allocs/op regressed beyond GATE_LIMIT versus the
# committed $(BENCH_JSON) baseline. -count 3 repetitions are min-merged
# by the compare tool so a noisy machine doesn't flag phantom
# regressions. The intermediate file keeps a failing bench run from
# silently passing an empty report through the gate.
bench-gate:
	$(GO) test -bench '$(GATE_BENCH)' -benchtime 3x -count 3 -benchmem -run '^$$' . > bench-gate.tmp
	$(GO) run ./tools/benchjson -compare $(BENCH_JSON) -limit $(GATE_LIMIT) -only '$(GATE_ONLY)' < bench-gate.tmp
	rm -f bench-gate.tmp
