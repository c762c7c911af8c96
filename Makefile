GO ?= go
BIN := bin

.PHONY: all build test race fmt vet lint fuzz-seed bench-check bench-eval bench-pair profile loc check bench-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race-enabled run covers the packages with concurrency plus the
# ones incremental evaluation touches: the MPP machine, the executors,
# the step-program runner, the verifier, and the bench harness that
# drives full-plan and incremental engines side by side. The root
# package rides along for the shuffle-elision and incremental parity
# matrices and the fault matrix, which run the MPP machine's partition
# workers; expr for one Compiled evaluated from eight goroutines (MPP
# partitions share compiled expressions, so a bound kernel must keep no
# state), storage for the tables they read, and sqltypes for Spares, the
# free list whose mutex the partitions share (an aggregate's spare
# tables, the run's row chunks).
race:
	$(GO) test -race . ./internal/core/... ./internal/exec/... ./internal/mpp/... ./internal/verify/... ./internal/bench/... ./internal/expr/... ./internal/storage/... ./internal/sqltypes/...

# fmt fails listing every Go file gofmt would rewrite. Build output
# (.bench_build/ holds exported base trees) and the analyzers' testdata
# are not ours to format.
fmt:
	@out=$$(gofmt -l . | grep -v -e '^\.bench_build/' -e '/testdata/' || true); \
	test -z "$$out" || { echo "gofmt -l lists:" >&2; echo "$$out" >&2; exit 1; }

vet:
	$(GO) vet ./...

$(BIN)/spinlint: $(wildcard cmd/spinlint/*.go internal/lint/*.go)
	$(GO) build -o $(BIN)/spinlint ./cmd/spinlint

# Repo-specific analyzers (result-store access, error context, MPP
# cancellation, goroutine containment) running under the go vet driver.
lint: $(BIN)/spinlint
	$(GO) vet -vettool=$(CURDIR)/$(BIN)/spinlint ./...

# Run the fuzz targets over their seed corpus only (no mutation): every
# workload query and one variant per UNTIL shape must round-trip
# through parse -> print -> parse. Open-ended exploration is manual:
#   go test -fuzz=FuzzParseRoundTrip ./internal/parser
fuzz-seed:
	$(GO) test -run '^Fuzz' ./internal/parser

# The regression benchmark is a module of its own (benchmark/go.mod), so
# go build/vet/test ./... at the root never compile it, and a signature
# change under internal/ could break benchmark/run.sh unseen. This vets
# it and runs its tests: the -quick in-process pass over all six
# workloads (answers checked) and the BENCHMARK.json drift guard, ~5 s.
bench-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# bench-eval runs each expression microbenchmark once (BenchmarkEvalFF's
# row and batch arms, and one BenchmarkEvalWorkloads entry per workload
# expression), so the benchmarks the typed FLOAT path is measured by
# compile and run on every change, and the operators' kernel benchmarks
# once (BenchmarkHashJoin, BenchmarkHashAgg and BenchmarkDistinct, each
# over keys the key table indexes directly and over keys it hashes;
# BenchmarkProjectBatch, FF's projection materialized in the batch form
# and a row at a time; and BenchmarkJoinAgg, PR's loop body materialized
# in the join → aggregate form and a row at a time). For numbers, run
# them with -benchtime 2000000x (expressions) or 2000x (kernels) and
# -count 5.
bench-eval:
	$(GO) test -run '^$$' -bench '^BenchmarkEval' -benchtime 1x ./internal/expr
	$(GO) test -run '^$$' -bench '^Benchmark(HashJoin|HashAgg|Distinct|ProjectBatch|JoinAgg)' -benchtime 1x ./internal/exec

# bench-pair measures a claimed gain the way the choosing-metrics guide
# (§8) asks: PAIRS alternating runs of one workload's end-to-end pass on
# BASE and on this tree, each built from its own sources by its own
# benchmark/run.sh, on a seed the change was not written against. It
# prints METRIC (default op_ms_p50; any end-to-end metric of
# BENCHMARK.json, all of which are better lower — alloc_mb_per_op,
# allocs_per_op, ...) of every run, each side's median and quartiles,
# how many pairs the change won, and the verdict: a gain needs at least
# nine wins in ten and a median gap above the spread (IQR) of BASE's own
# runs. Before pair 1 each tree runs one discarded pass, so both are built
# and cached before anything counts; next to the verdict it prints how
# many pairs the side that ran first won, so an order effect that the
# alternation does not cancel shows (about half of the pairs when there
# is none). BASE is exported with git archive into .bench_build/pair-base/
# (which is git-ignored), so nothing is registered in .git and the
# working tree is measured as it stands, uncommitted edits included.
#   make bench-pair BASE=HEAD~1 [WORKLOAD=pr] [PAIRS=10] [SEED=11] [METRIC=op_ms_p50]
WORKLOAD ?= pr
PAIRS ?= 10
SEED ?= 11
METRIC ?= op_ms_p50
bench-pair:
	@test -n "$(BASE)" || { echo "usage: make bench-pair BASE=<rev> [WORKLOAD=pr] [PAIRS=10] [SEED=11] [METRIC=op_ms_p50]" >&2; exit 2; }
	@set -eu; base=.bench_build/pair-base; res=.bench_build/pair-$(WORKLOAD).txt; \
	rm -rf $$base; mkdir -p $$base; git archive $(BASE) | tar -x -C $$base; : > $$res; \
	metric() { (cd $$1 && bash benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 15 --trace 0) \
		| tail -n 1 | sed -n 's/.*"$(METRIC)":{"value":\([0-9.eE+-]*\).*/\1/p'; }; \
	metric $$base > /dev/null; metric . > /dev/null; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then b=$$(metric $$base); c=$$(metric .); first=base; else c=$$(metric .); b=$$(metric $$base); first=change; fi; \
		test -n "$$b" -a -n "$$c" || { echo "pair $$i: a run printed no $(METRIC)" >&2; exit 1; }; \
		printf 'pair %2d  base %10.4f  change %10.4f  %s, %s first\n' $$i $$b $$c $(METRIC) $$first; echo "$$b $$c $$first" >> $$res; \
	done; \
	quart() { cut -d' ' -f$$1 $$res | sort -g | awk '{ v[NR] = $$1 } END { \
		for (k = 1; k <= 3; k++) { h = (NR - 1) * k / 4; lo = int(h); hi = lo + 1 < NR ? lo + 1 : lo; \
			printf "%s%.4f", (k > 1 ? " " : ""), v[lo + 1] + (h - lo) * (v[hi + 1] - v[lo + 1]) } }'; }; \
	wins=$$(awk '$$2 < $$1 { w++ } END { print w + 0 }' $$res); \
	firsts=$$(awk '($$3 == "base" && $$1 < $$2) || ($$3 == "change" && $$2 < $$1) { f++ } END { print f + 0 }' $$res); \
	echo "$$(quart 1) $$(quart 2) $$wins $$firsts" | awk -v n=$(PAIRS) -v base=$(BASE) -v w=$(WORKLOAD) -v m=$(METRIC) '{ \
		printf "%s %s, %d pairs: %s q1 %.4f median %.4f q3 %.4f | change q1 %.4f median %.4f q3 %.4f\n", w, m, n, base, $$1, $$2, $$3, $$4, $$5, $$6; \
		gap = $$2 - $$5; iqr = $$3 - $$1; \
		printf "change wins %d of %d; median gap %.4f (%.1f%%) against a base IQR of %.4f: %s; the side that ran first won %d of %d\n", $$7, n, gap, 100 * gap / $$2, iqr, \
			(10 * $$7 >= 9 * n && gap > iqr) ? "GAIN" : "NO GAIN SHOWN", $$8, n }'

# profile runs one root benchmark (bench_test.go) at a fixed iteration
# count with CPU and allocation profiles, and prints both by cumulative
# cost: where the time goes and where the bytes come from. The test
# binary and the profiles land in .bench_build/profile/ (git-ignored);
# look closer with `go tool pprof -list <func> .bench_build/profile/dbspinner.test
# .bench_build/profile/cpu.pb.gz`.
#   make profile [BENCH=Fig8/PR/rename] [TIME=60x]
BENCH ?= Fig8/PR/rename
TIME ?= 60x
profile:
	@mkdir -p .bench_build/profile
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime $(TIME) -benchmem \
		-o .bench_build/profile/dbspinner.test -outputdir .bench_build/profile \
		-cpuprofile cpu.pb.gz -memprofile mem.pb.gz -memprofilerate 4096 .
	$(GO) tool pprof -top -cum -nodecount 40 .bench_build/profile/dbspinner.test .bench_build/profile/cpu.pb.gz
	$(GO) tool pprof -sample_index=alloc_space -top -cum -nodecount 40 .bench_build/profile/dbspinner.test .bench_build/profile/mem.pb.gz

# loc prints the non-test Go lines of every package (wc -l over *.go
# minus *_test.go, testdata and the benchmark module left out): the
# table a CHANGES.md entry carries. With BASE it also counts that
# revision, exported with git archive into .bench_build/loc-base/ like
# bench-pair's, and prints both and the difference; packages that did
# not change are summed into one line.
#   make loc [BASE=HEAD~1]
loc:
	@set -eu; \
	count() { (cd $$1 && find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path './benchmark/*' ! -path '*/testdata/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1 } END { for (d in n) print d, n[d] }'); }; \
	if [ -z "$(BASE)" ]; then \
		count . | sort | awk '{ printf "%-28s %6d\n", $$1, $$2; t += $$2 } END { printf "%-28s %6d\n", "total", t }'; \
	else \
		base=.bench_build/loc-base; rm -rf $$base; mkdir -p $$base; git archive $(BASE) | tar -x -C $$base; \
		count $$base | sort > $$base.txt; count . | sort > .bench_build/loc-tree.txt; \
		join -a1 -a2 -e0 -o 0,1.2,2.2 $$base.txt .bench_build/loc-tree.txt | awk -v rev=$(BASE) ' \
			BEGIN { printf "%-28s %8s %8s %7s\n", "package", rev, "tree", "diff" } \
			{ tb += $$2; tc += $$3 } \
			$$2 == $$3 { same += $$2; next } \
			{ printf "%-28s %8d %8d %+7d\n", $$1, $$2, $$3, $$3 - $$2 } \
			END { printf "%-28s %8d %8d %+7d\n", "(unchanged packages)", same, same, 0; \
				printf "%-28s %8d %8d %+7d\n", "total", tb, tc, tc - tb }'; \
	fi

# The full gate CI runs: gofmt, standard vet, spinlint, build, tests,
# the fuzz seed corpus, the benchmark module's own check, one run of each
# expression microbenchmark, and the race-enabled pass over the
# concurrent packages.
check: fmt vet lint build test fuzz-seed bench-check bench-eval race

# bench-smoke runs the full-vs-incremental and full-vs-pruned
# comparisons on small PR-VS and SSSP datasets: each fails if its two
# modes disagree on a single row. incremental runs PR, SSSP, PR-VS and
# SSSP-VS with incremental evaluation off and on (cross-check armed),
# asserts byte-identical results, prints which restricted step ran, the
# Ri rows it was fed against the full count and in how many iterations
# it restricted, and fails if a query installed no step or no query
# restricted anywhere (one that chose the full plan in every iteration,
# as PR-VS does, is not a failure); pruning prints the cells written
# into and read back from intermediate results per iteration, full width
# and pruned, and fails if PR-VS moves less than 10% fewer pruned (it
# measures 15%; 30% before the index memo took the per-iteration re-read
# of Common#1 out of both arms). trace runs PR and SSSP with iteration
# tracing on and off, asserts identical results plus one span per
# iteration, and fails if the traced run leaves the noise band of the
# untraced one. shuffle runs every workload query with shuffle elision
# on and off, prints rows shuffled next to the wall-clock, asserts
# identical results with the dynamic co-location guard armed, and fails
# unless the VS variants strictly reduce rows shuffled. faults runs PR
# and SSSP with back-edge checkpointing off and on and once more with a
# deterministic fault schedule injected mid-loop, asserting
# byte-identical rows in all three runs, at least one retry per
# scheduled fault, and checkpointing overhead inside the noise band. The
# smoke set is declared once in cmd/benchrunner; the runner fails if any
# smoke experiment writes no section to bench-smoke.md, so the committed
# doc cannot silently go stale when an experiment is added or renamed.
bench-smoke:
	$(GO) run ./cmd/benchrunner -exp smoke -scale 300 -iterations 5 -reps 1 -partitions 2 -md bench-smoke.md

clean:
	rm -rf $(BIN)
	$(GO) clean -testcache
