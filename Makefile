GO ?= go

# The verify chain is what CI (and any contributor) runs before a
# merge: full build, vet, the armvet static-analysis suite, the whole
# test suite, every example run once, the concurrency packages again
# under the race detector (including the simulator's coroutine
# handoff, and the result cache and trace collector that pool workers
# share), the cycle-attribution conservation invariant over the fast golden
# subset, the golden digest of every experiment's -quick output, then
# the perf gate, which runs the hot-path microbenchmarks of the tree and
# of its last commit in alternating pairs. `-run 'Test'` keeps the race pass on
# the (fast) unit tests rather than the benchmarks. scalecheck re-runs the
# 256-core barrier smoke under the race detector so the scheduler's
# driver loop is exercised at scale on every merge. fuzz runs each
# native fuzz target for 10 s. benchcheck compiles and tests the
# perfbench module, which the root module's ./... never reaches.
.PHONY: verify
verify: build vet lint test fuzz examples race scalecheck profilecheck cachecheck digestcheck fencecheck perfcheck benchcheck

.PHONY: build
build:
	$(GO) build ./...

.PHONY: vet
vet:
	$(GO) vet ./...

# Static-analysis gate: the armvet pass suite (determvet, lockvet,
# atomicvet, allocvet, progvet) must run clean over the
# module. Suppress a deliberate violation with //armvet:ignore <pass>
# and a reason.
.PHONY: lint
lint:
	./scripts/lint.sh

.PHONY: test
test:
	$(GO) test ./...

# Native fuzzing: every decoder of outside input runs its fuzz target
# for 10 s. FuzzParseFile parses and assembles A64 run files
# (directives, the atomics, nop #N, var x = v) and FuzzRunFile runs
# them, FuzzShardDecode takes result-cache shard
# bytes, FuzzValidate compiled programs and FuzzPackRoundTrip packed
# explorer states. A crasher is a real defect: commit the input the
# fuzzer writes under the package's testdata/fuzz with its fix, so the
# plain test run replays it.
.PHONY: fuzz
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseFile$$' -fuzztime 10s ./cmd/a64run
	$(GO) test -run '^$$' -fuzz '^FuzzRunFile$$' -fuzztime 10s ./cmd/a64run
	$(GO) test -run '^$$' -fuzz '^FuzzShardDecode$$' -fuzztime 10s ./internal/cellcache
	$(GO) test -run '^$$' -fuzz '^FuzzValidate$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzPackRoundTrip$$' -fuzztime 10s ./internal/explore

# Example smoke: build every examples/* main and run it; a nonzero exit
# fails the step. examples/trace writes its Chrome trace into the same
# temp dir as the binaries, so the checkout stays clean.
.PHONY: examples
examples:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/" ./examples/... && \
	for d in examples/*/; do \
		x=$$(basename "$$d"); echo "examples/$$x"; \
		if [ "$$x" = trace ]; then out="$$tmp/pilot-trace.json"; else out=; fi; \
		"$$tmp/$$x" $$out > /dev/null || exit 1; \
	done

.PHONY: race
race:
	$(GO) test -race -run Test ./internal/runner ./internal/core ./internal/sim ./internal/sb ./internal/cellcache ./internal/trace

# Many-core smoke under the race detector: a 256-thread sense-reversing
# barrier run drives the scheduler's driver loop, the sharded
# directory bitsets and the compiled engine at scale-out thread counts
# that the ordinary race pass never reaches.
.PHONY: scalecheck
scalecheck:
	$(GO) test -race -run 'TestScaleOut256' ./internal/barrier

# Full determinism sweep: every registered experiment, sequential vs
# -par 8, two seeds. Minutes of wall clock; run before merging
# simulator or runner perf work.
.PHONY: determinism
determinism:
	ARMBAR_DETERMINISM_FULL=1 $(GO) test -run TestParallelOutputMatchesSequential -timeout 120m ./internal/figures

# Full golden-digest gate: the -quick output of every registered
# experiment at seed 42 must hash to goldenAllDigest. The plain test run
# checks only the fast subset's digest, which leaves fig6a-c, tso,
# ablation and mpmc unpinned.
.PHONY: digestcheck
digestcheck:
	ARMBAR_DETERMINISM_FULL=1 $(GO) test -run TestQuickOutputDigest ./internal/figures

# Result-cache equivalence gate: the fast golden subset regenerated
# cold, warm (from the cache the cold run filled) and with -cache=off
# must be byte-identical. Runs entirely in temp dirs.
.PHONY: cachecheck
cachecheck:
	./scripts/cache_check.sh

# Cycle-attribution conservation gate: with profiling enabled, every
# simulated cycle of the fast golden subset must land in exactly one
# cause bucket (zero gaps, attributed == engine cycles) at two seeds —
# and the rendered output must still hash to the committed golden
# digest.
.PHONY: profilecheck
profilecheck:
	$(GO) test -run 'TestProfileConservation' -timeout 30m ./internal/sim ./internal/figures

# Fence-verification gate: the reorder-bounded explorer must agree
# with absmodel's closed-form fence requirements on every placement of
# every litmus shape, machine-check the Pilot barrier removal (armvet
# fencevet), fuzz a fixed-seed 220-shape generated corpus through the
# three oracles (explorer / closed-form model / sim containment), and
# stay a sound over-approximation of what the simulator samples (the
# explore package's agreement and determinism tests; TestLitmusVariants
# adds the classic shapes' other barrier pairs and IRIW). It must also
# be tight: on random programs with DMB full after every op, and on
# one-variable programs unfenced in TSO or with ADDR DEP in WMM, its
# reachable set equals an exhaustive SC oracle's, while the simulator
# samples only SC outcomes of the same programs (the *EqualsSC and
# *ConformsToSC tests, TestSingleAddressCoherenceUnfenced); and every
# outcome it reaches on the fixed shapes plus IRIW is sampled under a
# seed x start-skew sweep or listed with a reason in knownGaps
# (TestExplorerTightness). Every unsafe placement must carry a
# counterexample trace, and explored states must round-trip through
# the packed form (TestWitness and the seed corpus of
# FuzzPackRoundTrip).
.PHONY: fencecheck
fencecheck:
	$(GO) run ./cmd/armvet fencevet -fuzz 220 -fuzzseed 42
	$(GO) test -run 'TestFormulaAgreement|TestSimAgreement|TestPinnedAnomalies|TestCompiledParityShapes|TestSeedIndependentVerdicts|TestFuzzThreeOracles|TestWitness|FuzzPackRoundTrip|TestLitmusVariants|TestSCOracleKnownProgram|TestFencedExplorerEqualsSC|TestSingleAddressExplorerEqualsSC|TestFencedSimConformsToSC|TestSingleAddressCoherenceUnfenced|TestExplorerTightness' ./internal/explore

# Benchmark-harness gate: perfbench is its own module (replace
# armbar => ../), so a change to an internal API it calls breaks only
# the benchmark run unless this vets and tests it.
.PHONY: benchcheck
benchcheck:
	$(GO) -C perfbench vet ./... && $(GO) -C perfbench test ./...

# Simulator hot-path microbenchmarks (rendezvous, store commit, DMB,
# compiled dispatch, cache lookup, directory bitsets at 1024 cores,
# barrier scaling, explorer throughput, 12-thread lock handoff).
.PHONY: bench-sim
bench-sim:
	$(GO) test -run '^$$' -bench 'Rendezvous|StoreCommit|StoreDMB|CompiledDispatch|CellCacheHit|DirectoryRank|DirectorySharerChurn|BarrierScale|ExploreStates|LockHandoff' -benchmem ./internal/sim ./internal/cellcache ./internal/mesi ./internal/barrier ./internal/explore ./internal/locks

# Record bench-sim in BENCH_sim.json, its manifest and
# BENCH_history.jsonl: the trajectory of the hot-path numbers across
# commits. Nothing gates on these files.
.PHONY: bench-snapshot
bench-snapshot:
	./scripts/bench_snapshot.sh

# Perf gate: scripts/ab.sh runs the twelve bench-sim microbenchmarks
# of this checkout and of BASE back to back, ten pairs each with the
# side that goes first alternating, and fails when a median ns/op is
# more than 25% worse than BASE's or allocs/op grows. BASE=HEAD gates
# the working tree against its last commit; pass BASE=<parent> to gate
# a committed change.
BASE ?= HEAD

.PHONY: perfcheck
perfcheck:
	./scripts/ab.sh $(BASE) micro

# One full-suite regeneration through the parallel runner.
.PHONY: bench-all
bench-all:
	$(GO) test -run '^$$' -bench BenchmarkRunnerAll -benchtime 1x .

# Remove generated local state (the default result-cache directory).
.PHONY: clean
clean:
	rm -rf .armbar-cache
