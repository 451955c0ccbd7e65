GO ?= go

.PHONY: all vet build test allocs examples race stress check bench bench-quick bench-contention bench-commit chaos soak fuzz serve-smoke trace record-replay clean

all: check

# gofmt -l prints the files it would rewrite; any name fails the target.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

build:
	$(GO) build ./...

# The per-package timeout turns a liveness bug into a failure within
# minutes instead of a run that never ends.
test:
	$(GO) test -timeout 120s ./...

# Short race job over the concurrency-heavy packages (CI's race job). The
# serve and wal packages carry the crash checks: TestCrashStates recovers
# every state a crash may leave of recorded journal runs,
# TestCrashRecoverySoak kills the file system under concurrent load at each
# protocol moment and restarts the tenant, and
# TestDirSyncFailure fails a directory fsync through the FS seam. The
# second line is the poisoned-recycle runs outside those packages (stm's is
# in the first): with recycled artifacts poisoned a use-after-recycle
# panics, and -race is what reports a reader overlapping the recycler.
race:
	$(GO) test -race -count=1 . ./cmd/janus ./internal/stm ./internal/conflict ./internal/oplog ./internal/obs ./internal/spec ./internal/rec ./internal/serve ./internal/wal ./internal/fsio ./internal/relation ./internal/state
	$(GO) test -race -count=1 -run PoisonedRecycle ./internal/chaos ./internal/workloads

# Repeat the stm liveness tests (context drains, sequencer waiters woken
# by a failure, an ordered run whose first task fails, on a fresh runtime
# and on one that ran a set before): the schedules they stage are ordered
# by construction, so 20 of 20 must pass even under package-level load
# (CI runs it in the race job). go test -run passes when nothing matches,
# so the target first checks that all six named tests exist. Those are the lock-level
# schedules; the step-level ones are enumerated, not repeated, so the
# explorer runs once beside them.
STRESS_TESTS = ^(TestCtxDeadlineMidBackoffDrains|TestCtxDeadlineMidCommitStallDrains|TestCtxCancelStormUnderLoad|TestWaitPublishedFailureWakes|TestOrderedErrorDoesNotDeadlock|TestOrderedSecondRunErrorDoesNotDeadlock)$$
stress:
	@n=$$($(GO) test -list '$(STRESS_TESTS)' ./internal/stm | grep -c '^Test'); test "$$n" = 6 || { echo "stress: $$n of 6 named tests found"; exit 1; }
	$(GO) test -count=20 -run '$(STRESS_TESTS)' ./internal/stm
	$(GO) test -count=1 -run 'TestExploreSchedules' ./internal/stm

# The allocation pins (CI's test job): every test that counts allocations
# (testing.AllocsPerRun, or MemStats around a Run), run by name with
# -count=1 so a cached pass never stands in for a run. go test -run
# passes when nothing matches, so the target first checks that each named
# test exists: a renamed pin fails here instead of quietly not running.
ALLOCS_TESTS = \
	internal/adt:TestChangingStrStoreBindsItsBox \
	internal/adt:TestEqualStoreBindsNothing \
	internal/adt:TestHandlesAllocateOnlyTheirResults \
	internal/adt:TestLoadsReturnTheHeldValue \
	internal/adt:TestRelAccessesAllocateNothing \
	internal/conflict:TestFallbackDetectAllocs \
	internal/conflict:TestWarmDecomposeAllocs \
	internal/obs:TestDisabledCtxZeroAllocs \
	internal/rec:TestDigestCostIgnoresTupleCount \
	internal/relation:TestPointOpsAreSizeIndependent \
	internal/seqeff:TestBlockIdempotent \
	internal/serve:TestDecodedStateReplayAllocs \
	internal/serve:TestParseBatchAllocs \
	internal/serve:TestRecoveryRecordAllocs \
	internal/serve:TestSteadyBatchAllocs \
	internal/serve:TestSubmitHandlerAllocs \
	internal/spec:TestAppendPairKeyAllocs \
	internal/spec:TestEvaluateDetailAllocs \
	internal/spec:TestProfilerExecAllocs \
	internal/stm:TestDisabledRecordingAddsNoAllocs \
	internal/stm:TestDisabledTracingAddsNoAllocs \
	internal/stm:TestParkedWaitAllocatesNothing \
	internal/stm:TestRunCostIsFlat \
	internal/stm:TestSteadyStateAttemptAllocs \
	internal/stm:TestSteadyStateRelAllocs \
	internal/stm:TestStoreCreateCostIsFlat \
	internal/stm:TestStoreNewCostIsFlat \
	internal/stm:TestWarmListTransactionAllocs \
	internal/workloads:TestHeavyTaskAllocsIgnoreOpCount \
	internal/workloads:TestWekaRerunAllocatesNothing \
	internal/workloads:TestWekaRunAllocs
allocs:
	@for t in $(ALLOCS_TESTS); do \
		n=$$($(GO) test -list "^$${t#*:}$$" ./$${t%%:*} | grep -cx "$${t#*:}"); \
		test "$$n" = 1 || { echo "allocs: $${t#*:} not found in ./$${t%%:*}"; exit 1; }; \
	done
	@for t in $(ALLOCS_TESTS); do \
		$(GO) test -count=1 -run "^$${t#*:}$$" ./$${t%%:*} || exit 1; \
	done

# Run every program under examples/ (CI's test job). Each exits non-zero
# through log.Fatal on an error, and three check their result: filesync's
# and quickstart's parallel state against their sequential run,
# graphcolor's coloring.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || exit 1; \
	done

# Short chaos soak under the race detector (CI's chaos-soak job): fault-injected
# runs whose final state is checked against the sequential oracle.
chaos:
	$(GO) test -race -count=1 -run Chaos ./internal/...

# Long soak: many more seeds per configuration. Not part of `check`; run
# before releases or when touching the STM commit path.
# (The test-binary flag must follow the package list, or go test treats
# the remaining arguments as packages of the current directory.)
soak:
	$(GO) test -race -count=1 -run Chaos -timeout 30m ./internal/chaos -chaos.seeds=200

# Fuzz every decoder that reads bytes from disk (frames, trace, journal
# segment, snapshot, state codec, spec artifact) and the network decoder
# of the submit path (the batch codec, held to encoding/json), FUZZTIME
# each (go test -fuzz takes one target at a time, so the target loops
# over every Fuzz* function the packages declare). Tier-1 runs only the seed corpora. A
# failing input lands in the package's testdata/fuzz, to be checked in as
# a regression seed once fixed. Used by the nightly workflow at 60s.
# Minimizing a new interesting input is capped at 10s: the trace seeds
# are ~10 KB, and the default 60s cap let one minimization eat a whole
# target's budget.
FUZZTIME ?= 30s
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for fn in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$fn ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 10s $$pkg || exit 1; \
		done; \
	done

# Serving-layer integration smoke, two phases: (1) in-memory load +
# exactly-once journal + sequential-oracle digest verification + clean
# SIGTERM drain; (2) durable journal, SIGKILL mid-load once a tenant's
# journal holds about half its batches, restart on the same data dir,
# restart-aware resume verification. Nonzero exit on any lost/duplicated batch, digest
# mismatch, lost acked write, or hung drain.
serve-smoke:
	sh scripts/serve-smoke.sh

check: vet build test allocs examples bench-quick race stress chaos serve-smoke

bench:
	$(GO) run ./cmd/janus bench

# Smoke run of the fenced end-to-end benchmark (mirrors CI): all five
# workloads at smoke sizes, one measured and one traced child run each,
# every output check on. Exits 1 when a child fails to build or reports
# correct=false, so an API deletion that breaks benchmark/ fails here
# rather than in the pipeline. The numbers it prints mean nothing.
bench-quick:
	$(GO) run ./benchmark -quick -seconds 1

# Contention benchmarks for the sharded cache and the detection loop,
# swept across GOMAXPROCS. Output lands in bench-contention.txt so CI can
# upload it as an artifact; informational, not gating.
bench-contention:
	$(GO) test -run '^$$' -bench 'BenchmarkLookupParallel|BenchmarkDetectHighContention' \
		-benchmem -cpu 1,4,8 ./internal/spec ./internal/conflict | tee bench-contention.txt

# Commit-path benchmark trajectory: the striped-commit throughput
# benchmarks (disjoint-footprint workload; unordered and ordered) folded
# into BENCH_commit.json under the "after" label. The
# "before" entry preserves the single-global-lock baseline and is never
# overwritten by this target. Informational, not gating.
bench-commit:
	$(GO) test -run '^$$' -bench 'BenchmarkCommitParallel' -benchmem -cpu 8 \
		./internal/stm | tee bench-commit.txt
	$(GO) run ./cmd/janus benchjson -file BENCH_commit.json -label after < bench-commit.txt

# Capture a Chrome trace of one production run (open in ui.perfetto.dev).
trace:
	$(GO) run ./cmd/janus bench -trace out.json -workloads jfilesync

# Record/replay round trip: capture a chaos-perturbed run as a
# binary op trace, deterministically replay it (janus replay exits nonzero
# on any digest mismatch), and fold the replay timings plus the recording
# overhead benchmark into BENCH_replay.json. Used by the nightly workflow;
# the replay step IS gating — a mismatch means lost determinism.
record-replay:
	$(GO) run ./cmd/janus bench -json -chaos 42 -record janus.trace \
		-workloads jfilesync > /dev/null
	$(GO) run ./cmd/janus replay -json -verify-ops janus.trace | \
		$(GO) run ./cmd/janus benchjson -reports -file BENCH_replay.json -label replay
	$(GO) test -run '^$$' -bench BenchmarkRecord -benchmem ./internal/rec | \
		tee record-overhead.txt
	$(GO) run ./cmd/janus benchjson -file BENCH_replay.json -label record-overhead \
		< record-overhead.txt

clean:
	rm -f out.json bench-contention.txt bench-commit.txt janus.trace record-overhead.txt
