# CI entry points. `make check` is what a pipeline should run; each step
# is also callable on its own. FUZZTIME tunes the fuzz smoke (default 5s
# per target; CI can raise it, `make FUZZTIME=30s fuzz-smoke`).

GO       ?= go
FUZZTIME ?= 5s
BENCHDIR ?= .
WORKLOAD ?= jacobi_fastgm_16

.PHONY: all check fmt vet build test race loc uncovered host-allocs fuzz-smoke bench bench-identical bench-gate prof-smoke chaos-smoke crash-smoke rdma-smoke critical-smoke flow-smoke cli-smoke

all: check

check: fmt vet build test race fuzz-smoke prof-smoke chaos-smoke crash-smoke rdma-smoke critical-smoke flow-smoke cli-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every package but ./benchmark: its TestBucketing asserts a CPU-profile
# share the race detector's slowdown skews (flaky there with no race
# reported), and `test` already runs it. -short: `test` has just
# regenerated the bench trajectory and proved the checked-in files current
# (TestBenchReproducibleByteIdentical); the race run does not do it again.
race:
	$(GO) test -race -short $$($(GO) list ./... | grep -v '/benchmark$$')

# Non-test line counts per package, the one number simplicity PRs quote
# (comments and blank lines included; nothing moved into _test files counts
# as removed).
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./... | sed "s|^$$PWD|.|"); do \
		printf '%6d  %s\n' "$$(cat $$(ls $$d/*.go | grep -v _test) 2>/dev/null | wc -l)" "$$d"; \
	done

# Functions of the protocol engine and the substrates that no tier-1 test
# executes: merged statement coverage of every test binary, filtered to 0.0%
# under internal/tmk and internal/substrate (stest is itself test support).
# The instrument that finds dead code; it prints, it never gates, and it is
# not part of `check`. What it lists is either an untested path or a
# candidate for deletion — today a few one-line accessors and Error methods.
uncovered:
	@tmp=$$(mktemp); \
	$(GO) test -count=1 -short -coverpkg=./internal/... -coverprofile=$$tmp ./... > /dev/null; \
	$(GO) tool cover -func=$$tmp | \
		awk '$$NF == "0.0%" && $$1 ~ /internal\/(tmk|substrate)\// && $$1 !~ /\/stest\//'; \
	rm -f $$tmp

# Where the host bytes of one run of a benchmark workload go (WORKLOAD, one
# of the six rows of TestWorkloadAllocationBudgets; jacobi_fastgm_16 by
# default): an exact allocation profile (-memprofilerate 1) of that row, top
# ten by bytes and by objects. The table a host-memory PR quotes before and
# after; it prints, it never gates, and it is not part of `check`. The
# profile also holds what the test binary allocates before and after the run.
host-allocs:
	@tmp=$$(mktemp -d); \
	$(GO) test -count=1 -run '^TestWorkloadAllocationBudgets$$/^$(WORKLOAD)$$' -v -o $$tmp/harness.test \
		-memprofile $$tmp/mem.prof -memprofilerate 1 ./internal/harness/ | grep -v '^=== ' && \
	for idx in alloc_space alloc_objects; do \
		$(GO) tool pprof -sample_index=$$idx -top -nodecount=10 $$tmp/harness.test $$tmp/mem.prof 2>/dev/null | tail -n +4; \
	done; \
	rm -rf $$tmp

# Short fuzz runs of every fuzz target (seeds are checked in under each
# package's testdata/fuzz/). A finding is written there as a new case.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/msg/
	$(GO) test -run '^$$' -fuzz '^FuzzApplyDiff$$' -fuzztime $(FUZZTIME) ./internal/tmk/
	$(GO) test -run '^$$' -fuzz '^FuzzDiffRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/tmk/
	$(GO) test -run '^$$' -fuzz '^FuzzHandleAsyncFrame$$' -fuzztime $(FUZZTIME) ./internal/substrate/fastgm/
	$(GO) test -run '^$$' -fuzz '^FuzzCreditFrame$$' -fuzztime $(FUZZTIME) ./internal/substrate/fastgm/
	$(GO) test -run '^$$' -fuzz '^FuzzSendArena$$' -fuzztime $(FUZZTIME) ./internal/substrate/fastgm/
	$(GO) test -run '^$$' -fuzz '^FuzzHandleVerbFrame$$' -fuzztime $(FUZZTIME) ./internal/substrate/rdmagm/
	$(GO) test -run '^$$' -fuzz '^FuzzHandleCompletion$$' -fuzztime $(FUZZTIME) ./internal/substrate/rdmagm/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCtx$$' -fuzztime $(FUZZTIME) ./internal/trace/

# Chaos sweep: all four applications on the two-sided substrates (udpgm,
# fastgm; harness.Transports) over a seeded lossy fabric (drop, corruption, latency spikes, a timed blackout),
# asserting bit-correct results, active recovery, no residual disabled
# ports, and zero-probability fault-config identity.
chaos-smoke:
	$(GO) run ./cmd/tmkrun -chaos

# Crash-tolerance sweep on all three substrates: a rank death injected
# into a barrier app and a lock app with restart on (each must run again
# from the top, verify bit-correct and replay deterministically) and into
# the lock app without it (must abort with a post-mortem naming the dead
# rank and blocking entity).
crash-smoke:
	$(GO) run ./cmd/tmkrun -crash

# Strict refactor proof: regenerate all five suites, once, and require every
# file byte-identical to the checked-in BENCH_*.json; on failure it names
# each row that moved. The target that fails when virtual time moved — and
# part of `test`, so `check` needs no step of its own for it. A PR that
# means to move virtual time reviews the movement with bench-gate, then
# rewrites the files with bench and commits them.
bench-identical:
	$(GO) test -count=1 -run '^TestBenchReproducibleByteIdentical$$' ./internal/harness/

# The writer: BENCH_e0/e1/e2/e3/flow.json into BENCHDIR. Not part of
# `check` — CI reads the checked-in files, it does not rewrite them.
# Deterministic, so `git diff BENCH_*.json` across commits shows real perf
# movement.
bench:
	$(GO) run ./cmd/bench -out $(BENCHDIR)

# Differential regression of the home-based protocol: every app's final
# shared memory under home-based LRC on rdmagm must be bit-identical to
# homeless LRC on fastgm (short matrix; `go test ./internal/harness -run
# TestHomeBased` runs the full seeds × node-counts sweep) — and the
# one-sided path must still win the E3 rows and applications it is pinned
# to win, or stay under the ceiling its exception names. The placement
# rule's own tests ride along: homes follow the sole writer and nothing
# else, and every rank remembers a barrier by the same vector clock.
rdma-smoke:
	$(GO) test -short -run 'TestHomeBased|TestBenchE3RDMAWinsHeadlineRows' ./internal/harness/
	$(GO) test -run 'TestHomesFollowTheSoleWriter|TestHomeWritesAreTwinFree|TestBarrierVCAgreesOnEveryRank' ./internal/tmk/

# The one comparison: every regenerated row that differs from the
# checked-in BENCH_*.json is printed with its old and new value, and none
# may be worse by more than its tolerance (max(500ns, 2%·old) by default;
# times lower-is-better, B/s higher-is-better; `-gate-rel 0 -gate-abs-ns 0`
# for exactness); a removed row is a failure, an improvement is listed.
# Writes nothing. Callable on its own and not part of `check`.
bench-gate:
	$(GO) run ./cmd/bench -gate -out $(BENCHDIR)

# Overload-resilience smoke: the 64-node incast storm on all three
# substrates with credit flow control on — every frame delivered, the
# pressure absorbed as sender-side credit stalls, zero parked frames /
# socket drops / GM send timeouts / disabled ports (DESIGN.md §14).
flow-smoke:
	$(GO) run ./cmd/tmkrun -incast

# Every command that builds a Config from flags reports an illegal one as
# tmk.Config.Validate's one-line verdict and a non-zero exit — never a
# goroutine dump — and the smallest verified run passes on each substrate.
cli-smoke:
	@for args in "tmkrun -nodes 0" "tmkrun -transport bogus" "tmktrace -transport bogus" \
			"ubench -barrier-nodes 0" "figures -fig 4 -nodes 0"; do \
		if out="$$($(GO) run ./cmd/$$args 2>&1)"; then echo "cli-smoke: $$args: exited 0"; exit 1; fi; \
		case "$$out" in \
			*"goroutine "*) echo "cli-smoke: $$args: goroutine dump"; exit 1;; \
			*"invalid config"*) ;; \
			*) echo "cli-smoke: $$args: no invalid-config line: $$out"; exit 1;; \
		esac; \
	done
	@for t in udpgm fastgm rdmagm; do \
		$(GO) run ./cmd/tmkrun -app jacobi -nodes 2 -size 0 -transport $$t -verify > /dev/null || exit 1; \
	done
	@echo "cli-smoke: illegal configs rejected in one line, verified runs pass on all three substrates"

# Quick end-to-end run of the protocol-entity profiler (small sizes).
prof-smoke:
	$(GO) run ./cmd/figures -fig prof -prof-nodes 4 -prof-small > /dev/null

# Causal critical-path smoke: one SOR run over FAST/GM must extract a
# non-empty critical path whose category attributions sum exactly to the
# end-to-end virtual time (DESIGN.md §13).
critical-smoke:
	$(GO) test -run 'TestCriticalSmokeSORFastGM' ./internal/harness/
