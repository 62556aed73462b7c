# CI entry points. `make check` is what a pipeline should run; each step
# is also callable on its own. FUZZTIME tunes the fuzz smoke (default 5s
# per target; CI can raise it, `make FUZZTIME=30s fuzz-smoke`).

GO       ?= go
FUZZTIME ?= 5s
BENCHDIR ?= .
WORKLOAD ?= jacobi_fastgm_16
BASE     ?= HEAD
PAIRS    ?= 10
CPU_BENCH ?= BenchmarkWorkloads

.PHONY: all check fmt vet build test race loc uncovered host-allocs host-cpu setup-cpu wire-bytes pairs fuzz-smoke bench bench-identical bench-gate chaos-smoke rdma-smoke critical-smoke cli-smoke

all: check

check: fmt vet build test race fuzz-smoke chaos-smoke rdma-smoke critical-smoke cli-smoke

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

# Non-test line counts per package and their total, the one number
# simplicity PRs quote (comments and blank lines included; nothing moved
# into _test files counts as removed).
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./... | sed "s|^$$PWD|.|"); do \
		printf '%6d  %s\n' "$$(cat $$(ls $$d/*.go | grep -v _test) 2>/dev/null | wc -l)" "$$d"; \
	done | awk '{ print; total += $$1 } END { printf "%6d  total\n", total }'

# Functions of the protocol engine and the substrates that no tier-1 test
# executes: merged statement coverage of every test binary, filtered to 0.0%
# under internal/tmk and internal/substrate (stest is itself test support).
# `go tool cover -func` prints 0.0% for a function with no statements too
# (an empty method body), run or not, so a function is listed only when the
# profile holds a statement between its first line and the next function's.
# The instrument that finds dead code; it prints, it never gates, and it is
# not part of `check`. What it lists is either an untested path or a
# candidate for deletion.
uncovered:
	@tmp=$$(mktemp); \
	$(GO) test -count=1 -short -coverpkg=./internal/... -coverprofile=$$tmp ./... > /dev/null; \
	$(GO) tool cover -func=$$tmp | awk -v prof=$$tmp ' \
		BEGIN { while ((getline l < prof) > 0) { split(l, b, " "); if (b[2] + 0 > 0) { \
			sub(/[.][0-9]+,.*/, "", b[1]); split(b[1], at, ":"); \
			stmt[b[1]] = 1; if (at[2] + 0 > last[at[1]]) last[at[1]] = at[2] + 0 } } } \
		{ split($$1, at, ":"); n++; file[n] = at[1]; line[n] = at[2]; out[n] = $$0; zero[n] = $$NF == "0.0%" } \
		END { for (i = 1; i <= n; i++) { \
			if (!zero[i] || file[i] !~ /internal\/(tmk|substrate|gm|myrinet|sockets|sim|msg|trace)\// || file[i] ~ /\/stest\//) continue; \
			end = file[i + 1] == file[i] ? line[i + 1] - 1 : last[file[i]]; \
			for (l = line[i]; l <= end; l++) if ((file[i] ":" l) in stmt) { print out[i]; break } } }'; \
	rm -f $$tmp

# Where the host bytes of one run of a benchmark workload go (WORKLOAD, one
# of the six rows of TestWorkloadAllocationBudgets, or all of them with
# WORKLOAD=all; jacobi_fastgm_16 by default): first one `name allocations MB`
# line per row run, as the test measured it, then an exact allocation
# profile (-memprofilerate 1) of the run, top ten by bytes and by objects.
# The table a host-memory PR quotes before and after; it prints, it never
# gates, and it is not part of `check`. The profile also holds what the test
# binary allocates before and after the run.
host-allocs:
	@tmp=$$(mktemp -d); run='^TestWorkloadAllocationBudgets$$'; \
	if [ "$(WORKLOAD)" != all ]; then run="$$run/^$(WORKLOAD)$$"; fi; \
	$(GO) test -count=1 -run "$$run" -v -o $$tmp/harness.test \
		-memprofile $$tmp/mem.prof -memprofilerate 1 ./internal/harness/ > $$tmp/out; \
	status=$$?; \
	awk '/^=== RUN/ { n = split($$3, p, "/"); row = p[n] } / allocations, / { print row, $$2, $$4 }' $$tmp/out; \
	grep -E 'budget|^(FAIL|ok)' $$tmp/out; \
	if [ $$status -eq 0 ]; then \
		for idx in alloc_space alloc_objects; do \
			$(GO) tool pprof -sample_index=$$idx -top -nodecount=10 $$tmp/harness.test $$tmp/mem.prof 2>/dev/null | tail -n +4; \
		done; \
	fi; \
	rm -rf $$tmp; exit $$status

# Where the host CPU of a benchmark workload goes, the CPU twin of
# host-allocs (same WORKLOAD choices and default): BenchmarkWorkloads runs
# the row for about a second under -cpuprofile, then the benchmark's line
# and the profile's top 15 functions by flat time are printed. It prints,
# it never gates, and it is not part of `check`.
host-cpu:
	@tmp=$$(mktemp -d); run='^$(CPU_BENCH)$$'; \
	if [ "$(WORKLOAD)" != all ]; then run="$$run/^$(WORKLOAD)$$"; fi; \
	$(GO) test -count=1 -run '^$$' -bench "$$run" -o $$tmp/harness.test \
		-cpuprofile $$tmp/cpu.prof ./internal/harness/ > $$tmp/out; \
	status=$$?; \
	grep -E '^(Benchmark|FAIL|ok)' $$tmp/out; \
	if [ $$status -eq 0 ]; then \
		$(GO) tool pprof -top -nodecount=15 $$tmp/harness.test $$tmp/cpu.prof 2>/dev/null | tail -n +5; \
	fi; \
	rm -rf $$tmp; exit $$status

# The same for a workload's set-up phase, what the benchmark reports as
# setup_s: BenchmarkWorkloadSetup runs the row's 1-node FAST/GM baseline
# and its verified run for about a second under -cpuprofile (same WORKLOAD
# choices and default as host-cpu, the same printout). It prints, it
# never gates, and it is not part of `check`.
setup-cpu:
	@$(MAKE) --no-print-directory host-cpu CPU_BENCH=BenchmarkWorkloadSetup

# What a benchmark workload sends (same WORKLOAD choices and default as
# host-allocs): BenchmarkWireBytes runs the row once with the tracer on and
# prints, per request kind, the requests served and their bytes, then the
# replies that answered them and theirs (a barrier release is listed under
# barrier-arrive), read from the substrate's serve and call spans. The
# table every message-size change starts from; it prints, it never gates,
# and it is not part of `check`.
wire-bytes:
	@tmp=$$(mktemp); run='^BenchmarkWireBytes$$'; \
	if [ "$(WORKLOAD)" != all ]; then run="$$run/^$(WORKLOAD)$$"; fi; \
	$(GO) test -count=1 -run '^$$' -bench "$$run" -benchtime 1x ./internal/harness/ > $$tmp; \
	status=$$?; \
	grep -vE '^(goos|goarch|pkg|cpu|Benchmark|PASS|ok)' $$tmp; \
	rm -f $$tmp; exit $$status

# The measurement rule of every host-clock claim: ./benchmark built at the
# commit BASE (exported with git archive into a temporary directory) and at
# the working tree, then PAIRS pairs of `-workload WORKLOAD -trace 0
# -seconds 1` runs from the repo root, the two sides in alternating order.
# For each end-to-end metric it prints each side's median and quartiles,
# how many pairs the change won, and a verdict: unresolved when the
# medians differ by no more than the base's interquartile range. It
# prints, it never gates, and it is not part of `check`; `make pairs
# WORKLOAD=fft3d_fastgm_8 BASE=HEAD~1` takes about a minute.
define PAIRS_AWK
function sorted(side, m,   n, i, j, t) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((side, m, i) in val) s[++n] = val[side, m, i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && s[j-1] > s[j]; j--) { t = s[j]; s[j] = s[j-1]; s[j-1] = t }
	return n
}
function q(n, f,   pos, lo) {
	pos = f * (n - 1); lo = int(pos)
	return lo + 1 >= n ? s[n] : s[lo+1] + (pos - lo) * (s[lo+2] - s[lo+1])
}
{
	if ($$1 > pairs) pairs = $$1
	line = $$0
	while (match(line, /"[a-z0-9_.]+":{"value":[-+0-9.eE]+/)) {
		kv = substr(line, RSTART + 1, RLENGTH - 1); line = substr(line, RSTART + RLENGTH)
		m = substr(kv, 1, index(kv, "\"") - 1); v = substr(kv, index(kv, "value\":") + 7) + 0
		if (!(m in seen)) { seen[m] = 1; names[++nm] = m }
		val[$$2, m, $$1] = v
	}
}
END {
	printf "%-24s %35s %35s %6s %5s  %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins", "ties", "verdict"
	for (k = 1; k <= nm; k++) {
		m = names[k]; higher = m == "virt_speedup_vs_1node"
		n = sorted("base", m); b1 = q(n, .25); b2 = q(n, .5); b3 = q(n, .75)
		n = sorted("change", m); c1 = q(n, .25); c2 = q(n, .5); c3 = q(n, .75)
		wins = ties = played = 0
		for (i = 1; i <= pairs; i++) {
			if (!(("base", m, i) in val) || !(("change", m, i) in val)) continue
			played++; d = val["change", m, i] - val["base", m, i]
			if (d == 0) ties++; else if (higher ? d > 0 : d < 0) wins++
		}
		d = c2 - b2
		if (ties == played) verdict = "equal"
		else if ((d < 0 ? -d : d) <= b3 - b1) verdict = "unresolved"
		else verdict = (higher ? d > 0 : d < 0) ? "better" : "worse"
		printf "%-24s %12.6g [%9.6g, %9.6g] %12.6g [%9.6g, %9.6g] %3d/%-2d %5d  %s\n", m, b2, b1, b3, c2, c1, c3, wins, played, ties, verdict
	}
}
endef
export PAIRS_AWK

pairs:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	mkdir $$tmp/src && git archive $(BASE) | tar -x -C $$tmp/src || exit 1; \
	(cd $$tmp/src && $(GO) build -o $$tmp/base ./benchmark) || exit 1; \
	$(GO) build -o $$tmp/change ./benchmark || exit 1; \
	echo "pairs: $(WORKLOAD), $(BASE) ($$(git rev-parse --short $(BASE))) against the working tree, $(PAIRS) pairs"; \
	for i in $$(seq $(PAIRS)); do \
		if [ $$((i % 2)) = 1 ]; then order="base change"; else order="change base"; fi; \
		for side in $$order; do \
			$$tmp/$$side -workload $(WORKLOAD) -trace 0 -seconds 1 > $$tmp/out 2>&1 || \
				{ echo "pairs: pair $$i, $$side failed:"; cat $$tmp/out; exit 1; }; \
			echo "$$i $$side $$(tail -n 1 $$tmp/out)" >> $$tmp/runs; \
		done; \
	done; \
	awk "$$PAIRS_AWK" $$tmp/runs

# Short fuzz runs of every fuzz target (seeds are checked in under each
# package's testdata/fuzz/). A finding is written there as a new case.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/msg/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReuse$$' -fuzztime $(FUZZTIME) ./internal/msg/
	$(GO) test -run '^$$' -fuzz '^FuzzApplyDiff$$' -fuzztime $(FUZZTIME) ./internal/tmk/
	$(GO) test -run '^$$' -fuzz '^FuzzDiffRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/tmk/
	$(GO) test -run '^$$' -fuzz '^FuzzHandleAsyncFrame$$' -fuzztime $(FUZZTIME) ./internal/substrate/fastgm/
	$(GO) test -run '^$$' -fuzz '^FuzzSendArena$$' -fuzztime $(FUZZTIME) ./internal/substrate/fastgm/
	$(GO) test -run '^$$' -fuzz '^FuzzHandleVerbFrame$$' -fuzztime $(FUZZTIME) ./internal/substrate/rdmagm/
	$(GO) test -run '^$$' -fuzz '^FuzzHandleCompletion$$' -fuzztime $(FUZZTIME) ./internal/substrate/rdmagm/

# Chaos sweep: all four applications on the two-sided substrates (udpgm,
# fastgm; harness.Transports) over a seeded lossy fabric (drop, corruption, latency spikes, a timed blackout),
# asserting bit-correct results, active recovery, no residual disabled
# ports, and zero-probability fault-config identity.
chaos-smoke:
	$(GO) run ./cmd/tmkrun -chaos

# Strict refactor proof: regenerate all four suites, once, and require every
# file byte-identical to the checked-in BENCH_*.json; on failure it names
# each row that moved. The target that fails when virtual time moved — and
# part of `test`, so `check` needs no step of its own for it. A PR that
# means to move virtual time reviews the movement with bench-gate, then
# rewrites the files with bench and commits them.
bench-identical:
	$(GO) test -count=1 -run '^TestBenchReproducibleByteIdentical$$' ./internal/harness/

# The writer: BENCH_e0/e1/e2/e3.json into BENCHDIR. Not part of
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
# to win, or stay under the ceiling its exception names. The placement's
# own tests ride along: every rank homes every page at its block of its
# region, a band writer takes no twin from the first epoch, 3D-FFT's bands
# are homed at their writers (no twin, no flush), and every rank remembers
# a barrier by the same vector clock — as do the pipeline's: a new region
# costs one round trip per Distribute round, not one per peer, and a flush
# posts each Put while the next page encodes.
rdma-smoke:
	$(GO) test -short -run 'TestHomeBased|TestBenchE3RDMAWinsHeadlineRows' ./internal/harness/
	$(GO) test -run 'TestHomeOfIsTheBlockOnEveryRank|TestBandWritesAreTwinFree|TestFFT3DBandsAreHomedAtTheirWriters|TestBarrierVCAgreesOnEveryRank|TestDistributeIsOneRoundTrip|TestHomeFlushStreams' ./internal/tmk/

# The one comparison: every regenerated row that differs from the
# checked-in BENCH_*.json is printed with its old and new value, and none
# may be worse by more than its tolerance (max(500ns, 2%·old) by default;
# times lower-is-better, B/s higher-is-better; bench-identical is the
# exactness check); a removed row is a failure, an improvement is listed.
# Writes nothing. Callable on its own and not part of `check`.
bench-gate:
	$(GO) run ./cmd/bench -gate -out $(BENCHDIR)

# Every command that builds a Config from flags reports an illegal one as
# tmk.Config.Validate's one-line verdict and a non-zero exit — never a
# goroutine dump — figures rejects a -fig it does not print with a line
# naming the valid ones, the smallest verified run passes on each
# substrate, and so does the whole `tmkrun -verify` matrix: 4 apps × 3
# substrates × {2, 4, 8, 16} nodes at default sizes, one verdict line per
# cell, each cell either verified or a one-line invalid config (about
# 10 s on two cores). SOR's verification gather there asks for pages
# whose diffs fill more than one 32 KB frame, and the 3dfft cells at 2 and 4 nodes read source
# blocks of 32 and 8 dense pages, so on the homeless substrates they
# exercise continued replies and multi-wave span faults (DESIGN.md §4.3);
# so do the homeless rdmagm 3dfft runs after it, and again with
# -rendezvous, which carries the large frames by RTS/CTS. -prof (the
# profiler subscribed to the run's tracer), on a scenario and on an app,
# must exit 0 and print a profile with at least one page; two identical
# -prof-json runs must write byte-identical tmk-prof/1 files; and a
# scenario's -critical -out must print a critical path and write a
# non-empty Chrome trace.
cli-smoke:
	@for args in "tmkrun -nodes 0" "tmkrun -transport bogus" "tmkrun -scenario lockchain -transport bogus" \
			"figures -fig 3 -barrier-nodes 0" "figures -fig 4 -nodes 0" "figures -fig e6 -e6-sizes 0"; do \
		if out="$$($(GO) run ./cmd/$$args 2>&1)"; then echo "cli-smoke: $$args: exited 0"; exit 1; fi; \
		case "$$out" in \
			*"goroutine "*) echo "cli-smoke: $$args: goroutine dump"; exit 1;; \
			*"invalid config"*) ;; \
			*) echo "cli-smoke: $$args: no invalid-config line: $$out"; exit 1;; \
		esac; \
	done
	@for fig in bogus prof; do \
		if out="$$($(GO) run ./cmd/figures -fig $$fig 2>&1)"; then echo "cli-smoke: figures -fig $$fig: exited 0"; exit 1; fi; \
		case "$$out" in \
			*"unknown -fig \"$$fig\" (want "*) ;; \
			*) echo "cli-smoke: figures -fig $$fig: no unknown-fig line: $$out"; exit 1;; \
		esac; \
	done
	@for t in udpgm fastgm rdmagm; do \
		$(GO) run ./cmd/tmkrun -app jacobi -nodes 2 -size 0 -transport $$t -verify > /dev/null || exit 1; \
	done
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/tmkrun ./cmd/tmkrun || exit 1; \
	ok=0; invalid=0; bad=0; \
	for app in jacobi sor 3dfft tsp; do for t in udpgm fastgm rdmagm; do for n in 2 4 8 16; do \
		cell=$$app/$$t/$$n; \
		if out="$$($$tmp/tmkrun -app $$app -nodes $$n -transport $$t -verify 2>&1)"; then \
			verdict=verified; ok=$$((ok+1)); \
		else \
			case "$$out" in \
				*"invalid config"*) if [ "$$(printf '%s\n' "$$out" | wc -l)" = 1 ]; then \
						verdict="$$out"; invalid=$$((invalid+1)); else verdict="FAIL: not one line: $$out"; bad=$$((bad+1)); fi;; \
				*) verdict="FAIL: $$(printf '%s\n' "$$out" | head -n 1 | sed -e 's/^panic: //' -e 's/^sim: proc "[^"]*" panicked: //' | cut -c1-100)"; \
					bad=$$((bad+1));; \
			esac; \
		fi; \
		printf '%-18s %s\n' "$$cell" "$$verdict"; \
	done; done; done; \
	echo "cli-smoke: $$ok/48 verified, $$invalid invalid configs, $$bad failures"; \
	[ $$bad = 0 ]
	@for t in "rdmagm -homeless" "fastgm -rendezvous" "rdmagm -homeless -rendezvous"; do \
		$(GO) run ./cmd/tmkrun -app 3dfft -nodes 4 -transport $$t -verify > /dev/null || exit 1; \
	done
	@for args in "tmkrun -scenario lockchain -prof" "tmkrun -app tsp -nodes 4 -size 0 -prof"; do \
		out="$$($(GO) run ./cmd/$$args 2>&1)" || { echo "cli-smoke: $$args: exited non-zero"; exit 1; }; \
		case "$$out" in \
			*"top pages by fault time ("[1-9]*) ;; \
			*) echo "cli-smoke: $$args: empty profile"; exit 1;; \
		esac; \
	done
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/tmkrun ./cmd/tmkrun || exit 1; \
	for f in a b; do \
		$$tmp/tmkrun -app tsp -nodes 4 -size 0 -prof -prof-json $$tmp/$$f.json > /dev/null || \
			{ echo "cli-smoke: tmkrun -prof-json: exited non-zero"; exit 1; }; \
	done; \
	cmp -s $$tmp/a.json $$tmp/b.json || { echo "cli-smoke: two identical -prof-json runs wrote different files"; exit 1; }; \
	grep -q '"schema": "tmk-prof/1"' $$tmp/a.json || { echo "cli-smoke: -prof-json: no tmk-prof/1 schema"; exit 1; }
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	out="$$($(GO) run ./cmd/tmkrun -scenario counter -critical -out $$tmp/t.json 2>&1)" || \
		{ echo "cli-smoke: tmkrun -scenario counter -critical -out: exited non-zero"; exit 1; }; \
	case "$$out" in \
		*"critical path ("[1-9]*"total"*) ;; \
		*) echo "cli-smoke: tmkrun -scenario counter -critical: no critical-path table"; exit 1;; \
	esac; \
	[ -s $$tmp/t.json ] || { echo "cli-smoke: tmkrun -scenario counter -out: empty trace JSON"; exit 1; }
	@echo "cli-smoke: illegal configs and unknown figures rejected in one line, the -verify matrix and the homeless rdmagm and rendezvous runs pass, -prof profiles, -prof-json is deterministic, -critical -out"

# Causal critical-path smoke: one SOR run over FAST/GM must extract a
# non-empty critical path whose category attributions sum exactly to the
# end-to-end virtual time, and a recorded stream replayed into a fresh
# view must rebuild the live view's path on every substrate (DESIGN.md
# §13). Then one tracer feeds three views end to end: tmkrun's critical
# path, entity profile and Chrome export with its flow arrows.
critical-smoke:
	$(GO) test -run 'TestCriticalSmokeSORFastGM|TestCausalReplayEqualsLive' ./internal/harness/
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	out="$$($(GO) run ./cmd/tmkrun -app sor -nodes 4 -critical -prof -out $$tmp/t.json 2>&1)" || \
		{ echo "critical-smoke: tmkrun -critical -prof -out: exited non-zero"; exit 1; }; \
	case "$$out" in \
		*"critical path ("[1-9]*"total"*"top pages by fault time ("[1-9]*) ;; \
		*) echo "critical-smoke: tmkrun -critical -prof: no critical-path table or no profile"; exit 1;; \
	esac; \
	grep -q '"cat":"causal","ph":"s"' $$tmp/t.json || \
		{ echo "critical-smoke: tmkrun -out: no causal flow arrows in the trace JSON"; exit 1; }; \
	echo "critical-smoke: one tracer fed the critical path, the profile and the Chrome export"
