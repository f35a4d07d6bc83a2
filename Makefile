# Tier-1 gate plus convenience targets. `make check` is what CI (and the
# roadmap's verify step) runs: formatting, vet, build, race-enabled tests,
# netlint over the shipped example and benchmark circuits, the focused race
# gate over the concurrency substrate, and the chaos smoke run.

GO ?= go

.PHONY: check fmt vet build test race lint bench benchflow bench-smoke perfbench-smoke fuzz obs-smoke chaos-smoke sat-smoke obsdiff-smoke serve-smoke

check: fmt vet build test race lint benchflow bench-smoke perfbench-smoke obs-smoke chaos-smoke sat-smoke obsdiff-smoke serve-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The explicit ./internal/obs vet keeps the observability layer in the gate
# even if a future package filter narrows the ./... run. vetdfm is the
# determinism vet suite (internal/analyzers): no wall-clock reads, global
# rand streams, or map-order-dependent output in deterministic packages.
vet:
	$(GO) vet ./...
	$(GO) vet ./internal/obs
	$(GO) run ./cmd/vetdfm

build:
	$(GO) build ./...

# The root package's differential suites (kill/resume sweeps, the
# static-proof harness, the ledger gates) legitimately exceed go test's
# 600s default under the race detector — give them explicit headroom.
test:
	$(GO) test -race -timeout 30m ./...

# Focused race gate over the packages that own shared mutable state — the
# worker pool, the cancellation/journal substrate, and the observability
# layer — kept explicit so it survives any future narrowing of the ./...
# test run.
race:
	$(GO) test -race ./internal/par/ ./internal/resilience/ ./internal/obs/

# netlint must pass (exit 0) on every shipped circuit: the examples and the
# twelve paper benchmarks. The next step rejects committed span-trace dumps:
# -tracefile output belongs next to a run, not in the tree (golden trace
# fixtures under testdata/ are exempt). The last step rejects stray run
# artifacts: a *.ckpt or *.vlog file is a checkpoint journal or verdict log
# of -journal, and a *.jsonl file a provenance ledger of -ledger or
# dfmserve, never a source file (fixtures under testdata/ are exempt).
lint:
	$(GO) run ./cmd/netlint examples/circuits/*.ckt
	$(GO) run ./cmd/netlint -bench=all
	@bad="$$(git ls-files '*.json' | grep -v '/testdata/' | \
		xargs -r grep -l '"traceEvents"' 2>/dev/null || true)"; \
	if [ -n "$$bad" ]; then \
		echo "committed Chrome trace dumps (delete them, they are run artifacts):"; \
		echo "$$bad"; exit 1; fi
	@bad="$$(git ls-files '*.ckpt' '*.vlog' '*.jsonl' | grep -v '/testdata/' || true)"; \
	if [ -n "$$bad" ]; then \
		echo "committed checkpoint journals, verdict logs or ledgers (delete them, they are run artifacts of -journal, -ledger and dfmserve):"; \
		echo "$$bad"; exit 1; fi

bench:
	$(GO) test -bench=. -benchmem

# Machine-readable flow performance record: per-circuit Analyze wall time,
# ATPG time, the verdict-cache hit rate of a warm re-analysis, worker
# scaling, the DFM scan time and bridge-pair reduction, and the synthetic
# scale tier (synth1k/synth10k through the Verilog ingest path).
benchflow:
	BENCH_FLOW_OUT=BENCH_flow.json $(GO) test -run TestBenchFlowJSON -timeout 30m .

# Fast benchmark gate: every physical-path microbenchmark, the four ATPG
# hot-loop microbenchmarks (event-driven fault simulation of one block over
# synth1k's faults, fault by fault and site-shared through a pool; synth1k's
# PODEM searches; and the static stage: synth1k's implication closure plus
# the screen of its DFM faults) and the flight recorder's per-verdict cost
# (BenchmarkLedgerVerdict: encode, digest and write one ledger record),
# and a sweep checkpoint's commit cost (BenchmarkCheckpointCommit: 500 new
# verdicts appended to the verdict log of a cache prewarmed with 40k)
# compile and run one iteration under the race detector, and the 10k-gate
# tier builds and checks cleanly — so `make check` catches a bit-rotted
# benchmark or scale circuit without paying for a full -bench run.
bench-smoke:
	$(GO) test -race -run 'TestScaleCircuits' \
		-bench 'BenchmarkBuildFaults|BenchmarkRoute|BenchmarkDetects|BenchmarkGenerate|BenchmarkStatic|BenchmarkLedgerVerdict|BenchmarkCheckpointCommit' \
		-benchtime=1x ./internal/bench/ ./internal/dfm/ ./internal/route/ \
		./internal/faultsim/ ./internal/atpg/ ./internal/implic/ ./internal/obs/ \
		./internal/resyn/

# The benchmark harness is a nested module (perfbench/go.mod replaces
# dfmresyn with ../), so the root ./... builds and vets never compile it.
# Vet and test it here, so that an API change that breaks the benchmark
# fails `make check` instead of the next benchmark run (~10 s).
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# End-to-end smoke test of the observability exports: run the CLI on the
# fastest benchmark with tracing on, then validate both files with obscheck
# (trace_event JSON with spans; metrics snapshot with all four sections).
obs-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/dfmresyn -table2 -circuit wb_conmax -q 0 \
		-tracefile "$$dir/run.trace.json" -metricsfile "$$dir/run.metrics.json" \
		>/dev/null && \
	$(GO) run ./cmd/obscheck -trace "$$dir/run.trace.json" -metrics "$$dir/run.metrics.json"

# End-to-end chaos smoke: the same sweep with and without injected worker
# panics must print identical tables (stdout, with the wall-clock columns
# stripped), and the chaos run's stderr must report recovered panics — i.e.
# the injection actually fired and was absorbed. The awk filter drops the
# perf/prov diagnostics and the Rtime column, exactly like the CLI test.
chaos-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	filter() { awk '$$2=="perf"||$$2=="prov"{next} $$1~/%$$/||$$1=="none"{NF--} {print}' "$$1"; }; \
	$(GO) run ./cmd/dfmresyn -table2 -trace -circuit sparc_spu \
		>"$$dir/clean.out" 2>/dev/null && \
	$(GO) run ./cmd/dfmresyn -table2 -trace -circuit sparc_spu -chaospanic 0.05 \
		>"$$dir/chaos.out" 2>"$$dir/chaos.err" && \
	filter "$$dir/clean.out" >"$$dir/clean.flt" && \
	filter "$$dir/chaos.out" >"$$dir/chaos.flt" && \
	diff -u "$$dir/clean.flt" "$$dir/chaos.flt" && \
	grep -q 'recovered=[1-9]' "$$dir/chaos.err" && \
	echo "chaos-smoke: tables identical under 5% injected panics"

# Flight-recorder smoke: two identical-config runs of the fastest benchmark
# must produce ledgers obsdiff calls equivalent (exit 0, matching digests);
# then a verdict flipped in place with sed must be caught (exit 1, not 0 and
# not a crash) — i.e. the differ is wired tightly enough to gate a CI run.
# The first iteration record is then edited twice: a changed tier-map count
# is a migration (exit 0, reported), a changed U is a flip (exit 1).
obsdiff-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/dfmresyn -table2 -circuit wb_conmax -q 0 \
		-ledger "$$dir/a.jsonl" >/dev/null 2>&1 && \
	$(GO) run ./cmd/dfmresyn -table2 -circuit wb_conmax -q 0 \
		-ledger "$$dir/b.jsonl" >/dev/null 2>&1 && \
	$(GO) run ./cmd/obsdiff "$$dir/a.jsonl" "$$dir/b.jsonl" && \
	sed '0,/"status":"detected"/s//"status":"undetectable"/' \
		"$$dir/b.jsonl" >"$$dir/flipped.jsonl" && \
	{ $(GO) run ./cmd/obsdiff "$$dir/a.jsonl" "$$dir/flipped.jsonl" 2>/dev/null; \
		rc=$$?; [ $$rc -eq 1 ] || { echo "obsdiff-smoke: injected flip exited $$rc, want 1"; exit 1; }; } && \
	sed '0,/"t":"iter"/{/"t":"iter"/s/"tiers":{"\([a-z_]*\)":/"tiers":{"\1":1/}' \
		"$$dir/b.jsonl" >"$$dir/tiers.jsonl" && \
	{ $(GO) run ./cmd/obsdiff "$$dir/a.jsonl" "$$dir/tiers.jsonl" >"$$dir/tiers.out" 2>/dev/null; \
		rc=$$?; [ $$rc -eq 0 ] || { echo "obsdiff-smoke: tier-map edit exited $$rc, want 0"; exit 1; }; } && \
	{ grep -q '0 verdict flips, 1 tier migrations' "$$dir/tiers.out" || \
		{ echo "obsdiff-smoke: tier-map edit not reported as one migration"; cat "$$dir/tiers.out"; exit 1; }; } && \
	sed '0,/"t":"iter"/{/"t":"iter"/s/"u":/"u":1/}' \
		"$$dir/b.jsonl" >"$$dir/u.jsonl" && \
	{ $(GO) run ./cmd/obsdiff "$$dir/a.jsonl" "$$dir/u.jsonl" >/dev/null 2>&1; \
		rc=$$?; [ $$rc -eq 1 ] || { echo "obsdiff-smoke: iteration U edit exited $$rc, want 1"; exit 1; }; } && \
	echo "obsdiff-smoke: self-diff clean, injected flip caught, tier-map edit a migration, U edit a flip"

# SAT escalation smoke: the CDCL core's brute-force and pigeonhole
# cross-checks, the escalation tier's differential harness (SAT verdicts ==
# unlimited PODEM on every fault model), and the flow-level determinism gate
# with forced escalations on sparc_exu. Fast (~2s) and fully deterministic.
sat-smoke:
	$(GO) test -run 'TestRandom3SATAgainstBruteForce|TestPigeonhole|TestDeterminism|TestXorChain' ./internal/sat/
	$(GO) test -run 'TestEscalat' ./internal/atpg/
	$(GO) test -run 'TestSATEscalationDeterminism' .

# Analysis-server chaos smoke, across real OS processes: start dfmserve,
# submit a q-sweep, kill -9 the server the moment the job's checkpoint hits
# disk, restart on the same data directory, and assert the re-admitted job
# resumes to a ledger digest byte-identical to an uninterrupted run's —
# then that a second cold process reports warm hits from the shared verdict
# store. (The same test runs under `make test`; this target keeps the
# acceptance run invocable, and debuggable, on its own.)
serve-smoke:
	$(GO) test -run 'TestServeSmoke' -v -timeout 15m ./cmd/dfmserve/

# Short fuzz passes over every hand-rolled parser/decoder — the canonical
# netlist reader, the exact-order checkpoint codec, the journal envelope,
# the sweep-checkpoint loader (journal plus verdict log), the ledger reader
# and its resume reader (FuzzLedger: ReadLedger and ResumeLedger) and the
# verdict store's segment decoder — and over the differential engine checks
# (static implication, CNF encoding, event-driven and site-shared fault
# simulation against the whole-circuit reference). Corpora grow under
# -fuzztime as long as you let them run.
fuzz:
	$(GO) test -fuzz=FuzzRead$$ -fuzztime=30s ./internal/netlist/
	$(GO) test -fuzz=FuzzReadExact -fuzztime=30s ./internal/netlist/
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/resilience/
	$(GO) test -fuzz=FuzzCheckpointDecode -fuzztime=30s ./internal/resyn/
	$(GO) test -fuzz=FuzzImplic -fuzztime=30s ./internal/implic/
	$(GO) test -fuzz=FuzzCNF -fuzztime=30s ./internal/atpg/
	$(GO) test -fuzz=FuzzDetects$$ -fuzztime=30s ./internal/faultsim/
	$(GO) test -fuzz=FuzzDetectsMany -fuzztime=30s ./internal/faultsim/
	$(GO) test -fuzz=FuzzLedger -fuzztime=30s ./internal/obs/
	$(GO) test -fuzz=FuzzVstore -fuzztime=30s ./internal/vstore/
