# Standard entry points for the LEGO reproduction.

GO ?= go

.PHONY: all build vet lint lint-fixtures fmtcheck test test-short bench benchall fmt examples clean ci smoke race-shard chaos resume perfgate profile selffuzz benchcheck loc

all: build vet lint test

# Everything CI runs, in CI's order; keep .github/workflows/ci.yml in sync.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) fmtcheck
	$(MAKE) lint
	$(MAKE) lint-fixtures
	$(GO) test -race ./...
	$(MAKE) race-shard
	$(MAKE) smoke
	$(MAKE) chaos
	$(MAKE) resume
	$(MAKE) selffuzz
	$(MAKE) perfgate
	$(MAKE) benchcheck
	$(MAKE) loc

# The sharded executor's schedule-independence gate, named so its failure is
# unambiguous: the determinism claims of internal/shard are only credible
# race-clean, since a data race between shards is exactly a scheduling
# dependence.
race-shard:
	$(GO) test -race -count=1 -run 'Sharded' ./internal/shard/ .

# legolint statically enforces the campaign-determinism invariants (map
# iteration order, global math/rand, wall-clock reads, minidb panic
# discipline) and the cross-package contracts (sqlast switch exhaustiveness,
# hotpath allocation, borrowed-buffer retention).
# Suppress one finding with `//lego:allow <analyzer> — <reason>`; machine
# output: $(GO) vet -json -vettool=... ./...
lint:
	$(GO) build -o bin/legolint ./cmd/legolint
	$(GO) vet -vettool=$(abspath bin/legolint) ./...

# The analyzers' own test suites: every testdata fixture must produce
# exactly its expected `// want` diagnostics, and facts must survive the
# unitchecker round-trip.
lint-fixtures:
	$(GO) test ./internal/analysis/...

# gofmt cleanliness over the whole tree, fixtures included.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# End-to-end triage gate: a short campaign whose every bug must verify
# STABLE with a minimized reproducer — once with one worker, once with four.
smoke:
	$(GO) run ./cmd/legofuzz -target comdb2 -budget 20000 -triage -triage-assert
	$(GO) run ./cmd/legofuzz -target mariadb -budget 20000 -workers 4 -triage -triage-assert

# Chaos determinism gate: run the same supervised chaotic campaign twice and
# demand byte-identical checkpoints — injected worker panics, epoch retries,
# quarantine, and the incident journal must all be pure functions of
# (chaos-rate, chaos-seed). It runs once with four workers and once with
# one, whose soft epochs and background saves must be just as reproducible.
# The four-worker runs also triage, so the post-triage save, the only place
# triage results persist, is compared too.
chaos:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for w in 4 1; do \
		triage=; [ $$w = 4 ] && triage=-triage; \
		for run in a b; do \
			$(GO) run ./cmd/legofuzz -target mariadb -budget 30000 -workers $$w $$triage \
				-epoch-stmts 500 -chaos-rate 0.05 -chaos-seed 7 -checkpoint-every 300 \
				-checkpoint "$$tmp/w$$w-$$run.ckpt" >/dev/null || exit 1; \
		done; \
		cmp "$$tmp/w$$w-a.ckpt" "$$tmp/w$$w-b.ckpt" || exit 1; \
		echo "chaos: $$w-worker double-run checkpoints byte-identical"; \
	done

# Cross-process resume gate: a two-worker campaign that stops at half its
# budget and is resumed by a second process must end with the checkpoint,
# byte for byte, and the report of one uninterrupted process (apart from
# the resume notice and the timing). Before that, resuming the half-budget
# checkpoint as LEGO- (-minus) must fail with a `resume:` error: the
# campaign options are part of its identity.
resume:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/legofuzz" ./cmd/legofuzz || exit 1; \
	run() { "$$tmp/legofuzz" -target mariadb -workers 2 -epoch-stmts 500 -seed 5 "$$@"; }; \
	norm() { sed -e '/^resumed campaign from /d' -e 's/ in [0-9.]*s ([0-9]* stmts\/s)//'; }; \
	run -checkpoint "$$tmp/A" -budget 40000 | norm >"$$tmp/a.txt" && \
	run -checkpoint "$$tmp/B" -budget 20000 >/dev/null || exit 1; \
	if run -checkpoint "$$tmp/B" -budget 40000 -resume -minus >/dev/null 2>"$$tmp/minus.txt"; then \
		echo "resume: a LEGO checkpoint resumed as LEGO- was not rejected"; exit 1; fi; \
	grep -q '^resume: ' "$$tmp/minus.txt" || { cat "$$tmp/minus.txt"; exit 1; }; \
	run -checkpoint "$$tmp/B" -budget 40000 -resume | norm >"$$tmp/b.txt" || exit 1; \
	cmp "$$tmp/A" "$$tmp/B" || exit 1; \
	diff "$$tmp/a.txt" "$$tmp/b.txt" || exit 1; \
	echo "resume: LEGO- resume rejected; resumed checkpoint and report match the uninterrupted run"

# Self-fuzz, 15 s per target. FuzzEngineReuseMatchesFresh: in any dialect,
# a script run after another on one minidb engine, twice over, must match
# the same script on a new engine, so the per-test-case reset leaves
# nothing behind and recycled tables, snapshots and rows read as new ones.
# FuzzCheckpointLoad: arbitrary file bytes must make checkpoint.Load return
# an error or a state, never panic, and a loaded state must resume or fail
# cleanly. FuzzRenderFixpoint:
# parse→render→parse must be a fixpoint, and arbitrary bytes must never
# panic the parser. FuzzCloneMatchesReparse: every parsed statement's
# Clone must render like the original and its render+reparse copy, and
# share no memory with the original. FuzzFixCopyOnWriteMatchesClone: the
# fixer over shared statements must repair, draw and render exactly like
# the fixer over a full clone, and never write a shared statement.
# FuzzFrameLookupMatchesMapScope: every evaluation site's frame must resolve
# every bare and qualified name as the scope map that site used to build.
# FuzzEncodeMatchesMarshal: the checkpoint encoder must write json.Marshal's
# bytes for any state.
# Plain `go test` runs only the seeds; this searches.
selffuzz:
	$(GO) test -run '^$$' -fuzz FuzzEngineReuseMatchesFresh -fuzztime 15s ./internal/minidb
	$(GO) test -run '^$$' -fuzz FuzzCheckpointLoad -fuzztime 15s ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzRenderFixpoint -fuzztime 15s ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz FuzzCloneMatchesReparse -fuzztime 15s ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz FuzzFixCopyOnWriteMatchesClone -fuzztime 15s ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz FuzzFrameLookupMatchesMapScope -fuzztime 15s ./internal/minidb
	$(GO) test -run '^$$' -fuzz FuzzEncodeMatchesMarshal -fuzztime 15s ./internal/checkpoint

# The campaign benchmark is a module of its own, so the root module's
# `go test ./...` never builds it; this vets it and runs its tests, which
# check that its traced loop and checkpoints match the program's.
benchcheck:
	cd campaignbench && $(GO) vet ./... && $(GO) test ./...

# Non-test Go lines: the whole module (campaignbench/ and testdata excluded)
# and internal/minidb, tracked so that growth has to pay for itself.
loc:
	@echo "non-test Go LoC: repo $$(find . -name '*.go' ! -name '*_test.go' ! -path './campaignbench/*' ! -path '*/testdata/*' | xargs cat | wc -l), internal/minidb $$(find internal/minidb -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# One benchmark per paper table/figure, at reduced budgets.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run xxx .

# Regenerate every table/figure at full scale (a few minutes).
benchall:
	$(GO) run ./cmd/benchall

# Throughput regression gate: a short perf snapshot must stay above 70% of
# the committed floor (the workers-1 row of BENCH_perf.json, rounded down).
# It runs in a scratch directory so the short-budget snapshot never
# clobbers the committed BENCH_perf.json / BENCH_history.jsonl — those are
# regenerated deliberately with `make benchall` runs from the repo root.
PERF_FLOOR ?= 198000
perfgate:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/benchall" ./cmd/benchall && \
	cd "$$tmp" && ./benchall -only perf -execs 50000 -perf-floor $(PERF_FLOOR)

# CPU + heap profile of a full-budget perf campaign; leaves cpu.prof and
# mem.prof in the repo root (gitignored). Inspect with `go tool pprof`.
profile:
	$(GO) build -o bin/benchall ./cmd/benchall
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	cd "$$tmp" && $(abspath bin/benchall) -only perf \
		-cpuprofile cpu.prof -memprofile mem.prof && \
	cp cpu.prof mem.prof $(CURDIR)/ && \
	echo "wrote cpu.prof and mem.prof (go tool pprof cpu.prof)"

fmt:
	gofmt -w .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/affinity
	$(GO) run ./examples/compare
	$(GO) run ./examples/casestudy

clean:
	$(GO) clean ./...
