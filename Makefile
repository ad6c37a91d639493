# EventSpace development entry points. Everything is standard-library
# Go; the only external tools are the optional CI linters installed on
# demand (staticcheck, govulncheck).

GO ?= go

.PHONY: build test test-short bench bench-archive bench-staleness bench-query bench-recovery lint vet eslint lint-fix-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short -race ./...

bench:
	$(GO) test -bench=. -benchmem

# bench-archive builds the archive query CLI, runs the trace-archive
# tests under the race detector, and records write/scan throughput in
# BENCH_archive.json. The run fails unless the dictionary-skipped
# selective scan beats a full scan of the same archive by at least 4x.
bench-archive:
	$(GO) build -o /dev/null ./cmd/esquery
	$(GO) test -race ./internal/archive/
	ARCHIVE_BENCH_OUT=$(CURDIR)/BENCH_archive.json \
		$(GO) test -race -run TestRecordArchiveBench ./internal/bench/

# bench-query runs the esql test suite under the race detector and
# records parse cost, evaluator throughput, and the static-pushdown
# speedup on a selective predicate in BENCH_query.json.
bench-query:
	$(GO) test -race ./internal/query/ ./cmd/esquery/
	QUERY_BENCH_OUT=$(CURDIR)/BENCH_query.json \
		$(GO) test -race -run TestRecordQueryBench ./internal/bench/

# bench-staleness runs the straggler-storm chaos suite under the race
# detector and records the degradation ladder's accuracy-versus-overhead
# table (3 modes x 3 seeds) in BENCH_staleness.json.
bench-staleness:
	$(GO) test -race -run TestStragglerStormBoundedStaleness ./internal/escope/
	STALENESS_BENCH_OUT=$(CURDIR)/BENCH_staleness.json \
		$(GO) test -race -run TestRecordStalenessBench ./internal/bench/

# bench-recovery runs the checkpoint and failover suites under the race
# detector, then records recovery time and bytes replayed — checkpointed
# fast path versus full replay, three archive sizes — in
# BENCH_recovery.json. The run fails unless the fast path
# replays at least 5x fewer bytes at the largest archive size.
bench-recovery:
	$(GO) test -race ./internal/checkpoint/ ./internal/reconfig/
	RECOVERY_BENCH_OUT=$(CURDIR)/BENCH_recovery.json \
		$(GO) test -race -run TestRecordRecoveryBench ./internal/bench/

vet:
	$(GO) vet ./...

# eslint is the project-specific invariant suite (DESIGN.md §8, §13).
eslint:
	$(GO) run ./cmd/eslint ./...

# lint-fix-check audits the suppression annotations themselves: every
# //lint:allow must carry a reason and name a real analyzer. Parse-only,
# so it is fast enough for a pre-commit hook.
lint-fix-check:
	$(GO) run ./cmd/eslint -check-annotations

lint: vet eslint lint-fix-check

# ci mirrors the GitHub Actions job, minus the tool installs.
ci: build lint test-short
