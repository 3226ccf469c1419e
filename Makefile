GO ?= go

# Pinned govulncheck version: install with
#   go install golang.org/x/vuln/cmd/govulncheck@v1.1.4
# The vulncheck target skips (with a notice) when the binary is not
# installed, so `make check` stays green on offline builders.
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race vet lint vulncheck check bench explain-smoke chaos-smoke cluster-smoke trace-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet -all ./...

# lint runs nimble-lint, the repo's own invariant checkers (span
# lifecycle, operator close discipline, ctx-before-fanout, guarded-by
# annotations, lock-order cycles, admission-slot leaks, SQL taint).
# See internal/analysis and `go run ./cmd/nimble-lint -list`.
lint:
	$(GO) run ./cmd/nimble-lint ./...

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || exit 1; \
	else \
		echo "vulncheck: govulncheck not installed; skipping" ; \
		echo "vulncheck: install with: go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)" ; \
	fi

race:
	$(GO) test -race ./...

# check is the full gate: go vet, the nimble-lint invariant suite, the
# race-enabled tests (includes the dedicated concurrency tests in
# internal/obs and internal/server), and a vulnerability scan when the
# tooling is available.
check: vet lint race vulncheck

bench:
	$(GO) test -bench=. -benchmem ./...

# chaos-smoke runs the extended fault-injection soak (1000 mixed
# queries per seed under a seeded fault schedule, each seed replayed
# twice with byte-identical-report verification) plus the short soak.
# See DESIGN.md §8 for the methodology.
chaos-smoke:
	$(GO) test -tags soak -run 'TestChaosSoak' -count=1 -v .

# cluster-smoke runs the cluster front end end to end under every
# routing policy: a chaos-faulted instance is ejected by health probes,
# traffic keeps flowing with zero failures, the instance is readmitted
# after recovery, and a drained instance leaves gracefully. Plus the
# -race storm over queries, probes, drains, and inspector reads.
cluster-smoke:
	$(GO) test -run 'TestClusterSmoke' -count=1 -v ./internal/cluster
	$(GO) test -race -run 'TestClusterStorm' -count=1 ./internal/cluster

# trace-smoke drives a chaos-faulted query through the full stack
# (HTTP front end -> cluster -> engine -> per-attempt fetch) and
# asserts one tail-kept trace links every tier under a single TraceID,
# that the id appears on the slow log, structured log lines, exporter
# batches, and histogram exemplars, and that a fixed TraceSeed keeps a
# deterministic trace set. Plus the -race pass over internal/obs.
trace-smoke:
	$(GO) test -run 'TestTraceSmokeEndToEnd|TestKeptTraceSetDeterministic' -count=1 -v .
	$(GO) test -race -count=1 ./internal/obs

# explain-smoke runs one federated two-source query through
# `nimble-cli -explain` and asserts the EXPLAIN ANALYZE operator tree
# renders with the expected nodes (join, pattern match, per-source fetch
# attribution). A second, point-join query must push its constant across
# the join into the crmdb fragment as WHERE (id = 4).
explain-smoke:
	@out=$$($(GO) run ./cmd/nimble-cli -customers 20 -explain \
		'WHERE <cust><cid>$$i</cid><who>$$w</who></cust> IN "customers", <ticket><cust>$$i</cust><issue>$$s</issue></ticket> IN "tickets" CONSTRUCT <r><who>$$w</who><issue>$$s</issue></r>'); \
	for want in 'HashJoin' 'Match \[fetch tickets' 'Fetch \[crmdb' 'Fetch \[tickets' 'Query \[rewrites=' 'time=' 'out='; do \
		echo "$$out" | grep -q "$$want" || { echo "explain-smoke: missing $$want in output:"; echo "$$out"; exit 1; }; \
	done; \
	out=$$($(GO) run ./cmd/nimble-cli -customers 20 -explain \
		'WHERE <cust><cid>$$i</cid><who>$$w</who></cust> IN "customers", <ticket><cust>$$i</cust><issue>$$s</issue></ticket> IN "tickets", $$i = 4 CONSTRUCT <r><who>$$w</who><issue>$$s</issue></r>'); \
	for want in 'HashJoin' 'pushdown crmdb: SELECT .* FROM customers WHERE (id = 4)'; do \
		echo "$$out" | grep -q "$$want" || { echo "explain-smoke: point join: missing $$want in output:"; echo "$$out"; exit 1; }; \
	done; \
	echo "explain-smoke: OK"
