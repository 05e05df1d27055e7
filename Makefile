# Convenience targets for the WebFINDIT reproduction. Everything is plain
# go tooling; the targets only bundle the invocations CI and EXPERIMENTS.md
# rely on.

GO ?= go

.PHONY: verify race stress-cursors bench test build vet ci fmt-check cover cover-check bench-smoke chaos sim sim-scale fuzz-smoke lint

# COVER_FLOOR is the coverage ratchet: verify fails below this total.
# Raise it when coverage grows; never lower it (PR-2 baseline was 74.3%,
# PR-6 measured 78.0%, PR-7 measured 78.2%, PR-9 measured 78.4%, PR-10
# measured 79.1%).
COVER_FLOOR = 79.0

# verify is the tier-1 gate: build + vet + full test suite.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

# ci mirrors .github/workflows/ci.yml: formatting gate, tier-1 verify,
# race detector (with the cursor stress), chaos suite, simulation suite,
# coverage ratchet, fuzz smoke, and a one-iteration benchmark smoke.
ci: fmt-check verify race stress-cursors chaos sim cover-check fuzz-smoke bench-smoke

# chaos runs the fault-injection suites (injected connect failures, latency,
# drops and resets; retry/breaker behaviour; partial-result degradation)
# under the race detector — both the simnet ports and the socket smokes.
chaos:
	$(GO) test -race -run 'Chaos' ./internal/orb ./internal/query

# sim runs the deterministic simulation suite under the race detector: the
# simnet transport tests and the model-based federation test over its fixed
# seed matrix. Replay one failing seed with:
#   go test ./internal/simtest -run TestModelAgainstOracle -simnet.seed=N
sim:
	$(GO) test -race ./internal/simnet ./internal/simtest

# sim-scale runs the large-topology gossip scenarios on their own, verbosely
# and under the race detector: the 300-node convergence proof (cold start and
# one-mutation dissemination in O(log N) rounds, message count below the flat
# fan-out baseline), the gossip determinism replay, and representative
# re-election. Replay one failing seed with:
#   go test ./internal/simtest -run TestGossipConvergence300 -simnet.seed=N
sim-scale:
	$(GO) test -race -v -run 'TestGossipConvergence300|TestGossipDeterministicReplay|TestGossipRepresentativeReelection|TestDifferentialHierarchy' ./internal/simtest

# fuzz-smoke runs every fuzz target briefly: enough to catch regressions on
# the checked-in corpus plus a short random walk, without a full campaign.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzGIOPRoundTrip -fuzztime=5s ./internal/giop
	$(GO) test -run='^$$' -fuzz=FuzzGIOPRead -fuzztime=5s ./internal/giop
	$(GO) test -run='^$$' -fuzz=FuzzGIOPFragment -fuzztime=5s ./internal/giop
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalAny -fuzztime=5s ./internal/idl
	$(GO) test -run='^$$' -fuzz=FuzzPageDecode -fuzztime=5s ./internal/gateway
	$(GO) test -run='^$$' -fuzz=FuzzWTLParse -fuzztime=5s ./internal/wtl
	$(GO) test -run='^$$' -fuzz=FuzzSQLParse -fuzztime=5s ./internal/relational
	$(GO) test -run='^$$' -fuzz=FuzzGossipDelta -fuzztime=5s ./internal/gossip

# fmt-check fails if any file needs gofmt (CI's formatting gate).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# cover writes an aggregate coverage profile (uploaded as a CI artifact);
# the recorded baseline total lives in EXPERIMENTS.md.
cover:
	$(GO) test -coverprofile=coverage.out ./...

# cover-check is the ratchet: fail CI when total coverage drops below
# COVER_FLOOR.
cover-check: cover
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor" >&2; exit 1; }

# bench-smoke runs every benchmark exactly once: cheap insurance that
# benchmark setup code still works, without a full measurement run.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# race runs the full suite under the race detector (the multiplexed IIOP
# layer and the parallel coalition fan-out are exercised concurrently).
race:
	$(GO) test -race ./...

# stress-cursors repeats the cursor, stream and iterator tests twenty times
# under the race detector. A cursor's lifetime spans engine state, the idle
# reaper and concurrent writers, so its tests are the ones a single pass is
# least likely to catch misbehaving.
stress-cursors:
	$(GO) test -race -count=20 -run 'Cursor|Stream|Iter' ./internal/cursor ./internal/gateway ./internal/relational ./internal/oodb ./internal/query

# bench runs fedbench, the repository's benchmark (BENCHMARK.json, bench/):
# every workload, end-to-end and per-layer metrics.
bench:
	bash bench/run.sh

# lint mirrors CI's lint job: vet always, then staticcheck and govulncheck
# pinned by version. Both tools are fetched with `go run`; when the module
# proxy is unreachable (offline/sandboxed runs) they are skipped with a
# notice rather than failing the build, so `make lint` is safe everywhere
# and strict where it matters (CI).
STATICCHECK = honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK = golang.org/x/vuln/cmd/govulncheck@v1.1.4
lint: vet
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./... ; \
	else \
		echo "lint: staticcheck unavailable (no module proxy access); skipped" >&2 ; \
	fi
	@if $(GO) run $(GOVULNCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(GOVULNCHECK) ./... ; \
	else \
		echo "lint: govulncheck unavailable (no module proxy access); skipped" >&2 ; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...
