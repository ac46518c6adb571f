GO ?= go

.PHONY: build test benchmodule check seamcheck reachcheck race vet fuzz soak bench benchrace metricssmoke journeysmoke intsmoke benchguard clean

build:
	$(GO) build ./...

# Fast tier-1 gate: what CI runs on every push. bench/ is a nested module
# that ./... does not reach, so it is vetted and tested by name: a facade
# rename that breaks the benchmark fails here, not at the next benchmark run.
test:
	$(GO) build ./... && $(GO) test ./...
	@$(MAKE) --no-print-directory benchmodule

benchmodule:
	$(GO) vet -C bench . && $(GO) test -C bench .

# go vet, and gofmt over the whole tree (bench/ included): a file gofmt
# would rewrite fails here rather than drifting in unnoticed.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "$$out"; echo "vet: gofmt -l lists the files above (run gofmt -w on them)"; exit 1; \
	fi

# core has one observer interface (Recorder) and one per-packet record
# (ExecContext.Obs); the five-interface seam it replaced must not grow back
# beside it. Nor may the per-packet heap traffic PR 19 removed: the content
# store links its entries by slab index (container/list stays in its test,
# as the model), and a cache reply is built in the context's own buffer.
# And one benchmark, one gate, one fetcher: the cross-run harness, its
# committed JSON records and their merge script, and the per-name host
# fetcher stay deleted. And one content store: the cold tier is part of
# cs.Store, so the tiered type, its constructors and the F_FIB/F_PIT
# variants built over it stay deleted (the brackets keep these lines from
# matching a repository-wide grep for the names). And one parse per packet:
# the engine dispatches from the triples ExecContext.Load decoded, and the
# router and host parse through Load, never ParseView and a second decode.
# And one way to build a router: outside internal/pit, internal/node and the
# dip.go constructors no program code sets a PIT lifetime, arms a PIT sweep
# or builds a router itself (set node.Spec.PITTTL and call node.Build). And
# one way to change a trie: copy-on-write only, no in-place mutators. And
# one packet sampler per router: trace.Recorder, built with its clock, hands
# its sealed records to the journey sink, so the separate journey tap, its
# Spec fields and the recorder's clock setter stay deleted, internal/router
# stays independent of internal/journey, and the hooks and single-value
# knobs nothing set stay deleted or constant. And observation at burst cost:
# every count comes from the forwarder's tally, folded once per burst, so
# the sampling decision charges no seen-counter per packet and
# Metrics.EndPacket adds no per-step count. And one clock per node: every
# instant the router-side packages stamp is an int64 read from one
# func() int64 (nil is core.Now, DESIGN.md §16), so none of them reads the
# wall clock itself, takes a time.Time or time.Duration clock, or builds
# F_tel through the second constructor.
CLOCKPKGS = node router guard pit cs trace journey extops bootstrap
seamcheck:
	@if grep -rnE 'PacketRecorder|BurstSampler|BurstPlan|TraceSink|SampleHint|SampleForce|SampleSkip|SampleAuto' --include=*.go .; then \
		echo "seamcheck: the old observation seam is back (see DESIGN.md §9)"; exit 1; \
	fi
	@if grep -rnE 'Ordinal *%' --include=*.go internal/core | grep -v _test.go; then \
		echo "seamcheck: the sampling decision divides again (use core.Every, DESIGN.md §9)"; exit 1; \
	fi
	@if grep -n '"container/list"' $$(ls internal/cs/*.go | grep -v _test.go); then \
		echo "seamcheck: internal/cs links entries by heap pointer again (DESIGN.md §8)"; exit 1; \
	fi
	@if sed -n '/^func (r \*Router) replyFromCache/,/^}/p' internal/router/router.go | grep -n 'make('; then \
		echo "seamcheck: replyFromCache allocates per hit again (build in ctx.Reply, DESIGN.md §8)"; exit 1; \
	fi
	@if ls -d cmd/dipbenc[h] BENCH_[0-9]*.json scripts/benchmerg[e]* 2>/dev/null | grep .; then \
		echo "seamcheck: the cross-run measurement system is back (gate within-run: make benchguard)"; exit 1; \
	fi
	@if grep -rnE 'NewFetche[r]|FetchConfi[g]' --include=*.go .; then \
		echo "seamcheck: a second fetcher is back (SegFetcher is the fetcher; one name = one segment)"; exit 1; \
	fi
	@if grep -rnE 'cs\.Tiere[d]|NewTiere[d]|NewSharde[d]|TieredStor[e]|NewTieredFI[B]|NewTieredPI[T]|NewGuardedPI[T]|NewGuardedTieredPI[T]|GetHo[t]' --include=*.go .; then \
		echo "seamcheck: a second content-store type or constructor is back (one cs.Store, cold tier by OpenCold: DESIGN.md §8)"; exit 1; \
	fi
	@if grep -n '\.FN(' internal/core/engine.go; then \
		echo "seamcheck: the engine decodes FN triples again (dispatch from the list Load decoded: DESIGN.md §5)"; exit 1; \
	fi
	@if grep -rn 'ParseView(' --include=*.go internal/router internal/host | grep -v _test.go; then \
		echo "seamcheck: the forwarding or host path parses outside ExecContext.Load (DESIGN.md §5)"; exit 1; \
	fi
	@if grep -rnE 'pit\.WithTT[L]|\.SweepEver[y]\(|router\.Ne[w]\(' --include=*.go . \
		| grep -v _test.go | grep -vE '^\./(internal/(pit|node)/|dip\.go:)'; then \
		echo "seamcheck: a router is wired outside node.Build (set node.Spec.PITTTL: DESIGN.md §16)"; exit 1; \
	fi
	@if grep -rnE 'func \(t \*BitTrie\[V\]\) (Inser[t]|Delet[e])\(' --include=*.go internal/lpm; then \
		echo "seamcheck: an in-place trie mutator is back (InsertCOW/DeleteCOW only: DESIGN.md §8)"; exit 1; \
	fi
	@if grep -rnE 'RouterTa[p]|JourneyEver[y]|JourneyRin[g]' --include=*.go . | grep -v _test.go; then \
		echo "seamcheck: a second per-packet sampler is back (one trace.Recorder with a journey sink: DESIGN.md §9)"; exit 1; \
	fi
	@if grep -rn 'SetClock(' --include=*.go internal/trace; then \
		echo "seamcheck: the trace recorder's clock is set after construction again (pass it to NewRecorder)"; exit 1; \
	fi
	@if grep -rnE 'OnQuarantin[e]|FreezeTrac[e]|JourneyStats fun[c]|DisableSignallin[g]|DispatchShard[s]' --include=*.go .; then \
		echo "seamcheck: an unwired hook or a one-value knob is back (DESIGN.md §10, §11)"; exit 1; \
	fi
	@if sed -n '/^func (c \*ExecContext) SampleEvery/,/^}/p' internal/core/context.go | grep -n 'Add('; then \
		echo "seamcheck: the sampling decision charges a seen-counter again (charge it in Fold from Tally.Packets: DESIGN.md §9)"; exit 1; \
	fi
	@if sed -n '/^func (m \*Metrics) EndPacket/,/^}/p' internal/telemetry/telemetry.go | grep -nE 'count\.Add|Add\(1\)'; then \
		echo "seamcheck: Metrics.EndPacket counts steps one atomic add at a time again (counts fold from the tally: DESIGN.md §9)"; exit 1; \
	fi
	@if $(GO) list -deps ./internal/router | grep -x 'dip/internal/journe[y]'; then \
		echo "seamcheck: internal/router depends on internal/journey (the sampler hands records to a sink)"; exit 1; \
	fi
	@if for d in $(CLOCKPKGS); do ls internal/$$d/*.go; done | grep -v _test.go | xargs grep -nE 'time\.(Now|Since)\('; then \
		echo "seamcheck: a router-side package reads the wall clock itself (take the node's clock; nil is core.Now: DESIGN.md §16)"; exit 1; \
	fi
	@if for d in $(CLOCKPKGS); do ls internal/$$d/*.go; done | grep -v _test.go | xargs grep -nE 'func\(\) time\.(Time|Duration)'; then \
		echo "seamcheck: a time.Time or time.Duration clock is back (instants are int64 ns from one func() int64: DESIGN.md §16)"; exit 1; \
	fi
	@if grep -rn 'NewTelWit[h]' --include=*.go .; then \
		echo "seamcheck: a second F_tel constructor is back (extops.NewTel(TelConfig) is the one)"; exit 1; \
	fi

# Every function outside the main packages is linked into a program (the
# cmd/ and examples/ mains and the bench module, built without inlining) or
# named in scripts/reachcheck/allow.txt with the E-row or paper section it
# serves; an allowlist line that keeps nothing fails too.
reachcheck:
	$(GO) run ./scripts/reachcheck

race:
	$(GO) test -race ./...

# Full pre-merge gate: static analysis, the reachability gate, the race
# detector (which runs every test, E19's fleet and E21's churn oracle
# included), the nested bench
# module, a race-mode smoke of the parallel hot-path benchmarks, a fuzz
# smoke sweep over every fuzz target, a live scrape of the metrics endpoint,
# the journey and in-band telemetry smokes (diptopo digest summary + live
# dip_int_* scrape), and the within-run benchmark gate.
check: vet seamcheck reachcheck race benchmodule benchrace fuzz metricssmoke journeysmoke intsmoke benchguard

# Short benchstat-friendly run of the forwarding hot-path benchmarks
# (compare runs with: make bench > old.txt; ...; make bench > new.txt;
# benchstat old.txt new.txt). Longer runs: make bench BENCHTIME=2s.
BENCHTIME ?= 100ms
bench:
	$(GO) test -run '^$$' -bench 'FIBLookup|FIBTxnCommit|ShardedPIT|PITSequential' \
		-benchtime $(BENCHTIME) -count 5 ./internal/fib/ ./internal/pit/
	$(GO) test -run '^$$' -bench 'Sum|Store' \
		-benchtime $(BENCHTIME) -count 5 ./internal/crypto2em/ ./internal/cs/
	$(GO) test -run '^$$' -bench 'Fig2|Ablation_FIBScale|ZeroAlloc|Observed|SubmitBurst|OPTHop' \
		-benchtime $(BENCHTIME) -count 5 .

# Race-mode smoke of the concurrent benchmarks: a handful of iterations is
# enough for the detector to see lock-free lookups racing route churn and
# sharded tables racing each other.
benchrace:
	$(GO) test -race -run '^$$' -bench 'FIBLookupParallel|ShardedPITParallel' \
		-benchtime 50x -count 1 ./internal/fib/ ./internal/pit/

# Smoke sweep over every fuzz target in the tree, discovered with `go test
# -list` so new fuzzers join automatically (longer runs: make fuzz
# FUZZTIME=5m).
FUZZTIME ?= 5s
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "== fuzz $$pkg $$f ($(FUZZTIME))"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME); \
		done; \
	done

# Metrics-endpoint smoke: boot a real diprouter with the observability
# listener, push traffic through it with diphost (one routable packet, one
# no-route drop), scrape /metrics, validate the Prometheus text grammar,
# check the key series exist, check -trace-every alone serves spans on
# /journeys, and make sure pprof answers. Then run a
# congestion-controlled fetch against the router (whose interests have no
# NDN route, so they retransmit and dead-letter) and assert the fetcher's
# own dip_fetch_* series are present and counting.
METRICS_PORT ?= 17490
FETCH_METRICS_PORT ?= 17491
metricssmoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$pid $$fpid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/diprouter ./cmd/diprouter; \
	$(GO) build -o $$tmp/diphost ./cmd/diphost; \
	$$tmp/diprouter -listen 127.0.0.1:17400 -peer 127.0.0.1:17401 \
		-route32 10.0.0.0/8=0 -cache 16 \
		-metrics-addr 127.0.0.1:$(METRICS_PORT) -trace-every 1 \
		>$$tmp/router.log 2>&1 & pid=$$!; \
	sleep 1; \
	$$tmp/diphost -mode send -proto ipv4 -src 1.1.1.1 -dst 10.0.0.9 \
		-to 127.0.0.1:17400 -payload smoke >/dev/null; \
	$$tmp/diphost -mode send -proto ipv4 -src 1.1.1.1 -dst 99.9.9.9 \
		-to 127.0.0.1:17400 >/dev/null; \
	sleep 0.3; \
	curl -sf http://127.0.0.1:$(METRICS_PORT)/metrics > $$tmp/scrape; \
	awk '!/^#/ && !/^$$/ && $$0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$$/ \
		{ print "bad exposition line: " $$0; bad=1 } END { exit bad }' $$tmp/scrape; \
	for s in 'dip_packets_received_total' 'dip_packets_total{.*verdict="forward"' \
		'dip_drops_total{.*reason="no-route"' 'dip_op_latency_ns_bucket{.*op="F_32_match".*le=' \
		'dip_pit_entries' 'dip_cs_entries' 'dip_trace_sampled_total' 'dip_journey_spans_total'; do \
		grep -q "^$$s" $$tmp/scrape || { echo "missing series $$s"; cat $$tmp/scrape; exit 1; }; \
	done; \
	curl -sf http://127.0.0.1:$(METRICS_PORT)/trace >/dev/null; \
	curl -sf http://127.0.0.1:$(METRICS_PORT)/journeys | grep -q '^# span ' \
		|| { echo "-trace-every served no spans on /journeys"; exit 1; }; \
	curl -sf http://127.0.0.1:$(METRICS_PORT)/debug/pprof/ >/dev/null; \
	$$tmp/diphost -mode fetch -name 0xAA000001 -segs 2 -maxretx 2 -init-rto 100ms \
		-to 127.0.0.1:17400 -listen 127.0.0.1:17402 \
		-metrics-addr 127.0.0.1:$(FETCH_METRICS_PORT) -linger 10s \
		>$$tmp/fetch.log 2>&1 & fpid=$$!; \
	sleep 2; \
	curl -sf http://127.0.0.1:$(FETCH_METRICS_PORT)/metrics > $$tmp/fetchscrape; \
	awk '!/^#/ && !/^$$/ && $$0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$$/ \
		{ print "bad exposition line: " $$0; bad=1 } END { exit bad }' $$tmp/fetchscrape; \
	for s in 'dip_fetch_pending' 'dip_fetch_completed_total' 'dip_fetch_cwnd{' \
		'dip_fetch_rto_ns' 'dip_fetch_cwnd_cuts_total'; do \
		grep -q "^$$s" $$tmp/fetchscrape || { echo "missing series $$s"; cat $$tmp/fetchscrape; exit 1; }; \
	done; \
	for s in 'dip_fetch_retransmits_total' 'dip_fetch_deadletter_total'; do \
		grep "^$$s" $$tmp/fetchscrape | awk '{ exit !($$NF > 0) }' \
			|| { echo "series $$s never counted"; cat $$tmp/fetchscrape; exit 1; }; \
	done; \
	echo "metricssmoke: exposition valid, key series present, fetch counters live, pprof live"

# Journey-stitching smoke: run the canned 3-hop scenario with journey
# tracing on and check the collector stitched at least one complete journey
# that crossed all three routers, end to end, with the expected hop count.
journeysmoke:
	@set -e; \
	out=$$($(GO) run ./cmd/diptopo -q -journeys testdata/journey3hop.topo); \
	echo "$$out" | grep -q 'routers=3 complete=true' \
		|| { echo "journeysmoke: no complete 3-router journey"; echo "$$out"; exit 1; }; \
	n=$$(echo "$$out" | grep -c 'routers=3 complete=true'); \
	echo "journeysmoke: $$n complete 3-hop journeys stitched"

# In-band telemetry smoke: a diptopo run of the int= scenario checking the
# collector summary and the per-link heatmap render, then a live diprouter
# with -int-every: a telemetry-stamped packet is pushed through it (diphost
# -tel) and the scrape must carry the dip_int_* families plus a counting
# F_tel op series.
INT_METRICS_PORT ?= 17492
intsmoke:
	@set -e; out=$$($(GO) run ./cmd/diptopo -q testdata/int3hop.topo); \
	echo "$$out" | grep -q 'in-band telemetry: postcards=5 overflows=0 flows=3 changes=0 loops=0' \
		|| { echo "intsmoke: collector summary wrong"; echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q 'link latency heatmap' \
		|| { echo "intsmoke: no heatmap"; echo "$$out"; exit 1; }; \
	echo "intsmoke: digests match, heatmap rendered"
	@set -e; \
	tmp=$$(mktemp -d); trap 'kill $$pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/diprouter ./cmd/diprouter; \
	$(GO) build -o $$tmp/diphost ./cmd/diphost; \
	$$tmp/diprouter -listen 127.0.0.1:17410 -peer 127.0.0.1:17411 \
		-route32 10.0.0.0/8=0 -int-every 1 -int-slots 8 \
		-metrics-addr 127.0.0.1:$(INT_METRICS_PORT) \
		>$$tmp/router.log 2>&1 & pid=$$!; \
	sleep 1; \
	$$tmp/diphost -mode send -proto ipv4 -src 1.1.1.1 -dst 10.0.0.9 \
		-to 127.0.0.1:17410 -tel 8 -payload intsmoke >/dev/null; \
	sleep 0.3; \
	curl -sf http://127.0.0.1:$(INT_METRICS_PORT)/metrics > $$tmp/scrape; \
	for s in 'dip_int_postcards_total' 'dip_int_path_changes_total' \
		'dip_int_loops_total' 'dip_int_expected_mismatch_total'; do \
		grep -q "^$$s" $$tmp/scrape || { echo "missing series $$s"; cat $$tmp/scrape; exit 1; }; \
	done; \
	grep '^dip_op_latency_ns_count{.*op="F_tel"' $$tmp/scrape | awk '{ exit !($$NF > 0) }' \
		|| { echo "F_tel never executed on the live router"; cat $$tmp/scrape; exit 1; }; \
	echo "intsmoke: dip_int_* families live, F_tel stamping on the wire path"

# The five standing system claims (EXPERIMENTS.md E17, E18, E20, E21, E22)
# as within-run testing.B pairs: one benchmark run, five rounds, and
# scripts/benchguard.awk checks the median of each pair against its named
# constant. Nothing is compared with a committed file or an earlier run.
benchguard:
	@set -e; out=$$(mktemp); trap 'rm -f $$out' EXIT; \
	$(GO) test -run '^$$' -bench '^Benchmark(BurstBatch|TelStamp|ObservedBurst|TieredHotHit|ChurnJitter)$$' \
		-count 5 . ./internal/cs/ ./internal/churn/ >$$out 2>&1 || { cat $$out; exit 1; }; \
	cat $$out; awk -f scripts/benchguard.awk $$out

# Long-running soak and heavy-chaos tests are skipped under -short; this
# target runs everything, including them.
soak:
	$(GO) test -race -count=1 ./...

clean:
	$(GO) clean ./...
