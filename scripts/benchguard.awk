# benchguard: the five standing system claims of EXPERIMENTS.md, each a
# within-run testing.B pair from one `go test -bench -count 5` run (make
# benchguard), checked on the median over the rounds. Both sides of every
# pair come from the same run on the same machine; nothing is compared
# against a committed file. The limits are constants, named in
# EXPERIMENTS.md, not parameters.
BEGIN {
	MIN_BURST_SPEEDUP = 1.5 # E18: batch1 ns / batch64 ns, at least
	CSTIER_SLACK_PCT = 15   # E20: catalog65536 − catalog2048 ns, at most
	CSTIER_SLACK_NS = 15    #      max(PCT % of catalog2048, NS)
	MAX_CHURN_JITTER = 30   # E21: storm p99 / quiescent p99, at most
	MAX_TEL_RATIO = 2.15    # E22: stamped8 ns / unstamped ns, at most
	MAX_OBS_RATIO = 1.15    # E17: observed ns / unobserved ns on the burst path, at most
}
/^(FAIL|--- FAIL)/ { bad = 1 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 3; i < NF; i += 2)
		v[name, $(i + 1), ++n[name, $(i + 1)]] = $i
}
function median(r, m, i, j, t) {
	for (i = 2; i <= m; i++)
		for (j = i; j > 1 && r[j - 1] > r[j]; j--) {
			t = r[j]; r[j] = r[j - 1]; r[j - 1] = t
		}
	return m % 2 ? r[(m + 1) / 2] : (r[m / 2] + r[m / 2 + 1]) / 2
}
# pair is the median over rounds of a/b (or a−b with diff set); with b
# empty, the median of a itself.
function pair(a, b, unit, diff, i, m, r) {
	m = n[a, unit]
	if (m == 0 || (b != "" && n[b, unit] != m)) {
		printf "benchguard: no %s rows for %s %s\n", unit, a, b
		bad = 1
		return 0
	}
	for (i = 1; i <= m; i++)
		r[i] = b == "" ? v[a, unit, i] : diff ? v[a, unit, i] - v[b, unit, i] : v[a, unit, i] / v[b, unit, i]
	return median(r, m)
}
function check(label, got, op, limit, ok) {
	ok = op == "<=" ? got <= limit : got >= limit
	printf "benchguard: %-34s %9.3f  (need %s %g)  %s\n", label, got, op, limit, ok ? "ok" : "FAIL"
	if (!ok)
		bad = 1
}
END {
	check("E18 burst batch1/batch64", pair("BenchmarkBurstBatch/batch1", "BenchmarkBurstBatch/batch64", "ns/op"), ">=", MIN_BURST_SPEEDUP)
	base = pair("BenchmarkTieredHotHit/catalog2048", "", "ns/op")
	slack = base * CSTIER_SLACK_PCT / 100 > CSTIER_SLACK_NS ? base * CSTIER_SLACK_PCT / 100 : CSTIER_SLACK_NS
	check("E20 cstier hot hit 65536−2048 ns", pair("BenchmarkTieredHotHit/catalog65536", "BenchmarkTieredHotHit/catalog2048", "ns/op", 1), "<=", slack)
	check("E21 churn storm/quiesce p99", pair("BenchmarkChurnJitter", "", "storm/quiesce-p99"), "<=", MAX_CHURN_JITTER)
	check("E22 F_tel stamped8/unstamped", pair("BenchmarkTelStamp", "", "stamped8/unstamped"), "<=", MAX_TEL_RATIO)
	check("E17 observed burst full/off", pair("BenchmarkObservedBurst", "", "full/off"), "<=", MAX_OBS_RATIO)
	exit bad
}
