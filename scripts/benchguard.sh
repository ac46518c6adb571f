#!/bin/sh
# benchguard: fail when the current benchmark records regress against the
# previous PR's baseline. Compares ns_per_op for every benchmark name both
# files share (the burst-era BENCH_6.json overlaps BENCH_5.json on the
# fig2/ forwarding rows and the fiblookup/ ablation) and exits nonzero when
# any hot-path row slows down by more than the tolerance. Additionally
# gates the multicore burst experiment within the new file: the batched
# dataplane must sustain at least MINSPEED x the batch=1 packet rate at
# the highest GOMAXPROCS measured. Every gate runs and prints its verdict
# even after an earlier one failed; the exit status is nonzero if any did.
#
# Usage: scripts/benchguard.sh [new.json] [old.json] [tolerance-%] [min-speedup] [max-churn-jitter]
set -eu

NEW=${1:-BENCH_10.json}
OLD=${2:-BENCH_9.json}
TOL=${3:-15}
MINSPEED=${4:-1.5}

[ -f "$NEW" ] || { echo "benchguard: missing $NEW (run: go run ./cmd/dipbench -json $NEW)"; exit 1; }
[ -f "$OLD" ] || { echo "benchguard: missing baseline $OLD"; exit 1; }

# Flatten each JSON array to "name ns_per_op" lines. The records are written
# by cmd/dipbench with a fixed field order; parse with python3 for robustness
# (no jq in the image).
flatten() {
	python3 -c '
import json, sys
for r in json.load(open(sys.argv[1])):
    print(r["name"], r["ns_per_op"])
' "$1"
}

flatten "$NEW" | sort > /tmp/benchguard.new.$$
flatten "$OLD" | sort > /tmp/benchguard.old.$$
trap 'rm -f /tmp/benchguard.new.$$ /tmp/benchguard.old.$$' EXIT
fail=0

# Guard the forwarding hot path (Engine.Process under fig2/) and the FIB
# lookup ablation. The fig2 IPv4/IPv6 -baseline rows are raw ip.Forwarder
# comparators, not DIP code, and at 13-36ns they are too noise-prone to
# gate on; other experiments (mac, pisa, journey) are informational and
# change on purpose as features land.
join /tmp/benchguard.old.$$ /tmp/benchguard.new.$$ | awk -v tol="$TOL" '
$1 ~ /^(fig2|fiblookup)\// && $1 !~ /-baseline\// {
	old = $2; new = $3
	if (old <= 0) next
	delta = (new - old) * 100.0 / old
	printf "  %-32s %10.0fns -> %10.0fns  %+6.1f%%\n", $1, old, new, delta
	if (delta > tol) { bad = bad "\n  REGRESSION " $1 sprintf(" +%.1f%% (tolerance %s%%)", delta, tol) }
	n++
}
END {
	if (n == 0) { print "benchguard: no overlapping hot-path records"; exit 1 }
	if (bad != "") { print bad; exit 1 }
	printf "benchguard: %d hot-path rows within %s%%\n", n, tol
}' || fail=1

# Gate the batched dataplane's amortization claim (E18): at the highest
# GOMAXPROCS in the burst/ records, batch=64 must be at least MINSPEED
# times faster per packet than batch=1. Skipped when the new file predates
# the burst experiment (no burst/ rows).
python3 -c '
import json, sys
new, minspeed = sys.argv[1], float(sys.argv[2])
rows = {r["name"]: r["ns_per_op"] for r in json.load(open(new))
        if r["name"].startswith("burst/")}
if not rows:
    print("benchguard: no burst/ records in %s; skipping speedup gate" % new)
    sys.exit(0)
gmps = sorted({int(n.rsplit("gmp", 1)[1]) for n in rows})
top = gmps[-1]
b1, b64 = rows["burst/batch1/gmp%d" % top], rows["burst/batch64/gmp%d" % top]
speed = b1 / b64
print("benchguard: burst gmp%d  batch1 %.0fns / batch64 %.0fns = %.2fx (need >= %.2fx)"
      % (top, b1, b64, speed, minspeed))
sys.exit(0 if speed >= minspeed else 1)
' "$NEW" "$MINSPEED" || fail=1

# Gate the tiered content store's never-block claim (E20): the hot-tier hit
# latency must stay flat as the catalog sweeps past RAM capacity. The
# largest catalog's cstier/.../hotget row may not exceed the smallest
# catalog's by more than the tolerance — if cold-tier bookkeeping ever
# taxed the RAM fast path, this is where it would show. Skipped when the
# new file predates the cstier experiment.
python3 -c '
import json, sys
new, tol = sys.argv[1], float(sys.argv[2])
rows = {}
for r in json.load(open(new)):
    n = r["name"]
    if n.startswith("cstier/cat") and n.endswith("/hotget"):
        rows[int(n[len("cstier/cat"):-len("/hotget")])] = r["ns_per_op"]
if not rows:
    print("benchguard: no cstier/ records in %s; skipping tier gate" % new)
    sys.exit(0)
small, big = min(rows), max(rows)
base, top = rows[small], rows[big]
delta = (top - base) * 100.0 / base if base > 0 else 0.0
# These rows sit near the measurement noise floor (~tens of ns), so the
# percentage tolerance gets a 15ns absolute slack floor — the gate exists
# to catch the hot path picking up per-lookup cold-tier work (hundreds of
# ns of mutex/IO), not scheduler jitter.
limit = max(base * tol / 100.0, 15.0)
print("benchguard: cstier hot hit  cat%d %.0fns -> cat%d %.0fns  %+.1f%% (slack %.0fns)"
      % (small, base, big, top, delta, limit))
sys.exit(0 if top - base <= limit else 1)
' "$NEW" "$TOL" || fail=1

# Gate the control plane's churn claim (E21): lookups must not degrade
# while the FIB churns. The within-file ratio of storm p99 to quiescent
# p99 lookup latency is capped — the RCU design promises readers never
# block on writers, so churn-time jitter beyond a small multiple means a
# reader started paying for publication (a lock, a torn snapshot, GC
# pressure from unbatched COW garbage). The cap is deliberately loose
# (both p99s sit near the scheduler noise floor); the oracle inside the
# harness already hard-fails a desynchronized run before records are
# written. Skipped when the new file predates the churn experiment.
MAXJITTER=${5:-30}
python3 -c '
import json, sys
new, maxjitter = sys.argv[1], float(sys.argv[2])
rows = {r["name"]: r["ns_per_op"] for r in json.load(open(new))
        if r["name"].startswith("churn/")}
if not rows:
    print("benchguard: no churn/ records in %s; skipping churn gate" % new)
    sys.exit(0)
q, s = rows["churn/lookup/quiesce-p99"], rows["churn/lookup/storm-p99"]
ratio = s / q if q > 0 else 0.0
print("benchguard: churn lookup p99  quiesce %.0fns / storm %.0fns = %.2fx (cap %.0fx)"
      % (q, s, ratio, maxjitter))
sys.exit(0 if ratio <= maxjitter else 1)
' "$NEW" "$MAXJITTER" || fail=1

# Gate the in-band telemetry stamping claim (E22): an 8-slot F_tel stamp may
# cost at most TOL percent over the unstamped forwarding loop. The int/ rows
# come from the same dipbench run (same machine, same trial count), so the
# within-file ratio is noise-robust; the absolute ns live in the fig2 gate
# above. Skipped when the new file predates the int experiment.
python3 -c '
import json, sys
new, tol = sys.argv[1], float(sys.argv[2])
rows = {r["name"]: r["ns_per_op"] for r in json.load(open(new))
        if r["name"].startswith("int/")}
if not rows:
    print("benchguard: no int/ records in %s; skipping telemetry gate" % new)
    sys.exit(0)
plain, stamped = rows["int/unstamped"], rows["int/stamped8"]
overhead = (stamped - plain) * 100.0 / plain if plain > 0 else 0.0
print("benchguard: F_tel stamp  unstamped %.0fns / stamped8 %.0fns  %+.1f%% (tolerance %.0f%%)"
      % (plain, stamped, overhead, tol))
sys.exit(0 if overhead <= tol else 1)
' "$NEW" "$TOL" || fail=1

exit $fail
