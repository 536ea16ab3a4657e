#!/usr/bin/env bash
# parentdiff.sh <parent-dragonsim> <change-dragonsim>
#
# "Bit-identical to the previous binary" as a command: runs one fixed
# scenario list through two dragonsim binaries and cmp's their -json output
# scenario by scenario. Any difference fails, so a change that means to
# alter results must bump engine.ResultsVersion (the CI parent-diff job
# skips itself exactly then).
#
# The list leans on what pure refactors break silently: fault events of
# every kind (seeded fractions, timed router outages, a group blackout, a
# local segment, link repairs landing under a dead router, flaps) under a
# fresh and a stale routing view, for every paper mechanism, under steady
# load and under finite burst phases — plus pristine VCT/WH steady runs,
# saturated runs of Piggybacking and OFAR (the congestion-table publish and
# the escape-ring claim), saturated h=8 OLM and Valiant runs, a burst, a
# phased run and a serial/3-worker pair.
set -u

if [ $# -ne 2 ] || [ ! -x "$1" ] || [ ! -x "$2" ]; then
	echo "usage: $0 <parent-dragonsim> <change-dragonsim>" >&2
	exit 2
fi
parent=$1 change=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

total=0 failed=0
# check <dragonsim args...>: one scenario through both binaries.
check() {
	total=$((total + 1))
	"$parent" "$@" -json >"$tmp/parent.json" 2>"$tmp/parent.err"
	pst=$?
	"$change" "$@" -json >"$tmp/change.json" 2>"$tmp/change.err"
	cst=$?
	if [ $pst -ne 0 ] || [ $cst -ne 0 ]; then
		# A scenario neither binary can run compares nothing.
		echo "FAIL (exit $pst/$cst): $*" >&2
		cat "$tmp/parent.err" "$tmp/change.err" >&2
		failed=$((failed + 1))
	elif ! cmp -s "$tmp/parent.json" "$tmp/change.json"; then
		echo "DIFF: $*" >&2
		diff "$tmp/parent.json" "$tmp/change.json" | head -n 20 >&2
		failed=$((failed + 1))
	fi
}

# h=3: 19 groups of 6 routers (group g = routers 6g..6g+5), ports 0-4 local,
# 5-7 global. Every outage ends, or starts, inside the 3,000 simulated cycles.
specs=(
	# seeded global faults, a timed router outage with a link repair landing
	# under it, a flapping global channel
	"g=0.05;router=5@1000-2500;repair@1500=r5p0;flap@800+300/100x6=g0-2"
	# both seeded classes, a timed group blackout with a local and a global
	# repair landing under its dead routers, a timed local segment
	"g=0.05;l=0.05;grp=4@1200-2600;grp=2:1-3@600-2000;kill@900=r24p0;repair@1800=r24p0;kill@900=g4-7;repair@1800=g4-7"
	# a router dead from boot, a second timed outage, a killed and repaired
	# channel, a flapping local link and a flapping channel
	"l=0.1;router=7;router=40@500-1800;kill@600=g3-9;repair@2200=g3-9;flap@400+250/120x8=l6:0-3;flap@1000+400/50x4=g1-12"
)
for mech in Minimal Valiant PiggyBacking PAR-6/2 RLM OLM OFAR; do
	for stale in 0 300; do
		for spec in "${specs[@]}"; do
			check -h 3 -mech "$mech" -faults "$spec" -stale "$stale" \
				-load 0.3 -warmup 500 -measure 2500 -window 500
			check -h 3 -mech "$mech" -faults "$spec" -stale "$stale" \
				-phases "UN@20bx1000,ADVG+3@20bx1000,UN@20b"
		done
	done
done

# Pristine networks: the paths a fault refactor must not touch.
check -h 3 -mech OLM -flow VCT -traffic ADVG -offset 3 -load 0.4 -warmup 500 -measure 2000
check -h 3 -mech RLM -flow WH -load 0.3 -warmup 500 -measure 2000
check -h 3 -mech PiggyBacking -burst 30
check -h 3 -mech PiggyBacking -traffic ADVG -offset 3 -load 1.0 -warmup 500 -measure 3000
check -h 3 -mech PiggyBacking -flow WH -load 0.8 -warmup 500 -measure 3000
check -h 3 -mech OFAR -traffic ADVL -offset 1 -load 1.0 -warmup 500 -measure 3000
check -h 3 -mech PAR-6/2 -phases "UN@0.3x1500,ADVG+3@0.3" -warmup 500 -measure 2500 -window 250
# h=8, saturated: router ids past 2^11 and group ids past the int8 range,
# on the adaptive path and on the oblivious source-routed one.
check -h 8 -mech OLM -traffic ADVG -offset 1 -load 1.0 -warmup 100 -measure 300 -workers 2
check -h 8 -mech Valiant -load 1.0 -warmup 100 -measure 300
for workers in 1 3; do
	check -h 4 -mech OLM -load 0.3 -warmup 300 -measure 900 -workers "$workers" \
		-faults "g=0.05;router=9@400-900;flap@500+200/80x3=g0-4" -stale 150
done

echo "parentdiff: $((total - failed))/$total scenarios byte-identical"
[ "$failed" -eq 0 ]
