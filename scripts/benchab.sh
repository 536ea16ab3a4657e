#!/usr/bin/env bash
# benchab.sh <parent-root> <change-root>
#
# The benchmark as a paired A/B on one machine. Both trees must carry the
# same benchmark (benchmark/ apart from its out/, and BENCHMARK.json). For
# every workload BENCHMARK.json lists, five pairs of fresh
# `benchmark/run.sh --workload W` processes run, one per side: the parent
# first in odd pairs, the change first in even ones, so a drifting machine
# favours neither side.
#
# A workload fails when a change run is incorrect or fails more points than
# its parent partner. An end-to-end metric fails only when the change reads
# worse in every pair AND its median is worse than the parent's median by
# more than the metric's bound (a share of the parent's value, as the
# benchmark reads it). One line per (workload, metric); exit 1 on any FAIL.
set -u

if [ $# -ne 2 ] || [ ! -f "$1/BENCHMARK.json" ] || [ ! -f "$2/BENCHMARK.json" ]; then
	echo "usage: $0 <parent-root> <change-root>" >&2
	exit 2
fi
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd)
if ! diff -rq -x out "$parent/benchmark" "$change/benchmark" >/dev/null ||
	! cmp -s "$parent/BENCHMARK.json" "$change/BENCHMARK.json"; then
	echo "benchab: the trees' benchmark/ or BENCHMARK.json differ; their numbers do not compare" >&2
	exit 2
fi

pairs=5
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run <parent|change> <workload> <pair>: one fresh process; its result line
# is kept. A run that prints none stands in as incorrect with zero readings,
# which fails its workload before any reading is compared.
run() {
	local root=$parent out=$tmp/$2.$1.$3
	[ "$1" = change ] && root=$change
	(cd "$root" && bash benchmark/run.sh --workload "$2" --seed 1 --seconds 0 --trace 0) | tail -n 1 >"$out"
	jq -e 'has("metrics")' "$out" >/dev/null 2>&1 || echo '{"correct":false,"failed":0,"metrics":{}}' >"$out"
}

compare='def median: sort | if length % 2 == 1 then .[length / 2 | floor] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
[range($p | length)] as $ix
| ([$ix[] | select($c[.].correct != true or $c[.].failed > $p[.].failed)] | length) as $bad
| [$w, "correct", "-", "-", "-", "\($bad)/\($ix | length)", "-", (if $bad > 0 then "FAIL" else "ok" end)],
  ($spec.end_to_end[] as $m
   | (if $m.better == "lower" then 1 else -1 end) as $s
   | [$ix[] | [$p[.], $c[.]] | map(.metrics[$m.name].value // 0)] as $xy
   | ([$xy[] | select((.[1] - .[0]) * $s > 0)] | length) as $worse
   | ([$xy[][0]] | median) as $pm | ([$xy[][1]] | median) as $cm
   | [$w, $m.name, $pm, $cm, (if $pm != 0 then $cm / $pm else "-" end), "\($worse)/\($ix | length)", $m.bound,
      (if $worse == ($ix | length) and ($cm - $pm) * $s > $m.bound * ($pm | fabs) then "FAIL" else "ok" end)])
| @tsv'
format='function n(x, f) { return x == "-" ? x : sprintf(f, x) }
{ printf "%-17s %-17s %12s %12s %7s %5s %5s %s\n", $1, $2, n($3, "%.6g"), n($4, "%.6g"), n($5, "%.3f"), $6, $7, $8 }'

printf '%-17s %-17s %12s %12s %7s %5s %5s %s\n' workload metric parent change ratio worse bound verdict
for w in $(jq -r '.workloads[].name' "$change/BENCHMARK.json"); do
	for i in $(seq "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then run parent "$w" "$i" && run change "$w" "$i"; else run change "$w" "$i" && run parent "$w" "$i"; fi
	done
	jq -rn --arg w "$w" --slurpfile p <(cat "$tmp/$w".parent.*) --slurpfile c <(cat "$tmp/$w".change.*) \
		--argjson spec "$(cat "$change/BENCHMARK.json")" "$compare" | awk -F '\t' "$format" | tee -a "$tmp/report"
done
echo "benchab: $pairs pairs per workload in ${SECONDS}s"
! grep -q ' FAIL$' "$tmp/report"
