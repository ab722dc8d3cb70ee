#!/usr/bin/env bash
# Alternating pairs: runs two builds of the benchmark against each other
# and reports one metric the way EXPERIMENTS.md states a claim — each
# side's median and quartiles, and in how many pairs B read lower than A
# (ties count for neither side).
#
#   scripts/ab.sh A_BINARY B_BINARY --workload mw-churn --pairs 10 \
#       --seeds "621 622 623" [--setup-only | --seconds 20] [--metric setup_s] \
#       [--logs DIR] [--smoke]
#
# Pair i uses seed i of the list (round robin); odd pairs run A first,
# even pairs B first. `--setup-only` times set-up alone (one number per
# run); otherwise each run is one untraced pass of `--seconds S` and the
# metric is read from its result line. Lower is taken as better, as it
# is for both end-to-end metrics. Each run's output is kept in `--logs`
# (default: a new temporary directory), printed at the end. `--smoke`
# passes the benchmark's own `--smoke` (1/1000 of the work): a check
# that the script runs, not a measurement.
set -euo pipefail

usage() {
    sed -n '2,20p' "$0" >&2
    exit 2
}

[[ $# -ge 2 ]] || usage
a=$1
b=$2
shift 2
workload=mw-churn
pairs=10
seeds=1
mode=setup
seconds=20
metric=setup_s
logs=
smoke=()
while [[ $# -gt 0 ]]; do
    case $1 in
    --workload) workload=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    --seeds) seeds=$2; shift 2 ;;
    --setup-only) mode=setup; shift ;;
    --seconds) mode=pass; seconds=$2; shift 2 ;;
    --metric) metric=$2; shift 2 ;;
    --logs) logs=$2; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    *) usage ;;
    esac
done
for bin in "$a" "$b"; do
    [[ -x $bin ]] || { echo "ab.sh: $bin is not an executable" >&2; exit 2; }
done
if [[ $mode == setup && $metric != setup_s ]]; then
    echo "ab.sh: --setup-only measures setup_s only" >&2
    exit 2
fi
read -r -a seed_list <<<"$seeds"
[[ ${#seed_list[@]} -gt 0 ]] || usage

if [[ -z $logs ]]; then
    logs=$(mktemp -d)
fi
mkdir -p "$logs"
# One run of `bin` on `seed`; prints the metric's value.
run() {
    local bin=$1 seed=$2 log=$3
    if [[ $mode == setup ]]; then
        "$bin" --workload "$workload" --seed "$seed" --setup-only "${smoke[@]}" >"$log"
        tail -n 1 "$log"
    else
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 "${smoke[@]}" >"$log"
        tail -n 1 "$log" | grep -o "\"$metric\": {\"value\": [^,}]*" | sed 's/.*: //'
    fi
}

values_a=()
values_b=()
for ((i = 0; i < pairs; i++)); do
    seed=${seed_list[i % ${#seed_list[@]}]}
    if ((i % 2 == 0)); then
        va=$(run "$a" "$seed" "$logs/$i-a.out")
        vb=$(run "$b" "$seed" "$logs/$i-b.out")
    else
        vb=$(run "$b" "$seed" "$logs/$i-b.out")
        va=$(run "$a" "$seed" "$logs/$i-a.out")
    fi
    [[ -n $va && -n $vb ]] || { echo "ab.sh: pair $i printed no $metric (see $logs)" >&2; exit 1; }
    echo "pair $((i + 1)) seed $seed: A $va  B $vb"
    values_a+=("$va")
    values_b+=("$vb")
done

# Median and quartiles by linear interpolation between order statistics.
summary() {
    printf '%s\n' "$@" | sort -g | awk '
        { v[NR] = $1 }
        function q(p,   h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + 1 < NR ? l + 1 : NR] - v[l]) }
        END { printf "median %.6g  quartiles %.6g-%.6g  iqr %.6g\n", q(0.5), q(0.25), q(0.75), q(0.75) - q(0.25) }'
}
echo "$metric on $workload, $pairs pairs ($mode):"
echo "A ${a}: $(summary "${values_a[@]}")"
echo "B ${b}: $(summary "${values_b[@]}")"
wins=0
for ((i = 0; i < pairs; i++)); do
    if awk -v a="${values_a[i]}" -v b="${values_b[i]}" 'BEGIN { exit !(b < a) }'; then
        wins=$((wins + 1))
    fi
done
echo "B lower in $wins of $pairs pairs; runs kept in $logs"
