#!/usr/bin/env sh
# Regenerate the committed BENCH_*.json perf-trajectory baselines.
#
# Usage:  bench/run_all.sh [build-dir] [extra bench args...]
#   bench/run_all.sh                 # full-scale run from ./build into repo root
#   bench/run_all.sh build --quick   # fast smoke (CI uses this)
#
# Each file is the bench binary's --json output: per-cell tps, traffic
# breakdown by TrafficClass, packet counts, commit-latency percentiles, plus
# a snapshot of the process-wide metrics registry. The files are
# timestamp-free, so `git diff` against the committed baselines shows real
# measurement drift only. See EXPERIMENTS.md ("Regenerating the BENCH
# baselines").
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
[ $# -gt 0 ] && shift

for pair in \
    "table3_standalone BENCH_table3.json" \
    "table4_passive BENCH_table4.json" \
    "table6_active BENCH_table6.json" \
    "fig1_bandwidth BENCH_fig1.json" \
    "availability_failover BENCH_availability.json" \
    "ablation_two_safe BENCH_ablation_two_safe.json" \
    "recovery_time BENCH_recovery.json" \
    "smp_debitcredit BENCH_smp_debitcredit.json" \
    "smp_orderentry BENCH_smp_orderentry.json" \
    "shard_scaling BENCH_shards.json" \
    "rebalance_cost BENCH_rebalance.json" \
    "read_scaling BENCH_read_scaling.json" \
    "table1_straightforward BENCH_table1.json" \
    "table8_dbsize BENCH_table8.json" \
    "fig2_smp_debitcredit BENCH_fig2.json" \
    "fig3_smp_orderentry BENCH_fig3.json" \
    "ablation_coalescing BENCH_ablation_coalescing.json" \
    "ablation_fifo_depth BENCH_ablation_fifo_depth.json" \
    "ablation_undo_shipping BENCH_ablation_undo_shipping.json"; do
  bin="${pair% *}"
  out="${pair#* }"
  echo "== $bin -> $out"
  "$BUILD/bench/$bin" --json "$out" "$@"
done
echo "done; diff with: git diff -- 'BENCH_*.json'"
