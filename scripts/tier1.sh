#!/usr/bin/env bash
# Tier-1 gate, provably network-free: the workspace is 100 % path
# dependencies (enforced by tests/hermetic.rs), so everything below runs
# with --offline and CARGO_NET_OFFLINE as a belt-and-braces guarantee.
#
# Usage: scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo build --release --offline
# The benchmark driver (perfbench/, a workspace of its own) calls the
# crates' public API by path: building it here makes an API break fail
# the gate instead of the benchmark run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench
# --workspace is a superset of the gate's `cargo test -q`: it also runs
# every member crate's unit, integration and doc tests.
cargo test -q --offline --workspace
# Lints are part of the gate: warnings are build breaks.
cargo clippy --offline --workspace --all-targets -- -D warnings
# Bench bodies must at least execute (smoke mode runs each body once
# and measures nothing), so the baseline stays regenerable. The pass
# runs with tracing live so the disabled→enabled flip is exercised in
# CI. The trace summary prints only nonzero metrics, so any
# `*.no_convergence` line means a campaign-level solver failure.
smoke_log="$(mktemp)"
fault_log="$(mktemp)"
fault_clean="$(mktemp -d)"
fault_armed="$(mktemp -d)"
sched_serial="$(mktemp -d)"
sched_two="$(mktemp -d)"
sched_five="$(mktemp -d)"
batch_scalar="$(mktemp -d)"
batch_on="$(mktemp -d)"
serve_dir="$(mktemp -d)"
campaign_dir="$(mktemp -d)"
trap 'rm -f "$smoke_log" "$fault_log"; \
     rm -rf "$fault_clean" "$fault_armed" "$sched_serial" "$sched_two" "$sched_five" \
            "$batch_scalar" "$batch_on" "$serve_dir" "$campaign_dir"' EXIT
RLCKIT_BENCH_SMOKE=1 RLCKIT_TRACE=summary cargo bench --offline --workspace 2>&1 \
  | tee "$smoke_log"
if grep -q '\.no_convergence' "$smoke_log"; then
  echo "tier-1 gate: FAIL — nonzero no_convergence counter in bench smoke" >&2
  exit 1
fi

# Fault-injection smoke: arm deterministic injection (fixed seed, 10 %
# rate) over the Fig. 4-8 campaign grids. Every campaign must complete
# with the retry ladder absorbing every injection — the armed trace
# summary must show a nonzero `*.injected_faults` family and no
# `*.no_convergence` counter — and the emitted CSVs must be
# byte-identical to a clean run of the same bin.
for bin in fig04_lcrit fig05_hopt_ratio fig06_kopt_ratio fig07_delay_ratio fig08_variation; do
  RLCKIT_RESULTS_DIR="$fault_clean" \
    cargo run --release --offline -q -p rlckit-bench --bin "$bin" >/dev/null
  RLCKIT_RESULTS_DIR="$fault_armed" RLCKIT_FAULTS=2001:0.1 RLCKIT_TRACE=summary \
    cargo run --release --offline -q -p rlckit-bench --bin "$bin" >/dev/null 2>"$fault_log"
  if ! grep -q 'injected_faults' "$fault_log"; then
    echo "tier-1 gate: FAIL — $bin took no injected faults (harness disarmed?)" >&2
    exit 1
  fi
  if grep -q '\.no_convergence' "$fault_log"; then
    echo "tier-1 gate: FAIL — $bin surfaced no_convergence under injection" >&2
    exit 1
  fi
  if ! cmp -s "$fault_clean/$bin.csv" "$fault_armed/$bin.csv"; then
    echo "tier-1 gate: FAIL — $bin CSV drifted under fault injection" >&2
    exit 1
  fi
done

# Scheduler identity: campaign CSVs must be byte-identical across the
# serial reference and guided work-stealing execution at two thread
# counts (each `cargo run` is a fresh process, so RLCKIT_THREADS is
# honored under its once-per-process semantics). The §3.2 Monte-Carlo
# is included: its per-sample streams are split up front, so its
# statistics must not depend on the schedule either.
for bin in fig04_lcrit fig07_delay_ratio variation_monte_carlo; do
  RLCKIT_RESULTS_DIR="$sched_serial" RLCKIT_THREADS=1 \
    cargo run --release --offline -q -p rlckit-bench --bin "$bin" >/dev/null
  RLCKIT_RESULTS_DIR="$sched_two" RLCKIT_THREADS=2 \
    cargo run --release --offline -q -p rlckit-bench --bin "$bin" >/dev/null
  RLCKIT_RESULTS_DIR="$sched_five" RLCKIT_THREADS=5 \
    cargo run --release --offline -q -p rlckit-bench --bin "$bin" >/dev/null
  for dir in "$sched_two" "$sched_five"; do
    if ! cmp -s "$sched_serial/$bin.csv" "$dir/$bin.csv"; then
      echo "tier-1 gate: FAIL — $bin CSV drifted between serial and guided execution" >&2
      exit 1
    fi
  done
done

# Batch identity: the lockstep structure-of-arrays engine must emit a
# byte-identical campaign CSV to the scalar reference path on the
# standard grids (fig07 runs standard_node_sweep at 25 points — the
# `standard_100nm_25` workload — across all three nodes).
# `RLCKIT_BATCH=off` routes every point through the scalar solver.
RLCKIT_RESULTS_DIR="$batch_scalar" RLCKIT_BATCH=off \
  cargo run --release --offline -q -p rlckit-bench --bin fig07_delay_ratio >/dev/null
RLCKIT_RESULTS_DIR="$batch_on" \
  cargo run --release --offline -q -p rlckit-bench --bin fig07_delay_ratio >/dev/null
if ! cmp -s "$batch_scalar/fig07_delay_ratio.csv" "$batch_on/fig07_delay_ratio.csv"; then
  echo "tier-1 gate: FAIL — fig07 CSV drifted between scalar and batched engines" >&2
  exit 1
fi

# Serving smoke: boot the daemon twice over one seeded loadgen mix
# (cold boot saves a warm-start snapshot; the second boot reloads it).
# Responses must be byte-identical across the runs once the documented
# `*_ns` wall-clock fields are stripped, the drained flight-recorder
# event streams must be byte-identical once `t_ns` is stripped, the
# trailing stats barrier must show memo hits, and the solver must never
# fail to converge while serving.
strip_ns() { sed 's/"[a-z0-9_]*_ns":[0-9]*,\{0,1\}//g' "$1"; }
cargo run --release --offline -q -p rlckit-bench --bin loadgen -- --emit=120 \
  > "$serve_dir/mix.jsonl"
for run in a b; do
  RLCKIT_TRACE=summary cargo run --release --offline -q -p rlckit-serve -- \
    --stdin --workers 4 --warm-grid 5 --snapshot "$serve_dir/memo.snapshot" \
    --trace-events "$serve_dir/$run.events.jsonl" \
    < "$serve_dir/mix.jsonl" > "$serve_dir/$run.out" 2> "$serve_dir/$run.log"
  if grep -q '\.no_convergence' "$serve_dir/$run.log"; then
    echo "tier-1 gate: FAIL — rlckit-serve surfaced no_convergence (run $run)" >&2
    exit 1
  fi
done
if ! cmp -s <(strip_ns "$serve_dir/a.out") <(strip_ns "$serve_dir/b.out"); then
  echo "tier-1 gate: FAIL — rlckit-serve responses drifted between two seeded runs" >&2
  exit 1
fi
if ! cmp -s <(strip_ns "$serve_dir/a.events.jsonl") <(strip_ns "$serve_dir/b.events.jsonl"); then
  echo "tier-1 gate: FAIL — flight-recorder event streams drifted between two seeded runs" >&2
  exit 1
fi
if ! grep -q 'warm-started' "$serve_dir/b.log"; then
  echo "tier-1 gate: FAIL — second serve boot did not warm-start from the snapshot" >&2
  exit 1
fi
serve_hits="$(tail -n 1 "$serve_dir/a.out" | grep -o '"hits":[0-9]*' | cut -d: -f2)"
if ! awk -v x="${serve_hits:-0}" 'BEGIN { exit !(x > 0) }'; then
  echo "tier-1 gate: FAIL — serve smoke took no memo hits (stats hits=${serve_hits:-missing})" >&2
  exit 1
fi
# The extended stats response must carry the new observability fields:
# a barrier stats is deterministic, so in_flight is exactly 0, and the
# latency percentiles/uptime must at least be present (values are
# wall-clock and were stripped from the cmp above).
stats_line="$(tail -n 1 "$serve_dir/a.out")"
if ! echo "$stats_line" | grep -q '"in_flight":0'; then
  echo "tier-1 gate: FAIL — barrier stats did not report in_flight=0: $stats_line" >&2
  exit 1
fi
for field in uptime_ns p50_ns p95_ns p99_ns; do
  if ! echo "$stats_line" | grep -q "\"$field\":"; then
    echo "tier-1 gate: FAIL — stats response lost the $field field: $stats_line" >&2
    exit 1
  fi
done

# Trace-op smoke: the live observability snapshot must answer with the
# slowest-requests table and a nonzero drained-event count.
printf '%s\n' \
  '{"id":1,"op":"optimum","node":"100nm","l_nh_mm":1.5}' \
  '{"id":2,"op":"stats"}' \
  '{"id":3,"op":"trace"}' \
  | RLCKIT_TRACE=summary cargo run --release --offline -q -p rlckit-serve -- \
      --stdin --workers 2 > "$serve_dir/trace_op.out" 2>/dev/null
trace_line="$(tail -n 1 "$serve_dir/trace_op.out")"
if ! echo "$trace_line" | grep -q '"op":"trace"'; then
  echo "tier-1 gate: FAIL — trace op got no trace response: $trace_line" >&2
  exit 1
fi
if ! echo "$trace_line" | grep -q '"slowest":\[{"trace_id":'; then
  echo "tier-1 gate: FAIL — trace op reported an empty slow log: $trace_line" >&2
  exit 1
fi
if ! echo "$trace_line" | grep -qE '"events":[1-9]'; then
  echo "tier-1 gate: FAIL — trace op saw no flight-recorder events: $trace_line" >&2
  exit 1
fi

# Traceview smoke: the offline analyzer must parse a real capture, see
# a nonzero event count, and exit 0.
cargo run --release --offline -q -p rlckit-bench --bin rlckit-traceview -- \
  "$serve_dir/a.events.jsonl" > "$serve_dir/traceview.out"
if ! grep -qE '^[1-9][0-9]* events across [1-9]' "$serve_dir/traceview.out"; then
  echo "tier-1 gate: FAIL — rlckit-traceview read no events from the serve capture" >&2
  exit 1
fi
if ! grep -q '^total' "$serve_dir/traceview.out"; then
  echo "tier-1 gate: FAIL — rlckit-traceview printed no total-phase row" >&2
  exit 1
fi

# Concurrent-serving smoke: one daemon, three simultaneous TCP clients
# each replaying its own seeded hot-only mix (on-grid keys only, so no
# session changes the shared memo and even the stats barrier lines are
# reproducible). Every client's concurrent response stream must be
# byte-identical (modulo the documented `*_ns` fields) to replaying the
# same mix alone against the same daemon afterwards, the accept loop
# must survive with zero errors, and nobody may be refused for
# capacity.
cargo run --release --offline -q -p rlckit-serve -- \
  --tcp 127.0.0.1:0 --workers 4 --warm-grid 5 --idle-timeout-secs 30 \
  2> "$serve_dir/tcp.log" &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(grep -oE 'listening on 127\.0\.0\.1:[0-9]+' "$serve_dir/tcp.log" \
    | grep -oE '[0-9]+$' || true)"
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "tier-1 gate: FAIL — rlckit-serve --tcp never reported its listening port" >&2
  exit 1
fi
client_pids=()
for i in 1 2 3; do
  cargo run --release --offline -q -p rlckit-bench --bin loadgen -- \
    "--connect=127.0.0.1:$port" --emit=40 --seed=$((9000 + i)) --hot-only \
    > "$serve_dir/client$i.concurrent.out" &
  client_pids+=($!)
done
for pid in "${client_pids[@]}"; do
  if ! wait "$pid"; then
    echo "tier-1 gate: FAIL — a concurrent loadgen client session failed" >&2
    exit 1
  fi
done
for i in 1 2 3; do
  cargo run --release --offline -q -p rlckit-bench --bin loadgen -- \
    "--connect=127.0.0.1:$port" --emit=40 --seed=$((9000 + i)) --hot-only \
    > "$serve_dir/client$i.solo.out"
  if ! cmp -s <(strip_ns "$serve_dir/client$i.concurrent.out") \
              <(strip_ns "$serve_dir/client$i.solo.out"); then
    echo "tier-1 gate: FAIL — client $i's concurrent responses drifted from its solo replay" >&2
    exit 1
  fi
  # Hot-only mix against a 5-point warm grid: the trailing stats
  # barrier must report a miss-free session.
  if ! tail -n 1 "$serve_dir/client$i.concurrent.out" | grep -q '"misses":0'; then
    echo "tier-1 gate: FAIL — client $i's hot-only session took memo misses" >&2
    exit 1
  fi
done
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
if [ "$(grep -c 'closed after' "$serve_dir/tcp.log")" -ne 6 ]; then
  echo "tier-1 gate: FAIL — daemon did not report all 6 client sessions closing" >&2
  cat "$serve_dir/tcp.log" >&2
  exit 1
fi
if grep -q 'accept error' "$serve_dir/tcp.log"; then
  echo "tier-1 gate: FAIL — concurrent smoke took accept errors" >&2
  exit 1
fi
if grep -q 'at capacity' "$serve_dir/tcp.log"; then
  echo "tier-1 gate: FAIL — concurrent smoke refused a client for capacity" >&2
  exit 1
fi

# Campaign supervisor smoke: the standard Fig. 4–8 sweep campaign,
# sharded across three supervised processes with a seeded kill schedule
# armed (every shard crash-loops a few generations before drawing a
# clean run). The supervisor must take at least one relaunch, degrade
# nothing, and the merged CSV must be byte-identical to the
# single-process run of the same campaign. The summary sink prints only
# nonzero counters, so a degraded grep match is a hard failure.
cargo run --release --offline -q -p rlckit-campaign -- solo \
  --dir "$campaign_dir/solo" --out "$campaign_dir/solo.csv" 2>/dev/null
RLCKIT_SHARD_FAULTS=7001:0.2 RLCKIT_TRACE=summary \
  cargo run --release --offline -q -p rlckit-campaign -- run --shards 3 \
  --dir "$campaign_dir/run" --out "$campaign_dir/run.csv" \
  --backoff-ms 5 --poll-ms 5 2> "$campaign_dir/run.log"
if ! grep -q 'campaign\.shard\.relaunched' "$campaign_dir/run.log"; then
  echo "tier-1 gate: FAIL — campaign smoke took no shard relaunches (shard faults disarmed?)" >&2
  exit 1
fi
if grep -q 'campaign\.shard\.degraded' "$campaign_dir/run.log"; then
  echo "tier-1 gate: FAIL — campaign smoke degraded a shard (restart budget too small for the seed?)" >&2
  exit 1
fi
if ! cmp -s "$campaign_dir/solo.csv" "$campaign_dir/run.csv"; then
  echo "tier-1 gate: FAIL — supervised campaign CSV drifted from the single-process run" >&2
  exit 1
fi

# Perf guard on the committed bench baselines: the delay solver must
# hold the paper's ≤4-iteration claim, and one optimizer solve must not
# spend more delay solves than it needs. The 250 nm single point takes
# 26 residual evaluations plus the optimum's own delay in `finish`; the
# pre-flight residual at the start point is handed to the Newton
# solver's first evaluation, so a re-evaluation there shows up as 28.
bench_metric() { # group name metric
  grep "\"name\":\"$2\"" "results/BENCH_$1.json" \
    | grep -o "\"$3\":[0-9.]*" | cut -d: -f2
}
iters="$(bench_metric delay_solver random_configs iterations_per_solve)"
if ! awk -v x="${iters:-99}" 'BEGIN { exit !(x <= 4.1) }'; then
  echo "tier-1 gate: FAIL — delay solver iterations_per_solve regressed (${iters:-missing} > 4.1)" >&2
  exit 1
fi
delay_solves="$(bench_metric optimizer single_point_250nm delay_solves_per_solve)"
if ! awk -v x="${delay_solves:-99}" 'BEGIN { exit !(x <= 27.0) }'; then
  echo "tier-1 gate: FAIL — optimizer delay solves per solve rose to ${delay_solves:-missing} (> 27)" >&2
  exit 1
fi
# Serving guard (BENCH_serve): the committed hot-mix baseline must show
# the memo absorbing the steady-state load — a warm replay of the
# seeded 64/30/6 hot/noisy/cold mix serves (almost) everything from the
# memo; a sub-0.9 hit rate means quantization or sharding broke.
serve_rate="$(bench_metric serve hot_mix_replay hit_rate)"
if ! awk -v x="${serve_rate:-0}" 'BEGIN { exit !(x > 0.9) }'; then
  echo "tier-1 gate: FAIL — serve hot-mix hit rate ${serve_rate:-missing} <= 0.9" >&2
  exit 1
fi
serve_errors="$(bench_metric serve hot_mix_replay errors)"
if ! awk -v x="${serve_errors:-1}" 'BEGIN { exit !(x == 0) }'; then
  echo "tier-1 gate: FAIL — serve hot-mix baseline recorded ${serve_errors:-missing} errors" >&2
  exit 1
fi
# Field hygiene: the deprecated log₂-bucket p95 column is retired; the
# ns headline must carry the latency baseline on its own.
if grep -q "p95_latency_log2_ns" results/BENCH_serve.json; then
  echo "tier-1 gate: FAIL — deprecated p95_latency_log2_ns column resurfaced in BENCH_serve.json" >&2
  exit 1
fi
serve_p95="$(bench_metric serve hot_mix_replay p95_latency_ns)"
if ! awk -v x="${serve_p95:-0}" 'BEGIN { exit !(x > 0) }'; then
  echo "tier-1 gate: FAIL — BENCH_serve.json lost its p95_latency_ns column" >&2
  exit 1
fi
# Eviction guard (BENCH_serve eviction_churn): under multi-connection
# hot + one-shot-cold churn against a deliberately small memo,
# promote-on-hit LRU must hold the warm grid (> 0.9 hit rate on hot
# requests) while FIFO — whose oldest-first victims are exactly the
# preloaded warm entries — must be measurably worse on the
# byte-identical workload. Both rates come from the committed baseline.
lru_rate="$(bench_metric serve eviction_churn lru_warm_hit_rate)"
fifo_rate="$(bench_metric serve eviction_churn fifo_warm_hit_rate)"
if ! awk -v x="${lru_rate:-0}" 'BEGIN { exit !(x > 0.9) }'; then
  echo "tier-1 gate: FAIL — LRU warm-grid hit rate ${lru_rate:-missing} <= 0.9 under churn" >&2
  exit 1
fi
if ! awk -v l="${lru_rate:-0}" -v f="${fifo_rate:-1}" 'BEGIN { exit !(f < l) }'; then
  echo "tier-1 gate: FAIL — FIFO (${fifo_rate:-missing}) did not degrade vs LRU (${lru_rate:-missing}) under churn" >&2
  exit 1
fi
# Concurrent-throughput guard (BENCH_serve concurrent_replay):
# cores-gated like the other scaling assertions — on ≥2 CPUs the
# 4-session shared-pool replay must out-serve the solo session's qps;
# a 1-CPU recording only asserts the entry exists.
cc_cores="$(bench_metric serve concurrent_replay cores)"
cc_qps="$(bench_metric serve concurrent_replay qps)"
if ! awk -v x="${cc_qps:-0}" 'BEGIN { exit !(x > 0) }'; then
  echo "tier-1 gate: FAIL — BENCH_serve.json lost its concurrent_replay qps column" >&2
  exit 1
fi
if awk -v c="${cc_cores:-1}" 'BEGIN { exit !(c >= 2) }'; then
  solo_qps="$(bench_metric serve hot_mix_replay qps)"
  if ! awk -v c="${cc_qps:-0}" -v s="${solo_qps:-0}" 'BEGIN { exit !(c > s) }'; then
    echo "tier-1 gate: FAIL — concurrent qps ${cc_qps:-missing} <= solo qps ${solo_qps:-missing} on ${cc_cores} CPUs" >&2
    exit 1
  fi
else
  echo "tier-1 gate: SKIP — concurrent-vs-solo qps assertion (BENCH_serve recorded on ${cc_cores:-1} CPU)"
fi
# Flight-recorder budget (BENCH_trace_overhead): the disabled-path
# `event!` must stay one relaxed load — a committed median above 25 ns
# means someone put work (a clock read, an allocation, a lock) in front
# of the enabled check, which taxes every request of every un-traced
# run.
event_off="$(bench_metric trace_overhead event_record_disabled median)"
if ! awk -v x="${event_off:-99}" 'BEGIN { exit !(x <= 25.0) }'; then
  echo "tier-1 gate: FAIL — disabled-path event record costs ${event_off:-missing} ns (> 25)" >&2
  exit 1
fi
# Batch-engine guards (BENCH_batch): the serial lockstep win must hold
# on any machine; the ≥2× campaign target (batched columns under guided
# threads vs the scalar serial PR 5 path) additionally needs real
# parallelism, so it is asserted only when the committed JSON was
# recorded with ≥2 CPUs (the speedup entries carry a `cores` field).
floor="$(bench_metric batch optimize_batch_speedup median)"
if ! awk -v x="${floor:-0}" 'BEGIN { exit !(x >= 1.05) }'; then
  echo "tier-1 gate: FAIL — serial batch speedup regressed (${floor:-missing} < 1.05)" >&2
  exit 1
fi
batch_cores="$(bench_metric batch sweep_campaign_speedup cores)"
if awk -v c="${batch_cores:-1}" 'BEGIN { exit !(c >= 2) }'; then
  campaign="$(bench_metric batch sweep_campaign_speedup median)"
  if ! awk -v x="${campaign:-0}" 'BEGIN { exit !(x >= 2.0) }'; then
    echo "tier-1 gate: FAIL — batched campaign speedup ${campaign:-missing} < 2.0 on ${batch_cores} CPUs" >&2
    exit 1
  fi
else
  echo "tier-1 gate: SKIP — BENCH_batch ≥2× campaign assertion (baseline recorded on ${batch_cores:-1} CPU; serial floor ${floor}x enforced instead)"
fi
# Parallel-speedup guard (BENCH_sweeps): meaningful only when the
# recording machine had ≥2 CPUs — a single-CPU recording bakes in ~1×
# numbers that say nothing about the scheduler.
sweep_cores="$(bench_metric sweeps campaign_sweep_speedup cores)"
if awk -v c="${sweep_cores:-1}" 'BEGIN { exit !(c >= 2) }'; then
  par="$(bench_metric sweeps campaign_sweep_speedup median)"
  if ! awk -v x="${par:-0}" 'BEGIN { exit !(x >= 1.3) }'; then
    echo "tier-1 gate: FAIL — campaign parallel speedup ${par:-missing} < 1.3 on ${sweep_cores} CPUs" >&2
    exit 1
  fi
else
  echo "tier-1 gate: SKIP — campaign parallel-speedup assertion (BENCH_sweeps recorded on ${sweep_cores:-1} CPU)"
fi
# Campaign shard-scaling guard (BENCH_campaign): a supervised
# multi-process campaign only beats the in-process solo run when the
# recording machine had ≥2 CPUs — a 1-CPU baseline measures pure
# supervision overhead, so only the presence of the solo baseline is
# enforced there (the byte-identity smoke above covers correctness).
camp_cores="$(bench_metric campaign shard_scaling_2 cores)"
if awk -v c="${camp_cores:-1}" 'BEGIN { exit !(c >= 2) }'; then
  camp="$(bench_metric campaign shard_scaling_2 median)"
  if ! awk -v x="${camp:-0}" 'BEGIN { exit !(x >= 1.2) }'; then
    echo "tier-1 gate: FAIL — 2-shard campaign speedup ${camp:-missing} < 1.2 on ${camp_cores} CPUs" >&2
    exit 1
  fi
else
  camp_solo="$(bench_metric campaign solo_100nm_25 median)"
  if ! awk -v x="${camp_solo:-0}" 'BEGIN { exit !(x > 0) }'; then
    echo "tier-1 gate: FAIL — BENCH_campaign.json lost its solo baseline" >&2
    exit 1
  fi
  echo "tier-1 gate: SKIP — BENCH_campaign shard-scaling assertion (baseline recorded on ${camp_cores:-1} CPU)"
fi
# Closed-form bins have no solver in the loop; arming must be harmless.
RLCKIT_RESULTS_DIR="$fault_armed" RLCKIT_FAULTS=2001:0.1 \
  cargo run --release --offline -q -p rlckit-bench --bin table1 >/dev/null

echo "tier-1 gate: OK"
