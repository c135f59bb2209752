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
# every member crate's unit, integration and doc tests. The suite must
# pass one test at a time and with as many test threads as CPUs: tests
# read their own trace scope and fault plan, never each other's.
cargo test -q --offline --workspace -- --test-threads=1
cargo test -q --offline --workspace -- --test-threads="$(nproc)"
# Concurrent serve sessions once leaked telemetry into each other and
# failed at two test threads about one run in three: repeat that shape.
for _ in 1 2 3 4 5; do
  cargo test -q --offline -p rlckit-serve --lib -- --test-threads=2
done
# Lints are part of the gate: warnings are build breaks.
cargo clippy --offline --workspace --all-targets -- -D warnings
# So is rustfmt, package by package as each one is formatted: a change
# that unformats a listed package breaks the gate.
cargo fmt -p rlckit-numeric -p rlckit-spice -p rlckit-trace -p rlckit-check -p rlckit-units \
  -p rlckit-extract -p rlckit-par -p rlckit-tech -p rlckit-fault -- --check
# So are rustdoc warnings: a doc link to a deleted or private item
# breaks the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
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
serve_dir="$(mktemp -d)"
campaign_dir="$(mktemp -d)"
sim_dir="$(mktemp -d)"
trap 'rm -f "$smoke_log" "$fault_log"; \
     rm -rf "$fault_clean" "$fault_armed" "$sched_serial" "$sched_two" "$sched_five" \
            "$serve_dir" "$campaign_dir" "$sim_dir"' EXIT
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
# Eviction-order leg: the same mix against a 2-shard memo of 4 entries
# a shard, once per policy. Which requests hit depends only on the keys
# and the eviction order, not on solver bits, so each stream's ordered
# `id source` column must equal its golden file, captured from the
# linear-scan `Vec` shard that the hashed shard replaced.
for policy in lru fifo; do
  cargo run --release --offline -q -p rlckit-serve -- \
    --stdin --workers 2 --shard-capacity 4 --eviction "$policy" \
    < "$serve_dir/mix.jsonl" 2>/dev/null \
    | sed -n 's/^{"id":\([0-9]*\),.*"source":"\([a-z]*\)".*$/\1 \2/p' \
    > "$serve_dir/evict_$policy.sources"
  if ! cmp -s "tests/golden/serve_evict_$policy.sources" "$serve_dir/evict_$policy.sources"; then
    echo "tier-1 gate: FAIL — --eviction $policy hit/miss sequence drifted from tests/golden/serve_evict_$policy.sources" >&2
    exit 1
  fi
done
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

# Warm-grid identity leg: boot solves the warm grid on RLCKIT_THREADS
# workers and preloads it in grid order, so the snapshot a boot saves
# must be byte-identical at one thread and at nproc. Covered twice, with
# shards small enough that the warm evicts: a cold boot, and a boot
# seeded from a smaller grid's snapshot. Bytes only, no timing.
warm_boot() { # threads grid snapshot
  RLCKIT_THREADS="$1" cargo run --release --offline -q -p rlckit-serve -- \
    --stdin --warm-grid "$2" --shard-capacity 40 --snapshot "$3" \
    < /dev/null > /dev/null 2>> "$serve_dir/warm_boot.log"
}
warm_boot 1 101 "$serve_dir/warm_seed.snapshot"
for threads in 1 "$(nproc)"; do
  warm_boot "$threads" 201 "$serve_dir/warm_cold_$threads.snapshot"
  cp "$serve_dir/warm_seed.snapshot" "$serve_dir/warm_seeded_$threads.snapshot"
  warm_boot "$threads" 201 "$serve_dir/warm_seeded_$threads.snapshot"
done
for boot in cold seeded; do
  if ! cmp -s "$serve_dir/warm_${boot}_1.snapshot" "$serve_dir/warm_${boot}_$(nproc).snapshot"; then
    echo "tier-1 gate: FAIL — $boot --warm-grid 201 snapshot differs between RLCKIT_THREADS=1 and $(nproc)" >&2
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
# Closed-loop leg: one connection, 50 on-grid `optimum` requests, each
# sent only after the previous response line is read. A response that
# leaves in two writes stalls ~44 ms on Nagle + delayed ACK (≈ 2.2 s
# for the leg); one write per response and TCP_NODELAY keep it in
# milliseconds.
closed_loop_start="$(date +%s%N)"
exec 3<>"/dev/tcp/127.0.0.1/$port"
for i in $(seq 1 50); do
  printf '{"id":%d,"op":"optimum","node":"100nm","l_nh_mm":2.475}\n' "$i" >&3
  if ! IFS= read -r -t 10 reply <&3 || [[ "$reply" != *"\"id\":$i,\"ok\":true"* ]]; then
    echo "tier-1 gate: FAIL — closed-loop request $i got no good response: ${reply:-none}" >&2
    exit 1
  fi
done
exec 3>&-
closed_loop_ms=$(( ($(date +%s%N) - closed_loop_start) / 1000000 ))
if [ "$closed_loop_ms" -gt 1000 ]; then
  echo "tier-1 gate: FAIL — closed-loop leg took ${closed_loop_ms} ms for 50 requests (> 1 s: Nagle stall?)" >&2
  exit 1
fi
# Let the daemon log the leg's session close before stopping it.
for _ in $(seq 1 50); do
  [ "$(grep -c 'closed after' "$serve_dir/tcp.log")" -ge 7 ] && break
  sleep 0.1
done
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
if [ "$(grep -c 'closed after' "$serve_dir/tcp.log")" -ne 7 ]; then
  echo "tier-1 gate: FAIL — daemon did not report all 7 client sessions closing" >&2
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
  --backoff-ms 5 2> "$campaign_dir/run.log"
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
# Stall leg: the same campaign with hangs armed instead of aborts. A
# hung shard stays alive but stops appending, so only the supervisor's
# checkpoint-growth deadline can catch it (seed 4242 hangs five times,
# about 1.6 s on 2 CPUs). It must stall at least one shard out, degrade
# none, and still merge byte-identical to the single-process run.
RLCKIT_SHARD_FAULTS=4242:0.2:hang RLCKIT_TRACE=summary \
  cargo run --release --offline -q -p rlckit-campaign -- run --shards 3 \
  --stall-timeout-ms 250 --restart-budget 8 \
  --dir "$campaign_dir/hang" --out "$campaign_dir/hang.csv" 2> "$campaign_dir/hang.log"
if ! grep -q 'campaign\.shard\.stalled' "$campaign_dir/hang.log"; then
  echo "tier-1 gate: FAIL — campaign stall leg stalled no shard (hang faults disarmed?)" >&2
  exit 1
fi
if grep -q 'campaign\.shard\.degraded' "$campaign_dir/hang.log"; then
  echo "tier-1 gate: FAIL — campaign stall leg degraded a shard" >&2
  exit 1
fi
if ! cmp -s "$campaign_dir/solo.csv" "$campaign_dir/hang.csv"; then
  echo "tier-1 gate: FAIL — stalled-and-recovered campaign CSV drifted from the single-process run" >&2
  exit 1
fi
# Point-fault leg on the campaign path: the solo campaign with
# RLCKIT_FAULTS armed must take injected faults, retry at least one
# point, and keep every value column (index through
# rc_design_delay_s_per_m) of the clean solo CSV; only the
# outcome,attempts columns may differ.
RLCKIT_FAULTS=2001:0.1 RLCKIT_TRACE=summary \
  cargo run --release --offline -q -p rlckit-campaign -- solo \
  --dir "$campaign_dir/armed" --out "$campaign_dir/armed.csv" 2> "$campaign_dir/armed.log"
if ! grep -q 'injected_faults' "$campaign_dir/armed.log"; then
  echo "tier-1 gate: FAIL — armed solo campaign took no injected faults (harness disarmed?)" >&2
  exit 1
fi
if ! grep -q ',retried,' "$campaign_dir/armed.csv"; then
  echo "tier-1 gate: FAIL — armed solo campaign retried no point" >&2
  exit 1
fi
if ! cmp -s <(cut -d, -f1-10 "$campaign_dir/solo.csv") <(cut -d, -f1-10 "$campaign_dir/armed.csv"); then
  echo "tier-1 gate: FAIL — armed solo campaign values drifted from the clean run" >&2
  exit 1
fi

# Byte-identity goldens: the clean solo CSVs of all three nodes and
# the armed 100 nm one must equal the committed captures bit for bit.
# The legs above compare `solo` only with `run` (a last-bit drift on
# both sides passes) and the armed run only in its value columns (a
# change in which points retry passes); these catch both.
for node in 250nm 100nm_eps33; do
  cargo run --release --offline -q -p rlckit-campaign -- solo --node "$node" \
    --dir "$campaign_dir/solo_$node" --out "$campaign_dir/solo_$node.csv" 2>/dev/null
done
for pair in 250nm:solo_250nm 100nm:solo 100nm_eps33:solo_100nm_eps33 100nm_faults_2001:armed; do
  golden="tests/golden/campaign_solo_${pair%%:*}.csv"
  if ! cmp -s "$golden" "$campaign_dir/${pair#*:}.csv"; then
    echo "tier-1 gate: FAIL — solo campaign CSV drifted from $golden" >&2
    exit 1
  fi
done
# Trace goldens: the JSONL sink of the clean and the armed 100 nm solo
# campaigns must equal the committed captures line for line once the
# span lines (wall clock) are dropped. This pins which metrics register
# and every counter and histogram total, so a change to the telemetry
# store that loses, doubles or misnames a write fails here.
RLCKIT_TRACE="jsonl:$campaign_dir/clean.trace.jsonl" \
  cargo run --release --offline -q -p rlckit-campaign -- solo \
  --dir "$campaign_dir/trace_clean" --out "$campaign_dir/trace_clean.csv" 2>/dev/null
RLCKIT_FAULTS=2001:0.1 RLCKIT_TRACE="jsonl:$campaign_dir/armed.trace.jsonl" \
  cargo run --release --offline -q -p rlckit-campaign -- solo \
  --dir "$campaign_dir/trace_armed" --out "$campaign_dir/trace_armed.csv" 2>/dev/null
for pair in 100nm:clean 100nm_faults_2001:armed; do
  golden="tests/golden/campaign_solo_${pair%%:*}.trace.jsonl"
  if ! cmp -s "$golden" <(grep -v '"type":"span"' "$campaign_dir/${pair#*:}.trace.jsonl"); then
    echo "tier-1 gate: FAIL — solo campaign trace sink drifted from $golden" >&2
    exit 1
  fi
done

# Simulator goldens: the Fig. 9 and Fig. 10 ring-oscillator waveforms
# (the transient simulator's fixed-step trapezoidal path, Newton and
# MOSFET stamps included) must equal the committed captures byte for
# byte, about 1.5 s each in release on 2 CPUs.
for bin in fig09_waveform_1p8 fig10_waveform_2p2; do
  RLCKIT_RESULTS_DIR="$sim_dir" \
    cargo run --release --offline -q -p rlckit-bench --bin "$bin" >/dev/null
  if ! cmp -s "tests/golden/$bin.csv" "$sim_dir/$bin.csv"; then
    echo "tier-1 gate: FAIL — $bin CSV drifted from tests/golden/$bin.csv" >&2
    exit 1
  fi
done

# Perf guard on the committed bench baselines: the delay solver must
# hold the paper's ≤4-iteration claim, and one optimizer solve must not
# spend more delay solves than it needs. The 250 nm single point takes
# one delay solve per residual evaluation — the pre-flight at the start
# point plus 5 line-search trials, each also yielding the exact
# Jacobian — and the optimum's own delay in `finish`: 7. A
# re-evaluation of the pre-flight shows up as 8, a finite-difference
# Jacobian as 4 more per Newton step.
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
if ! awk -v x="${delay_solves:-99}" 'BEGIN { exit !(x <= 7.0) }'; then
  echo "tier-1 gate: FAIL — optimizer delay solves per solve rose to ${delay_solves:-missing} (> 7)" >&2
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
