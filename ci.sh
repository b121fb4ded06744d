#!/bin/sh
# Tier-1 CI: build and test the workspace fully offline. The workspace is
# hermetic (path-only dependencies), so an empty cargo registry must be
# sufficient; CARGO_NET_OFFLINE enforces that on every run.
set -eu

export CARGO_NET_OFFLINE=true

cargo build --release --workspace
# Unit, integration and doc tests: the workspace run covers every
# doctest too (`Doc-tests <crate>` in its output).
cargo test -q --workspace

# Documentation gate: rustdoc must build clean with warnings denied
# (broken intra-doc links, missing docs on public items, bad code fences
# all fail the build).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Lint when the toolchain ships clippy; skip silently otherwise.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
fi

# Trace smoke test: a tiny traced loopback run must audit clean and
# write a Chrome trace that round-trips through the in-repo JSON parser
# (fbuf-trace exits nonzero on either failure).
FBUF_TRACE_MSGS=4 FBUF_TRACE_SIZE=8192 FBUF_BENCH_DIR=target/bench-reports \
    cargo run --release -q -p fbuf-bench --bin fbuf-trace
test -s target/bench-reports/TRACE_loopback.json

# Ledger smoke: a small fleet run must render the per-tenant table and
# conserve — summed tenant bytes/transfers/IPC calls must reproduce the
# fleet's whole-life counters exactly (fbuf-ledger exits nonzero
# otherwise).
FBUF_LEDGER_SHARDS=2 FBUF_LEDGER_CYCLES=2000 FBUF_BENCH_DIR=target/bench-reports \
    cargo run --release -q -p fbuf-bench --bin fbuf-ledger
test -s target/bench-reports/LEDGER_fleet.json

# Stress smoke above the telemetry series cap: 16 paths on one shard
# register more per-path and per-inbox gauges than the cap admits, and
# the shard's batched-plane gauges (`ring_batch_occupancy`,
# `notice_coalesce_factor`) must still be recorded (fbuf-stress exits
# nonzero before writing its report if either is missing). The 1- and
# 2-thread curve must also stay within (0, 1.05] parallel efficiency
# with many columns per shard: a sampler whose cost grew with the paths
# on a shard would make it superlinear. Runs before the efficiency
# floor below is exported.
FBUF_STRESS_OPS=20000 FBUF_STRESS_PATHS=16 FBUF_STRESS_THREADS=1,2 \
    FBUF_BENCH_DIR=target/bench-reports/stress-16-paths \
    cargo run --release -q -p fbuf-bench --bin fbuf-stress

# Stress smoke test, single- and multi-shard: a small fixed op budget
# must hold the §3.2.2 steady-state invariants *per shard* on every run,
# drive cross-shard payloads over the SPSC rings at 2 threads, and keep
# every point of the scaling curve (min of fbuf-stress's interleaved
# runs) within (0, 1.05] parallel efficiency; fbuf-stress exits nonzero
# otherwise.
#
# The efficiency floor is host-adaptive: a 2-thread run on fewer than
# two real cores just timeslices, so the floor is only armed when the
# host can physically show a speedup.
CORES=$(nproc 2>/dev/null || echo 1)
if [ "$CORES" -ge 2 ]; then
    export FBUF_STRESS_EFF_FLOOR="2:0.60"
fi
FBUF_STRESS_OPS=20000 FBUF_STRESS_PATHS=4 FBUF_STRESS_THREADS=1,2 \
    FBUF_BENCH_DIR=target/bench-reports \
    cargo run --release -q -p fbuf-bench --bin fbuf-stress

# Queueing smoke: an offered-load sweep through the event-loop engine
# must conserve transfers at every point (completed + aborted == offered),
# show zero queueing delay in the drained burst-1 regime (enforced twice:
# the built-in invariant plus the explicit SLO gate below), build real
# delay under load, and refuse work explicitly once a burst exceeds the
# bounded inbox depth (fbuf-queue exits nonzero on any violation).
FBUF_QUEUE_TRANSFERS=128 FBUF_QUEUE_BURSTS=1,4,16 FBUF_QUEUE_DEPTH=8 \
    FBUF_QUEUE_SLO_P99_NS=0 \
    FBUF_BENCH_DIR=target/bench-reports \
    cargo run --release -q -p fbuf-bench --bin fbuf-queue

# Fan-in smoke: all three chunk-admission policies drive the same
# Zipf-skewed, bursty fan-in workload at equal total buffer memory
# through the sharded event-loop engine. fbuf-fanin exits nonzero
# unless every policy conserves arrivals (offered == completed +
# dropped + unresolved) and fb-dynamic strictly beats the static quota
# on both drops and p99 alloc wait — the policy layer's reason to
# exist, enforced at smoke scale on every CI run.
FBUF_FANIN_FLOWS=2000 FBUF_FANIN_PATHS=64 FBUF_FANIN_SHARDS=2 FBUF_FANIN_STEPS=120 \
    FBUF_BENCH_DIR=target/bench-reports \
    cargo run --release -q -p fbuf-bench --bin fbuf-fanin
test -s target/bench-reports/BENCH_fanin.json

# Lockstep-fuzzer smoke: a bounded fixed-seed campaign against the
# reference model must finish with zero divergences (long campaigns run
# the same binary with FBUF_FUZZ_CASES/FBUF_FUZZ_CMDS raised), and every
# pinned corpus case must replay clean — including the adversarial
# cases (adv = K in the corpus header), which replay with containment
# armed and the hostile personas overlaid.
FBUF_FUZZ_CASES=${FBUF_FUZZ_CASES:-16} FBUF_FUZZ_CMDS=${FBUF_FUZZ_CMDS:-150} \
    cargo run --release -q -p fbuf-bench --bin fbuf-fuzz
cargo run --release -q -p fbuf-bench --bin fbuf-fuzz -- --replay tests/corpus

# Adversarial lockstep smoke: the same differ with three hostile
# personas (hoarder, stalled receiver, token forger) overlaid on every
# case and the quota jail armed on both sides. Divergence-free means
# the oracle mirrors jail denials, forced revocations, and token
# rejections exactly.
FBUF_FUZZ_CASES=8 FBUF_FUZZ_CMDS=150 FBUF_FUZZ_ADV=3 \
    cargo run --release -q -p fbuf-bench --bin fbuf-fuzz

# Hostile-tenant containment smoke: N benign tenants vs the three
# personas through the engine at equal memory. fbuf-adversary exits
# nonzero unless benign goodput stays >= 95% of the adversary-free
# baseline, zero forged tokens dereference, the jail and both
# revocation paths (forced + timeout) all fire, and the per-tenant
# ledger conserves — revocations and rejected tokens included.
FBUF_ADV_TENANTS=4 FBUF_ADV_ROUNDS=32 FBUF_BENCH_DIR=target/bench-reports \
    cargo run --release -q -p fbuf-bench --bin fbuf-adversary
test -s target/bench-reports/BENCH_adversary.json

echo "ci: ok"
