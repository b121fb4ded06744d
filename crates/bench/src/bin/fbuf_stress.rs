//! `fbuf-stress`: wall-clock throughput of the engine's cached hot path,
//! single- and multi-core.
//!
//! Every other target in this crate reports *simulated* time — the paper's
//! question. This one answers the engineering question underneath: how many
//! cached loopback alloc→send→send→free cycles per second can the engine
//! itself execute on the host? It drives a fleet of sharded engines
//! ([`fbuf::shard`]): each OS thread owns a complete machine running the
//! canonical three-domain (originator → netserver → receiver) pattern over
//! its partition of the data paths, with cross-shard payloads flowing over
//! SPSC rings. For every thread count the harness asserts the §3.2.2
//! steady-state invariant **per shard** (zero PTE updates, zero page
//! clears, every allocation — local, egress, and ingress — a cache hit)
//! over the measured window, then records the wall-clock scaling curve
//! (ops/sec, speedup, efficiency vs linear) under `host.scaling` in
//! `BENCH_stress.json`. Telemetry rides along on every run; its own host
//! cost is reported under `host.telemetry`: ns per fbuf op at the widest
//! configuration with telemetry off and on.
//!
//! Every host-time number comes from one measurement loop: each of
//! [`COST_RUNS`] rounds runs every thread count with telemetry on, then
//! the widest with telemetry off, and each configuration keeps its
//! fastest run. Min-of-N, interleaved, so drift in the host's load hits
//! every configuration alike.
//!
//! Before it writes the report, the run is gated: every point of the
//! scaling curve must have an efficiency in (0, 1.05] (above linear is
//! noise, not scaling), the efficiency floor must hold when one is set,
//! and the fleet telemetry must carry the batched-plane shard gauges
//! `ring_batch_occupancy` and `notice_coalesce_factor`.
//!
//! Environment knobs:
//!
//! * `FBUF_STRESS_OPS`     — steady-state cycles per run, split across the
//!   shards (default 200000; each cycle is 1 alloc + 2 sends + 3 frees =
//!   6 fbuf operations);
//! * `FBUF_STRESS_THREADS` — comma-separated shard counts to sweep, e.g.
//!   `1,2,4,8` (default: 1,2,4,8 capped to the host's available cores —
//!   a fixed total workload, so the curve measures strong scaling);
//! * `FBUF_STRESS_PATHS`   — total logical data paths, partitioned across
//!   shards by path id (default 4 per shard at the largest thread count);
//! * `FBUF_STRESS_PAGES`   — pages per buffer (default 1);
//! * `FBUF_STRESS_CROSS`   — send one cross-shard payload every N local
//!   cycles (default 64; 0 disables cross-shard traffic);
//! * `FBUF_STRESS_NOTICE_BATCH` — notice-coalescing window, tokens per
//!   reverse-ring slot (default 8; 1 is the per-element plane);
//! * `FBUF_STRESS_EFF_FLOOR` — `<threads>:<efficiency>` (e.g. `2:0.6`);
//!   fail unless parallel efficiency at `<threads>` is at least
//!   `<efficiency>`. Only meaningful on a host with at least `<threads>`
//!   cores, hence opt-in (`ci.sh` sets it adaptively from the core
//!   count);
//! * `FBUF_BENCH_DIR`      — report directory (default
//!   `target/bench-reports`).

use std::process::ExitCode;

use fbuf::shard::{
    fleet_ledger, fleet_snapshot, fleet_telemetry, run_fleet, FleetConfig, ShardReport,
};
use fbuf_sim::bench::{gate_scaling, BenchRunner, ScalingPoint, Unit, MAX_EFFICIENCY};
use fbuf_sim::{knobs, metrics, Json, MachineConfig, Ns, SeriesSnapshot, ToJson};

/// The shard counts to sweep by default: 1,2,4,8 capped to the host's
/// cores (always at least `[1]`).
fn default_thread_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    [1, 2, 4, 8].into_iter().filter(|&n| n <= cores).collect()
}

/// Runs behind every host-time number: each configuration is the
/// fastest of this many.
const COST_RUNS: usize = 3;

/// One thread count's worth of fleet results.
struct FleetRun {
    threads: u64,
    reports: Vec<ShardReport>,
    /// Total fbuf operations across the fleet.
    ops: u64,
    /// Fleet wall-clock: max across shards (they start barrier-aligned).
    host_ns: u64,
    /// Simulated time of the slowest shard.
    sim_elapsed: Ns,
}

impl FleetRun {
    fn ns_per_op(&self) -> f64 {
        self.host_ns as f64 / self.ops.max(1) as f64
    }
}

/// Runs the `base` fleet at one thread count, with telemetry on or off,
/// and asserts the per-shard steady-state invariants plus cross-shard
/// payload conservation.
fn run_at(base: &FleetConfig, threads: usize, metrics: bool) -> Result<FleetRun, String> {
    // Sampling is cadence-gated on simulated time and never touches the
    // counters the steady-state invariant asserts.
    let cfg = FleetConfig {
        shards: threads,
        metrics,
        ..base.clone()
    };
    let reports = run_fleet(&cfg);
    for r in &reports {
        let violations = r.steady_state_violations();
        if !violations.is_empty() {
            return Err(format!(
                "shard {}/{threads} left §3.2.2 steady state: {}",
                r.shard,
                violations.join("; ")
            ));
        }
    }
    let sent: u64 = reports.iter().map(|r| r.sent).sum();
    let received: u64 = reports.iter().map(|r| r.received).sum();
    if sent != received {
        return Err(format!(
            "cross-shard payloads not conserved at {threads} thread(s): {sent} sent, {received} received"
        ));
    }
    Ok(FleetRun {
        threads: threads as u64,
        ops: reports.iter().map(|r| r.fbuf_ops).sum(),
        host_ns: reports.iter().map(|r| r.host_ns).max().unwrap_or(0).max(1),
        sim_elapsed: reports
            .iter()
            .map(|r| r.sim_elapsed)
            .max()
            .unwrap_or(Ns::ZERO),
        reports,
    })
}

/// The one measurement loop. Each of [`COST_RUNS`] rounds runs every
/// thread count with telemetry on, then the widest with telemetry off;
/// each configuration keeps its fastest run. Returns the scaling curve's
/// runs (ascending thread counts) and the telemetry-off run.
fn measure(base: &FleetConfig, threads: &[usize]) -> Result<(Vec<FleetRun>, FleetRun), String> {
    let widest = *threads.last().expect("at least one thread count");
    let configs: Vec<(usize, bool)> = threads
        .iter()
        .map(|&n| (n, true))
        .chain([(widest, false)])
        .collect();
    let mut best: Vec<Option<FleetRun>> = configs.iter().map(|_| None).collect();
    for _ in 0..COST_RUNS {
        for (slot, &(n, metrics)) in best.iter_mut().zip(&configs) {
            let run = run_at(base, n, metrics)?;
            if slot
                .as_ref()
                .is_none_or(|b| run.ns_per_op() < b.ns_per_op())
            {
                *slot = Some(run);
            }
        }
    }
    let mut runs: Vec<FleetRun> = best.into_iter().map(|r| r.expect("measured")).collect();
    let off = runs.pop().expect("the telemetry-off run");
    Ok((runs, off))
}

/// The batched data plane must prove it was observed: the fleet
/// telemetry carries the burst-drain and coalescing gauges (per shard,
/// namespace-prefixed `s<N>.<gauge>`).
fn check_shard_gauges(series: &[SeriesSnapshot]) -> Result<(), String> {
    for gauge in [
        metrics::GAUGE_RING_BATCH_OCCUPANCY,
        metrics::GAUGE_NOTICE_COALESCE_FACTOR,
    ] {
        if !series.iter().any(|s| s.name.ends_with(gauge)) {
            return Err(format!("fleet telemetry lacks a `{gauge}` series"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    fbuf_bench::exit_status("fbuf-stress", try_main())
}

fn try_main() -> Result<(), String> {
    let cycles = knobs::count("FBUF_STRESS_OPS", 200_000);
    let threads =
        knobs::read("FBUF_STRESS_THREADS", knobs::parse_list).unwrap_or_else(default_thread_counts);
    let max_threads = *threads.last().expect("at least one thread count");
    let npaths = knobs::count("FBUF_STRESS_PATHS", 4 * max_threads as u64) as usize;
    let pages = knobs::count("FBUF_STRESS_PAGES", 1);
    let cross_every = knobs::read("FBUF_STRESS_CROSS", knobs::parse_u64).unwrap_or(64);
    // Notice-coalescing window: tokens per reverse-ring slot (1 = the
    // per-element plane).
    let notice_batch =
        knobs::read("FBUF_STRESS_NOTICE_BATCH", knobs::parse_u64).unwrap_or(8) as usize;
    let eff_floor = knobs::read("FBUF_STRESS_EFF_FLOOR", knobs::parse_gate);

    let mut cfg = MachineConfig::decstation_5000_200();
    // Enough physical memory and chunk space that every path's working
    // set stays resident: the workload must never fall off the cached
    // fast path into reclamation. Each shard instantiates its own copy.
    cfg.phys_mem = 64 << 20;
    cfg.chunk_size = 1 << 20;
    let len = pages * cfg.page_size;
    let base = FleetConfig {
        paths: npaths,
        pages,
        cross_every,
        channel_capacity: 16,
        notice_batch,
        ..FleetConfig::new(1, cfg, cycles)
    };

    println!(
        "== fbuf-stress: {} cycles across {} path(s), {} page(s)/buffer, threads {:?}, cross-shard every {}, min of {} interleaved runs ==",
        cycles, npaths, pages, threads, cross_every, COST_RUNS
    );

    let (runs, off) = measure(&base, &threads)?;
    for run in &runs {
        println!(
            "{:>2} thread(s): {:>10} fbuf ops in {:>8.1} ms host ({:.3} us/cycle simulated, {} cross-shard payloads)",
            run.threads,
            run.ops,
            run.host_ns as f64 / 1e6,
            run.sim_elapsed.as_us_f64() / (cycles.max(1) as f64 / run.threads as f64),
            run.reports.iter().map(|r| r.sent).sum::<u64>(),
        );
    }
    // Telemetry's own host cost at the widest configuration.
    let widest = runs.last().expect("at least one run");
    let (off_ns, on_ns) = (off.ns_per_op(), widest.ns_per_op());
    println!(
        "telemetry cost at {max_threads} thread(s): {off_ns:.1} ns/op off, {on_ns:.1} ns/op on ({:.2}x)",
        on_ns / off_ns
    );

    let curve: Vec<ScalingPoint> = runs
        .iter()
        .map(|r| ScalingPoint { threads: r.threads, ops: r.ops, elapsed_ns: r.host_ns })
        .collect();
    gate_scaling(&curve, eff_floor)?;
    let telemetry = fleet_telemetry(&widest.reports);
    check_shard_gauges(&telemetry)?;
    println!(
        "gate: efficiency within (0, {MAX_EFFICIENCY}] at every thread count{}",
        eff_floor.map_or(String::new(), |(t, floor)| format!(
            ", >= {floor:.2} at {t} thread(s)"
        ))
    );

    let first = &runs[0];
    let sim_us_per_cycle = first.sim_elapsed.as_us_f64()
        / (cycles.max(1) as f64 / first.threads as f64);

    let mut runner = BenchRunner::new("stress");
    runner.set_threads(max_threads as u64);
    runner.param("policy", fbuf::QuotaPolicy::default().name().to_json());
    runner.param("ops", cycles);
    runner.param("paths", npaths as u64);
    runner.param("pages_per_buffer", pages);
    runner.param("bytes_per_buffer", len);
    runner.param("cross_every", cross_every);
    runner.param(
        "threads",
        Json::Arr(threads.iter().map(|&n| (n as u64).to_json()).collect()),
    );
    runner.measure("cached_cycle", Unit::SimUs, || sim_us_per_cycle);
    runner.host_throughput("cached_fbuf_ops", first.ops, first.host_ns);
    for run in &runs[1..] {
        runner.host_throughput(
            &format!("cached_fbuf_ops_t{}", run.threads),
            run.ops,
            run.host_ns,
        );
    }
    runner.host_scaling(&curve);
    runner.host_entry(
        "telemetry",
        Json::obj(vec![
            ("threads", (max_threads as u64).to_json()),
            ("paths", (npaths as u64).to_json()),
            ("runs", (COST_RUNS as u64).to_json()),
            ("off_ns_per_op", off_ns.to_json()),
            ("on_ns_per_op", on_ns.to_json()),
            ("on_over_off", (on_ns / off_ns).to_json()),
        ]),
    );
    // One coherent fleet snapshot: the counter merge of the largest run.
    runner.counters(&fleet_snapshot(&widest.reports));
    runner.telemetry(metrics::DEFAULT_CADENCE_NS, &telemetry);
    runner.artifact("ledger", fleet_ledger(&widest.reports).to_json());
    let per_run: Vec<Json> = runs
        .iter()
        .map(|run| {
            Json::obj(vec![
                ("threads", run.threads.to_json()),
                ("fbuf_ops", run.ops.to_json()),
                ("host_ns", run.host_ns.to_json()),
                ("sim_us", run.sim_elapsed.as_us_f64().to_json()),
                (
                    "shards",
                    Json::Arr(
                        run.reports
                            .iter()
                            .map(|r| {
                                Json::obj(vec![
                                    ("shard", (r.shard as u64).to_json()),
                                    ("paths", (r.paths as u64).to_json()),
                                    ("cycles", r.cycles.to_json()),
                                    ("sent", r.sent.to_json()),
                                    ("received", r.received.to_json()),
                                    ("fbuf_ops", r.fbuf_ops.to_json()),
                                    ("cache_hits", r.delta.fbuf_cache_hits.to_json()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    runner.artifact("fleet", Json::Arr(per_run));

    runner
        .finish()
        .map_err(|e| format!("could not write report: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf_sim::MetricPoint;

    fn series(name: &str) -> SeriesSnapshot {
        SeriesSnapshot {
            name: name.to_string(),
            dropped: 0,
            points: vec![MetricPoint {
                at: Ns(1),
                value: 1,
            }],
        }
    }

    #[test]
    fn shard_gauge_gate_needs_both_batched_plane_gauges() {
        let both = [
            series("s0.ring_batch_occupancy"),
            series("s1.notice_coalesce_factor"),
        ];
        assert_eq!(check_shard_gauges(&both), Ok(()));
        let e = check_shard_gauges(&both[..1]).unwrap_err();
        assert!(e.contains("notice_coalesce_factor"), "{e}");
        assert!(check_shard_gauges(&[])
            .unwrap_err()
            .contains("ring_batch_occupancy"));
    }
}
