//! `fbuf-queue`: per-hop queueing delay and overload under offered load.
//!
//! Every synchronous target measures drained transfers — one in flight at
//! a time, so queueing delay is identically zero. This target drives the
//! event-loop engine (`fbuf::engine`, DESIGN.md §12) the way the
//! recursive descent never could: it posts **bursts** of transfers before
//! letting the per-shard loop drain, so events genuinely wait in the
//! bounded per-domain inboxes. For each offered-load point (burst size)
//! it reports:
//!
//! * the per-hop **queueing delay** percentiles (p50/p90/p99, simulated
//!   ns from enqueue to dequeue) under `latency`;
//! * **completed / aborted / overload** counts — past the inbox depth,
//!   admission control refuses work with the explicit `Overload` outcome
//!   instead of queueing without bound;
//! * delivered throughput in simulated Mb/s.
//!
//! The run fails unless transfers are conserved at every point
//! (`completed + aborted == offered`), burst 1 shows zero queueing (the
//! drained regime the counter-exactness tests pin), and delay grows with
//! offered load once bursts exceed 1.
//!
//! Environment knobs:
//!
//! * `FBUF_QUEUE_TRANSFERS` — transfers offered per sweep point
//!   (default 512);
//! * `FBUF_QUEUE_BURSTS`    — comma-separated burst sizes to sweep,
//!   e.g. `1,4,16,64` (default; each burst is posted before the loop
//!   drains — the offered load);
//! * `FBUF_QUEUE_HOPS`      — transfer legs per route (default 2: the
//!   canonical originator → netserver → receiver chain);
//! * `FBUF_QUEUE_DEPTH`     — bounded inbox depth (default 64; sweep
//!   points past it show explicit overload);
//! * `FBUF_QUEUE_PAGES`     — pages per fbuf (default 1);
//! * `FBUF_QUEUE_SLO_P99_NS` — p99 per-hop queueing-delay SLO for the
//!   drained (burst 1) regime, in simulated ns; the run fails if the
//!   drained p99 exceeds it (a regression tripwire: queueing leaking
//!   into the sequential path shows up here first);
//! * `FBUF_BENCH_DIR`       — report directory (default
//!   `target/bench-reports`).

use std::process::ExitCode;
use std::time::Instant;

use fbuf::{run_offered_load, QueueConfig, QueueReport};
use fbuf_bench::knobs;
use fbuf_sim::bench::{BenchRunner, Unit};
use fbuf_sim::{Json, ToJson};

/// One sweep point's invariants; the engine must conserve transfers and
/// only ever refuse work explicitly.
fn check_point(burst: usize, r: &QueueReport) -> Result<(), String> {
    if r.completed + r.aborted != r.offered {
        return Err(format!(
            "burst {burst}: {} completed + {} aborted != {} offered — transfers lost",
            r.completed, r.aborted, r.offered
        ));
    }
    if burst == 1 && r.queue_delay.max() != 0 {
        return Err(format!(
            "burst 1: max queue delay {} ns — the drained regime must queue nothing",
            r.queue_delay.max()
        ));
    }
    if burst == 1 && (r.aborted != 0 || r.overloads != 0) {
        return Err(format!(
            "burst 1: {} aborts / {} overloads in the drained regime",
            r.aborted, r.overloads
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let transfers = knobs::count("FBUF_QUEUE_TRANSFERS", 512);
    let bursts =
        knobs::read("FBUF_QUEUE_BURSTS", knobs::parse_list).unwrap_or_else(|| vec![1, 4, 16, 64]);
    let hops = knobs::count("FBUF_QUEUE_HOPS", 2) as usize;
    let depth = knobs::count("FBUF_QUEUE_DEPTH", 64) as usize;
    let pages = knobs::count("FBUF_QUEUE_PAGES", 1);
    let slo = knobs::read("FBUF_QUEUE_SLO_P99_NS", knobs::parse_u64);

    println!(
        "== fbuf-queue: {transfers} transfers/point, bursts {bursts:?}, {hops} hop(s), inbox depth {depth}, {pages} page(s)/fbuf =="
    );
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "burst", "completed", "aborted", "overload", "p50_ns", "p90_ns", "p99_ns", "mbps"
    );

    let host_t0 = Instant::now();
    let mut points: Vec<(usize, QueueReport)> = Vec::with_capacity(bursts.len());
    for &burst in &bursts {
        let cfg = QueueConfig {
            transfers,
            burst,
            hops,
            pages,
            inbox_depth: depth,
        };
        let r = match run_offered_load(&cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("fbuf-queue FAILED at burst {burst}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = check_point(burst, &r) {
            eprintln!("fbuf-queue FAILED: {e}");
            return ExitCode::FAILURE;
        }
        let mbps = r.elapsed.mbps(r.bytes_delivered);
        println!(
            "{:>6} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10.1}",
            burst,
            r.completed,
            r.aborted,
            r.overloads,
            r.queue_delay.p50(),
            r.queue_delay.p90(),
            r.queue_delay.p99(),
            mbps,
        );
        points.push((burst, r));
    }
    let host_ns = host_t0.elapsed().as_nanos().max(1) as u64;

    // Where the heaviest point's transfer time went, per causal span.
    if let Some((burst, r)) = points.last() {
        println!(
            "span stages at burst {burst}: {} spans, queueing p50/p99 {}/{} ns, service p50/p99 {}/{} ns",
            r.spans.spans,
            r.spans.queueing.p50(),
            r.spans.queueing.p99(),
            r.spans.service.p50(),
            r.spans.service.p99(),
        );
    }

    // Optional SLO gate on the drained regime's tail: with one transfer
    // in flight, per-hop queueing delay must stay within the threshold.
    if let Some(slo) = slo {
        let Some((_, drained)) = points.iter().find(|(b, _)| *b == 1) else {
            eprintln!(
                "fbuf-queue FAILED: FBUF_QUEUE_SLO_P99_NS set, but the sweep has no burst-1 (drained) point"
            );
            return ExitCode::FAILURE;
        };
        let p99 = drained.queue_delay.p99();
        if p99 > slo {
            eprintln!(
                "fbuf-queue FAILED: drained p99 queueing delay {p99} ns exceeds the SLO of {slo} ns"
            );
            return ExitCode::FAILURE;
        }
        println!("SLO: drained p99 queueing delay {p99} ns <= {slo} ns");
    }

    // Queueing delay must actually respond to offered load: the largest
    // burst waits strictly longer at the tail than the drained regime.
    if bursts.len() > 1 {
        let first = &points.first().expect("at least one point").1;
        let last = &points.last().expect("at least one point").1;
        if last.queue_delay.p99() <= first.queue_delay.p99() && last.queue_delay.max() == 0 {
            eprintln!(
                "fbuf-queue FAILED: offered load {}x never built queueing delay",
                bursts.last().expect("non-empty")
            );
            return ExitCode::FAILURE;
        }
    }

    let mut runner = BenchRunner::new("queue");
    runner.set_threads(1);
    runner.param("policy", fbuf::QuotaPolicy::default().name().to_json());
    runner.param("transfers", transfers);
    runner.param("hops", hops as u64);
    runner.param("inbox_depth", depth as u64);
    runner.param("pages_per_fbuf", pages);
    runner.param(
        "bursts",
        Json::Arr(bursts.iter().map(|&b| (b as u64).to_json()).collect()),
    );
    let total_completed: u64 = points.iter().map(|(_, r)| r.completed).sum();
    for (burst, r) in &points {
        runner.latency(&format!("queue_delay_b{burst}"), &r.queue_delay);
        runner.measure(&format!("xfer_sim_us_b{burst}"), Unit::SimUs, || {
            r.elapsed.as_us_f64() / r.completed.max(1) as f64
        });
        runner.measure(&format!("delivered_mbps_b{burst}"), Unit::Mbps, || {
            r.elapsed.mbps(r.bytes_delivered)
        });
    }
    runner.host_throughput("transfers_completed", total_completed, host_ns, None);
    // The highest-load point's telemetry (inbox depths, pending events,
    // overload drops over simulated time) is the interesting one.
    if let Some((_, r)) = points.last() {
        runner.telemetry(fbuf_sim::metrics::DEFAULT_CADENCE_NS, &r.telemetry);
    }
    let sweep: Vec<Json> = points
        .iter()
        .map(|(burst, r)| {
            Json::obj(vec![
                ("burst", (*burst as u64).to_json()),
                ("offered", r.offered.to_json()),
                ("completed", r.completed.to_json()),
                ("aborted", r.aborted.to_json()),
                ("overloads", r.overloads.to_json()),
                ("queue_delay_p50_ns", r.queue_delay.p50().to_json()),
                ("queue_delay_p90_ns", r.queue_delay.p90().to_json()),
                ("queue_delay_p99_ns", r.queue_delay.p99().to_json()),
                ("queue_delay_max_ns", r.queue_delay.max().to_json()),
                ("sim_elapsed_us", r.elapsed.as_us_f64().to_json()),
                ("bytes_delivered", r.bytes_delivered.to_json()),
            ])
        })
        .collect();
    runner.artifact("sweep", Json::Arr(sweep));
    // Where each point's transfer time went, stage by stage (spans
    // reconstructed from the engine's causal trace — DESIGN.md §13).
    let stages: Vec<Json> = points
        .iter()
        .map(|(burst, r)| {
            Json::obj(vec![
                ("burst", (*burst as u64).to_json()),
                ("decomposition", r.spans.to_json()),
            ])
        })
        .collect();
    runner.artifact("span_stages", Json::Arr(stages));

    match runner.finish() {
        Ok(path) => {
            println!("report: {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fbuf-queue FAILED: could not write report: {e}");
            ExitCode::FAILURE
        }
    }
}
