//! `fbuf-trace`: runs the canonical cached three-domain loopback
//! workload with the structured tracer enabled, prints a per-path
//! breakdown, audits the event stream against the fbuf lifecycle
//! invariants, and writes `TRACE_<name>.json` in Chrome `trace_event`
//! format (load it in `about://tracing` or Perfetto).
//!
//! Environment knobs:
//!
//! * `FBUF_TRACE_MSGS` — messages after warm-up (default 16);
//! * `FBUF_TRACE_SIZE` — message size in bytes (default 16384);
//! * `FBUF_BENCH_DIR`  — output directory (default `target/bench-reports`).
//!
//! Exits nonzero if the audit finds a violation or the written JSON
//! fails to round-trip through the in-repo parser.

use std::process::ExitCode;

use fbuf_net::{LoopbackConfig, LoopbackStack};
use fbuf_sim::bench::report_dir;
use fbuf_sim::knobs;
use fbuf_sim::{audit_tracer, EventKind, Json, MachineConfig};

fn main() -> ExitCode {
    fbuf_bench::exit_status("fbuf-trace", try_main())
}

fn try_main() -> Result<(), String> {
    let msgs = knobs::count("FBUF_TRACE_MSGS", 16);
    let size = knobs::count("FBUF_TRACE_SIZE", 16 << 10);

    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 24 << 20;
    let mut stack = LoopbackStack::new(cfg, LoopbackConfig::paper(true, true));
    let tracer = stack.fbs.machine().tracer();
    tracer.set_enabled(true);

    // Warm the per-path cache, then the measured section.
    for _ in 0..2 {
        stack.send_message(size, false).expect("warm-up message");
    }
    let mark = stack.fbs.stats().snapshot();
    let t0 = stack.fbs.machine().clock().now();
    for _ in 0..msgs {
        stack.send_message(size, false).expect("traced message");
    }
    let elapsed = stack.fbs.machine().clock().now() - t0;
    let delta = stack.fbs.stats().snapshot().delta(&mark);

    println!(
        "== fbuf-trace: {} x {} B cached loopback, {} events ({} dropped) ==",
        msgs,
        size,
        tracer.len(),
        tracer.dropped()
    );
    println!(
        "simulated elapsed: {:.1} us, throughput {:.0} Mb/s",
        elapsed.as_us_f64(),
        elapsed.mbps(size * msgs)
    );

    // Per-path breakdown. Events carry the path key; latency histograms
    // are keyed the same way (None = uncached / pathless).
    let events = tracer.events();
    println!(
        "\n{:<10} {:>9} {:>6} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "path", "transfers", "hits", "misses", "alloc_p50", "alloc_p99", "xfer_p50", "xfer_p99"
    );
    let mut keys = tracer.latency_paths();
    keys.sort_unstable();
    for key in keys {
        let count = |kind: EventKind| {
            events
                .iter()
                .filter(|e| e.kind == kind && e.path == key)
                .count()
        };
        let label = key.map_or_else(|| "-".to_string(), |p| format!("path{p}"));
        let fmt = |h: Option<fbuf_sim::Histogram>, pick: fn(&fbuf_sim::Histogram) -> u64| {
            h.filter(|h| !h.is_empty())
                .map_or_else(|| "-".to_string(), |h| format!("{:.1}us", pick(&h) as f64 / 1_000.0))
        };
        println!(
            "{:<10} {:>9} {:>6} {:>8} {:>12} {:>12} {:>12} {:>12}",
            label,
            count(EventKind::Transfer),
            count(EventKind::CacheHit),
            count(EventKind::CacheMiss),
            fmt(tracer.alloc_latency(key), |h| h.p50()),
            fmt(tracer.alloc_latency(key), |h| h.p99()),
            fmt(tracer.transfer_latency(key), |h| h.p50()),
            fmt(tracer.transfer_latency(key), |h| h.p99()),
        );
    }
    println!("\ncounter deltas over the measured section:\n{delta}");

    // Replay-audit the whole ring against the lifecycle invariants.
    let report = audit_tracer(&tracer);
    if !report.is_clean() {
        let violations: Vec<String> = report.violations.iter().map(ToString::to_string).collect();
        return Err(format!("audit: {}", violations.join("; ")));
    }
    // Non-fatal caveats: an overflowed ring truncates histograms and
    // makes the lifecycle replay incomplete — say so loudly.
    for w in &report.warnings {
        println!("audit WARNING: {w}");
    }
    println!(
        "audit: clean ({} events, {} fbufs tracked, complete={}, {} dropped)",
        report.events, report.fbufs_tracked, report.complete, report.dropped
    );

    // Export, then prove the artifact parses with the in-repo parser and
    // carries the event kinds the acceptance gate names.
    let dir = report_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("TRACE_loopback.json");
    let rendered = tracer.chrome_trace().render();
    std::fs::write(&path, &rendered)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let parsed =
        Json::parse(&rendered).map_err(|e| format!("written trace does not parse: {e:?}"))?;
    let names: Vec<&str> = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .map(|evs| {
            evs.iter()
                .filter_map(|e| e.get("name").and_then(Json::as_str))
                .collect()
        })
        .unwrap_or_default();
    for required in ["Alloc", "Transfer", "CacheHit", "Free"] {
        if !names.contains(&required) {
            return Err(format!("trace is missing required event kind {required}"));
        }
    }
    if parsed.get("dropped_events").and_then(Json::as_f64).is_none() {
        return Err("trace is missing the dropped_events counter".into());
    }
    println!("wrote {} ({} events)", path.display(), names.len());
    Ok(())
}
