//! Host-time benchmark of the fbufs simulator.
//!
//! Three seeded workloads drive the public APIs of `sim`, `vm`, `ipc`,
//! `fbuf` (reported as layer `core`), `xkernel` and `net`:
//!
//! * [`fleet`] — `cached-fleet`, the §3.2.2 cached fast path on a
//!   two-shard fleet with telemetry on;
//! * [`repro`] — `paper-repro`, the paper's loopback and Osiris figure
//!   configurations over a size sweep;
//! * [`fanin`] — `zipf-fanin`, Zipf-skewed on/off flows competing for
//!   chunks under the static admission quota.
//!
//! The untraced run reports the end-to-end metrics ([`END_TO_END`]); the
//! traced run reports the per-layer metrics ([`PER_LAYER`]) from spans
//! the benchmark records around its own calls ([`trace`]) plus probes
//! of calls the workload loops cannot reach ([`probes`]). `NOTES.md` says why
//! each workload exists and which layer metric should move which
//! end-to-end metric.

pub mod fanin;
pub mod fleet;
pub mod probes;
pub mod repro;
pub mod trace;

use std::fmt::Write as _;

use fbuf_sim::StatsSnapshot;
use trace::{Meter, Sp, SpanRec, Tracer};

/// Workload names, as the command line takes them.
pub const WORKLOADS: [&str; 3] = ["cached-fleet", "paper-repro", "zipf-fanin"];

/// End-to-end metrics of the untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("xfer_per_s", "1/s"),
    ("xfer_ns_p50", "ns"),
    ("xfer_ns_p99", "ns"),
    ("xfer_ns_min", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mbps", "Mb/s"),
    ("sim_admit_frac", "fraction"),
];

/// Per-layer metrics of the traced run: name and unit. A metric a
/// workload has no boundary for reads 0 (a count of nothing).
pub const PER_LAYER: [(&str, &str); 66] = [
    ("core.alloc.ns_p50", "ns"),
    ("core.alloc.ns_p99", "ns"),
    ("core.alloc.calls", "1/xfer"),
    ("core.alloc.denied", "1/xfer"),
    ("core.alloc.hit_ratio", "fraction"),
    ("core.send.ns_p50", "ns"),
    ("core.send.ns_p99", "ns"),
    ("core.free.ns_p50", "ns"),
    ("core.free.ns_p99", "ns"),
    ("core.write.ns_p50", "ns"),
    ("core.self_frac", "fraction"),
    ("core.policy.denials_per_offer", "1/offer"),
    ("core.policy.chunks_granted", "1/xfer"),
    ("core.policy.occupancy_peak", "chunks"),
    ("core.policy.wait_ns_p99", "sim_ns"),
    ("ipc.hop.ns_p50", "ns"),
    ("ipc.hop.ns_p99", "ns"),
    ("ipc.hop.calls", "1/xfer"),
    ("ipc.messages_per_xfer", "1/xfer"),
    ("ipc.piggybacked_notices_per_xfer", "1/xfer"),
    ("ipc.overload_drops", "count"),
    ("core.shard.egress.ns_p50", "ns"),
    ("core.shard.egress.ns_p99", "ns"),
    ("core.shard.poll.ns_p50", "ns"),
    ("core.shard.poll.ns_p99", "ns"),
    ("core.shard.poll.empty_frac", "fraction"),
    ("core.shard.imbalance", "ratio"),
    ("core.shard.payloads", "1/xfer"),
    ("core.shard.orphan_notices", "count"),
    ("core.shard.rejected_tokens", "count"),
    ("sim.metrics.sample_ns", "ns"),
    ("sim.metrics.samples_per_xfer", "1/xfer"),
    ("sim.metrics.series", "count"),
    ("sim.metrics.refused_names", "count"),
    ("sim.spsc.coalesce", "tokens/batch"),
    ("sim.sim_ns_per_xfer", "sim_ns"),
    ("vm.pte_updates_per_xfer", "1/xfer"),
    ("vm.pages_cleared_per_xfer", "1/xfer"),
    ("vm.tlb_refills_per_xfer", "1/xfer"),
    ("vm.tlb_flushes_per_xfer", "1/xfer"),
    ("vm.frames_allocated_per_xfer", "1/xfer"),
    ("vm.soft_faults_per_xfer", "1/xfer"),
    ("vm.map_range.ns_per_page_1", "ns/page"),
    ("vm.map_range.ns_per_page_16", "ns/page"),
    ("vm.map_range.ns_per_page_256", "ns/page"),
    ("vm.protect_range.ns_per_page_1", "ns/page"),
    ("vm.protect_range.ns_per_page_16", "ns/page"),
    ("vm.protect_range.ns_per_page_256", "ns/page"),
    ("vm.unmap_range.ns_per_page_1", "ns/page"),
    ("vm.unmap_range.ns_per_page_16", "ns/page"),
    ("vm.unmap_range.ns_per_page_256", "ns/page"),
    ("xkernel.msg.split_ns", "ns"),
    ("xkernel.msg.concat_ns", "ns"),
    ("xkernel.fragments_per_xfer", "1/xfer"),
    ("net.loopback.cached.ns_p50", "ns"),
    ("net.loopback.cached.ns_p99", "ns"),
    ("net.loopback.uncached.ns_p50", "ns"),
    ("net.loopback.uncached.ns_p99", "ns"),
    ("net.osiris.fig5.ns_p50", "ns"),
    ("net.osiris.fig5.ns_p99", "ns"),
    ("net.osiris.fig6.ns_p50", "ns"),
    ("net.osiris.fig6.ns_p99", "ns"),
    ("net.pdus_per_xfer", "1/xfer"),
    ("net.uncached_rx_frac", "fraction"),
    ("bench.gen.ns_per_xfer", "ns/xfer"),
    ("trace.overhead_frac", "fraction"),
];

/// How one run is driven, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Host seconds the measured phase lasts.
    pub seconds: f64,
    /// Traced run: half the time untraced, half traced, then probes.
    pub trace: bool,
}

impl Opts {
    /// Seconds of the untraced measured phase.
    pub fn untraced_secs(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Seconds of the traced phase (0 for an untraced run).
    pub fn traced_secs(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            0.0
        }
    }

    /// Set-up repetitions: the untraced run reports their median.
    pub fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            9
        }
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: transfers offered plus correctness checks.
    pub attempted: u64,
    /// Operations that failed: failed transfers plus failed checks.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Transfers completed in the untraced measured phase.
    pub xfers: u64,
    /// Host seconds of the untraced measured phase.
    pub wall_s: f64,
    /// Per-transfer timing of the untraced measured phase, one meter per
    /// caller thread.
    pub meters: Vec<Meter>,
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Simulated payload throughput over the seed-fixed reference window.
    pub sim_mbps: f64,
    /// Arrivals admitted over arrivals offered, same window.
    pub sim_admit_frac: f64,
    /// Per-layer metrics (traced run only).
    pub layer: Vec<(&'static str, f64)>,
    /// Spans kept for the span file (traced run only).
    pub spans: Vec<SpanRec>,
}

impl Outcome {
    /// Counts one correctness check; a failed check is a failed
    /// operation, recorded and survived.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Counts `n` attempted transfers of which `failed` failed.
    pub fn transfers(&mut self, n: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            self.problems.push(why());
        }
    }
}

/// Consecutive windows of one caller per batch of the `xfer_ns_min`
/// statistic.
pub const BATCH_WINDOWS: usize = 3;

/// The windowed host-time statistics of a set of callers' meters. The
/// host's speed drifts by up to 2x over seconds and between runs; the
/// fastest window's percentiles move far less with that drift than the
/// run's do (NOTES.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostStats {
    /// Lowest median transfer duration of any window, ns.
    pub p50_ns: f64,
    /// Lowest 99th-percentile transfer duration of any window, ns.
    pub p99_ns: f64,
    /// Lowest mean time per transfer over any batch of [`BATCH_WINDOWS`]
    /// consecutive windows of one caller, ns.
    pub min_ns: f64,
}

/// Reads [`HostStats`] off the callers' closed windows (0 where no
/// window, or no whole batch, closed).
pub fn host_stats(meters: &[Meter]) -> HostStats {
    let lowest = |vals: &mut dyn Iterator<Item = f64>| {
        let v = vals.fold(f64::INFINITY, f64::min);
        if v.is_finite() {
            v
        } else {
            0.0
        }
    };
    let windows = || meters.iter().flat_map(|m| &m.windows);
    HostStats {
        p50_ns: lowest(&mut windows().map(|w| w.p50_ns)),
        p99_ns: lowest(&mut windows().map(|w| w.p99_ns)),
        min_ns: lowest(&mut meters.iter().flat_map(|m| {
            m.windows
                .chunks_exact(BATCH_WINDOWS)
                .map(|b| b.iter().map(|w| w.mean_ns).sum::<f64>() / BATCH_WINDOWS as f64)
        })),
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), MB; 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-layer metrics every workload derives the same way: span
/// percentiles and call counts at each boundary, and counter deltas per
/// transfer. `xfers` are the transfers of the traced phase and
/// `caller_ns` the host time its callers spent in it (summed over
/// threads).
pub fn common_layers(
    tr: &Tracer,
    delta: &StatsSnapshot,
    xfers: u64,
    caller_ns: f64,
) -> Vec<(&'static str, f64)> {
    let x = xfers as f64;
    let q = |sp: Sp| tr.agg(sp).ns.quantiles(&[0.5, 0.99]);
    let per = |n: u64| ratio(n as f64, x);
    let (alloc, send, free, write, hop) = (
        q(Sp::Alloc),
        q(Sp::Send),
        q(Sp::Free),
        q(Sp::Write),
        q(Sp::Hop),
    );
    let (egress, poll) = (q(Sp::Egress), q(Sp::Poll));
    let (lc, lu, f5, f6) = (
        q(Sp::LoopCached),
        q(Sp::LoopUncached),
        q(Sp::Fig5),
        q(Sp::Fig6),
    );
    let core_self: u64 = [Sp::Alloc, Sp::Write, Sp::Send, Sp::Free]
        .iter()
        .map(|&s| tr.agg(s).self_ns)
        .sum();
    let rx = delta.driver_cached_rx + delta.driver_uncached_rx;
    vec![
        ("core.alloc.ns_p50", alloc[0]),
        ("core.alloc.ns_p99", alloc[1]),
        ("core.alloc.calls", per(tr.agg(Sp::Alloc).calls)),
        ("core.alloc.denied", per(tr.agg(Sp::Alloc).failed)),
        (
            "core.alloc.hit_ratio",
            ratio(
                delta.fbuf_cache_hits as f64,
                (delta.fbuf_cache_hits + delta.fbuf_cache_misses) as f64,
            ),
        ),
        ("core.send.ns_p50", send[0]),
        ("core.send.ns_p99", send[1]),
        ("core.free.ns_p50", free[0]),
        ("core.free.ns_p99", free[1]),
        ("core.write.ns_p50", write[0]),
        ("core.self_frac", ratio(core_self as f64, caller_ns)),
        ("core.policy.chunks_granted", per(delta.chunks_granted)),
        ("ipc.hop.ns_p50", hop[0]),
        ("ipc.hop.ns_p99", hop[1]),
        ("ipc.hop.calls", per(tr.agg(Sp::Hop).calls)),
        ("ipc.messages_per_xfer", per(delta.ipc_messages)),
        (
            "ipc.piggybacked_notices_per_xfer",
            per(delta.piggybacked_notices),
        ),
        ("ipc.overload_drops", delta.overload_drops as f64),
        ("core.shard.egress.ns_p50", egress[0]),
        ("core.shard.egress.ns_p99", egress[1]),
        ("core.shard.poll.ns_p50", poll[0]),
        ("core.shard.poll.ns_p99", poll[1]),
        ("vm.pte_updates_per_xfer", per(delta.pte_updates)),
        ("vm.pages_cleared_per_xfer", per(delta.pages_cleared)),
        ("vm.tlb_refills_per_xfer", per(delta.tlb_refills)),
        ("vm.tlb_flushes_per_xfer", per(delta.tlb_flushes)),
        ("vm.frames_allocated_per_xfer", per(delta.frames_allocated)),
        ("vm.soft_faults_per_xfer", per(delta.soft_faults)),
        ("net.loopback.cached.ns_p50", lc[0]),
        ("net.loopback.cached.ns_p99", lc[1]),
        ("net.loopback.uncached.ns_p50", lu[0]),
        ("net.loopback.uncached.ns_p99", lu[1]),
        ("net.osiris.fig5.ns_p50", f5[0]),
        ("net.osiris.fig5.ns_p99", f5[1]),
        ("net.osiris.fig6.ns_p50", f6[0]),
        ("net.osiris.fig6.ns_p99", f6[1]),
        ("net.pdus_per_xfer", per(delta.pdus_sent)),
        (
            "net.uncached_rx_frac",
            ratio(delta.driver_uncached_rx as f64, rx as f64),
        ),
        ("bench.gen.ns_per_xfer", per(tr.agg(Sp::Gen).total_ns)),
    ]
}

/// `trace.overhead_frac`: the share of untraced throughput the traced
/// phase lost (negative when the traced phase happened to run faster).
pub fn trace_overhead(untraced_per_s: f64, traced_per_s: f64) -> (&'static str, f64) {
    (
        "trace.overhead_frac",
        1.0 - ratio(traced_per_s, untraced_per_s),
    )
}

/// Renders the result line: `correct`, `attempted`, `failed`, and the
/// end-to-end (untraced) or per-layer (traced) metrics with units.
pub fn result_json(o: &Outcome, trace: bool) -> String {
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if trace {
        for &(name, unit) in &PER_LAYER {
            let v = o
                .layer
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            metrics.push((name, v, unit));
        }
    } else {
        let h = host_stats(&o.meters);
        for &(name, unit) in &END_TO_END {
            let v = match name {
                "xfer_per_s" => ratio(o.xfers as f64, o.wall_s),
                "xfer_ns_p50" => h.p50_ns,
                "xfer_ns_p99" => h.p99_ns,
                "xfer_ns_min" => h.min_ns,
                "setup_s" => median(&o.setup_s),
                "peak_rss_mb" => peak_rss_mb(),
                "sim_mbps" => o.sim_mbps,
                "sim_admit_frac" => o.sim_admit_frac,
                _ => unreachable!("every END_TO_END name is handled"),
            };
            metrics.push((name, v, unit));
        }
    }
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.failed == 0,
        o.attempted.max(1),
        o.failed
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    s.push_str("}}");
    s
}

/// Renders kept spans as JSON lines (name, start, end, parent, transfer).
pub fn spans_jsonl(spans: &[SpanRec]) -> String {
    let mut s = String::new();
    for r in spans {
        let _ = writeln!(
            s,
            "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"xfer\": {}}}",
            r.id,
            r.sp.name(),
            r.start_ns,
            r.end_ns,
            r.parent,
            r.xfer
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                doc.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks workload {w}"
            );
        }
    }

    #[test]
    fn result_line_carries_every_metric() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        let line = result_json(&o, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        o.check(false, || "planted".into());
        let traced = result_json(&o, true);
        assert!(traced.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(traced.contains("\"trace.overhead_frac\""));
    }

    #[test]
    fn host_stats_read_the_fastest_window_and_batch() {
        let mut m = Meter::new(100);
        for w in 0..3 * BATCH_WINDOWS as u64 {
            let ns = if w == 1 { 1000 } else { 5000 };
            for i in 0..100 {
                m.record(ns + i % 2);
            }
        }
        let h = host_stats(&[m.clone(), m]);
        assert_eq!(h.p50_ns, 1000.0);
        assert_eq!(h.p99_ns, 1001.0);
        assert!(h.min_ns > 0.0);
        let none = HostStats {
            p50_ns: 0.0,
            p99_ns: 0.0,
            min_ns: 0.0,
        };
        assert_eq!(host_stats(&[Meter::new(10)]), none);
    }
}
