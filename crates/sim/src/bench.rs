//! An in-repo bench runner reporting **simulated** time (a `criterion`
//! replacement).
//!
//! Criterion measures host wall-clock, which for this workspace answers the
//! wrong question: the system under test is a *simulator*, so wall-clock
//! numbers measure the simulator's implementation, not the mechanisms the
//! paper evaluates. Every scenario here instead returns a sample in the
//! simulator's calibrated timebase — microseconds of simulated machine time,
//! Mb/s of simulated throughput, or a CPU-load fraction — which is directly
//! comparable against the paper's Tables 1–2 and Figures 3–6.
//!
//! Each bench target builds a [`BenchRunner`], records scenarios with
//! [`BenchRunner::measure`], attaches the regenerated paper artifact (rows,
//! curves) with [`BenchRunner::artifact`], and calls
//! [`BenchRunner::finish`], which prints a summary table (median, p10, p90
//! over the iterations) and writes `BENCH_<name>.json`. A report must
//! name the chunk-admission policy its run executed under
//! (`param("policy", …)`); `finish` refuses to write one that does not.
//!
//! Host-time scaling curves ([`ScalingPoint`]) are derived by one
//! function, [`scaling`], and gated by one, [`gate_scaling`].
//!
//! Environment knobs (read through [`knobs`]):
//!
//! * `FBUF_BENCH_ITERS` — iterations per scenario (default 5);
//! * `FBUF_BENCH_SEED` — the seed recorded in the `repro` header
//!   (default: the workspace property-test seed);
//! * `FBUF_BENCH_DIR` — report directory (default `target/bench-reports`).
//!
//! # Examples
//!
//! ```
//! use fbuf_sim::bench::{summarize, BenchRunner, Unit};
//!
//! let s = summarize(&[3.0, 1.0, 2.0]);
//! assert_eq!((s.median, s.p10, s.p90), (2.0, 1.0, 3.0));
//!
//! let mut runner = BenchRunner::named("doctest", 3);
//! runner.measure("constant_cost", Unit::SimUs, || 21.0);
//! let report = runner.report();
//! let row = report.get("results").unwrap().as_arr().unwrap();
//! assert_eq!(row[0].get("median").unwrap().as_f64(), Some(21.0));
//! ```

use std::path::PathBuf;

use crate::hist::Histogram;
use crate::json::{Json, ToJson};
use crate::knobs;
use crate::metrics::{self, SeriesSnapshot};
use crate::stats::StatsSnapshot;

/// The timebase of a scenario's samples. All units are *simulated*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Microseconds of simulated machine time (per page, per op, …).
    SimUs,
    /// Simulated throughput in megabits per second.
    Mbps,
    /// A dimensionless fraction (e.g. CPU load), 0–1.
    Fraction,
}

impl Unit {
    /// Stable label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Unit::SimUs => "sim_us",
            Unit::Mbps => "mbps",
            Unit::Fraction => "fraction",
        }
    }
}

/// Order statistics over a scenario's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p10: f64,
    pub p90: f64,
}

/// Computes nearest-rank median/p10/p90. Panics on an empty slice.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
    let rank = |p: f64| sorted[(p * (sorted.len() - 1) as f64).round() as usize];
    Summary {
        n: sorted.len(),
        median: rank(0.5),
        p10: rank(0.1),
        p90: rank(0.9),
    }
}

struct Scenario {
    label: String,
    unit: Unit,
    samples: Vec<f64>,
    /// Host wall-clock nanoseconds per `measure` closure call, collected
    /// alongside the simulated samples.
    host_ns: Vec<f64>,
}

/// One engine-throughput record for the report's `host.throughput` array:
/// how fast the *simulator itself* executed a workload in wall-clock terms.
struct HostThroughput {
    label: String,
    ops: u64,
    elapsed_ns: u64,
}

impl HostThroughput {
    fn ns_per_op(&self) -> f64 {
        if self.ops > 0 {
            self.elapsed_ns as f64 / self.ops as f64
        } else {
            0.0
        }
    }
}

/// `ops` per second over `elapsed_ns` of wall-clock (0 when no time
/// elapsed).
fn per_sec(ops: u64, elapsed_ns: u64) -> f64 {
    if elapsed_ns > 0 {
        ops as f64 * 1e9 / elapsed_ns as f64
    } else {
        0.0
    }
}

/// One point of the wall-clock thread-scaling curve under `host.scaling`:
/// the whole fleet executed `ops` engine operations in `elapsed_ns` of
/// host time at this thread count.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Shard (OS thread) count of this run.
    pub threads: u64,
    /// Total fbuf operations across all shards.
    pub ops: u64,
    /// Fleet wall-clock for the measured window (max across shards; the
    /// shards start barrier-aligned).
    pub elapsed_ns: u64,
}

/// A [`ScalingPoint`] with the rates derived from it against the
/// curve's first point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scaled {
    /// Shard (OS thread) count of this run.
    pub threads: u64,
    /// Fleet wall-clock throughput.
    pub ops_per_sec: f64,
    /// Throughput over the first point's.
    pub speedup: f64,
    /// Speedup over the thread-count ratio to the first point (1.0 =
    /// perfectly linear).
    pub efficiency: f64,
}

/// Derives throughput, speedup and efficiency for every point of a
/// scaling curve against its first point. This is the one computation
/// behind the report's `host.scaling` block, `finish`'s printed table,
/// and [`gate_scaling`].
pub fn scaling(points: &[ScalingPoint]) -> Vec<Scaled> {
    let Some(first) = points.first() else {
        return Vec::new();
    };
    let base = per_sec(first.ops, first.elapsed_ns);
    let base_threads = first.threads.max(1) as f64;
    points
        .iter()
        .map(|p| {
            let ops_per_sec = per_sec(p.ops, p.elapsed_ns);
            let speedup = if base > 0.0 { ops_per_sec / base } else { 0.0 };
            Scaled {
                threads: p.threads,
                ops_per_sec,
                speedup,
                efficiency: speedup / (p.threads.max(1) as f64 / base_threads),
            }
        })
        .collect()
}

/// Parallel efficiency above this is measurement noise, not scaling: a
/// fleet of independent shards cannot beat linear.
pub const MAX_EFFICIENCY: f64 = 1.05;

/// The host-scaling gate over a measured curve. Every point's
/// efficiency must lie in (0, [`MAX_EFFICIENCY`]] — which also makes
/// every throughput positive — and, given a `floor` of
/// `(threads, efficiency)`, the point at `threads` must reach that
/// efficiency. It compares the values [`scaling`] derives, so exactly
/// the ones `host.scaling` records.
pub fn gate_scaling(points: &[ScalingPoint], floor: Option<(u64, f64)>) -> Result<(), String> {
    let curve = scaling(points);
    for p in &curve {
        if !(p.efficiency > 0.0 && p.efficiency <= MAX_EFFICIENCY) {
            return Err(format!(
                "{}-thread efficiency {:.3} is outside (0, {MAX_EFFICIENCY}]",
                p.threads, p.efficiency
            ));
        }
    }
    if let Some((threads, min)) = floor {
        let p = curve.iter().find(|p| p.threads == threads).ok_or_else(|| {
            let ran: Vec<u64> = curve.iter().map(|p| p.threads).collect();
            format!("the efficiency floor names {threads} thread(s), but the sweep ran {ran:?}")
        })?;
        if p.efficiency < min {
            return Err(format!(
                "{threads}-thread efficiency {:.3} < floor {min:.2}",
                p.efficiency
            ));
        }
    }
    Ok(())
}

/// Collects simulated-time measurements for one bench target and emits the
/// `BENCH_<name>.json` report. See the [module docs](self).
pub struct BenchRunner {
    name: String,
    iters: usize,
    scenarios: Vec<Scenario>,
    artifacts: Vec<(String, Json)>,
    counters: Option<StatsSnapshot>,
    latency: Vec<(String, Histogram)>,
    /// Telemetry gauge series sampled during the run, plus the cadence
    /// they were sampled at (the `telemetry` block; present in every
    /// report, empty when the target recorded no gauges).
    telemetry_cadence_ns: u64,
    telemetry: Vec<SeriesSnapshot>,
    host_throughput: Vec<HostThroughput>,
    host_scaling: Vec<ScalingPoint>,
    /// Further `host.<key>` blocks, in insertion order.
    host_entries: Vec<(String, Json)>,
    /// RNG seed the workload ran under (the `repro` header).
    seed: u64,
    /// OS threads the workload ran across (the `repro` header).
    threads: u64,
    /// Workload parameters, for bit-for-bit regeneration from the report.
    params: Vec<(String, Json)>,
}

impl BenchRunner {
    /// Creates a runner for the bench target `name`, reading
    /// `FBUF_BENCH_ITERS` (default 5) for the per-scenario iteration count.
    pub fn new(name: &str) -> BenchRunner {
        BenchRunner::named(name, knobs::count("FBUF_BENCH_ITERS", 5) as usize)
    }

    /// Creates a runner with an explicit iteration count (used by tests
    /// and doctests). The seed still comes from `FBUF_BENCH_SEED`.
    pub fn named(name: &str, iters: usize) -> BenchRunner {
        let seed =
            knobs::read("FBUF_BENCH_SEED", knobs::parse_u64).unwrap_or(crate::check::DEFAULT_SEED);
        BenchRunner {
            name: name.to_string(),
            iters,
            scenarios: Vec::new(),
            artifacts: Vec::new(),
            counters: None,
            latency: Vec::new(),
            telemetry_cadence_ns: metrics::DEFAULT_CADENCE_NS,
            telemetry: Vec::new(),
            host_throughput: Vec::new(),
            host_scaling: Vec::new(),
            host_entries: Vec::new(),
            seed,
            threads: 1,
            params: Vec::new(),
        }
    }

    /// Records the RNG seed the workload ran under, for the report's
    /// `repro` header. Defaults to `FBUF_BENCH_SEED` or the workspace
    /// property-test seed, so every report carries *a* seed even when the
    /// target never draws random numbers.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Records the OS-thread count the workload ran across (`repro`
    /// header; defaults to 1 — every target before the sharded stress
    /// harness is single-threaded by construction).
    pub fn set_threads(&mut self, threads: u64) {
        self.threads = threads.max(1);
    }

    /// Records one workload parameter in the report's `repro.params`
    /// header. A report whose header lists every knob the run consumed
    /// can be regenerated bit-for-bit from the report alone.
    pub fn param(&mut self, key: &str, value: impl ToJson) {
        self.params.push((key.to_string(), value.to_json()));
    }

    /// Iterations each scenario runs.
    pub fn iters(&self) -> usize {
        self.iters
    }

    /// Runs `f` for this runner's iteration count, recording one simulated
    /// sample per call under `label`. Each call is also timed with the
    /// host's monotonic clock, feeding the report's `host` block — the
    /// simulated numbers answer the paper's questions, the host numbers
    /// answer "how fast is the engine itself".
    pub fn measure(&mut self, label: &str, unit: Unit, mut f: impl FnMut() -> f64) {
        let mut samples = Vec::with_capacity(self.iters);
        let mut host_ns = Vec::with_capacity(self.iters);
        for _ in 0..self.iters {
            let t0 = std::time::Instant::now();
            samples.push(f());
            host_ns.push(t0.elapsed().as_nanos() as f64);
        }
        self.scenarios.push(Scenario {
            label: label.to_string(),
            unit,
            samples,
            host_ns,
        });
    }

    /// Records an engine-throughput measurement under `host.throughput`:
    /// `ops` operations took `elapsed_ns` of host wall-clock.
    pub fn host_throughput(&mut self, label: &str, ops: u64, elapsed_ns: u64) {
        self.host_throughput.push(HostThroughput {
            label: label.to_string(),
            ops,
            elapsed_ns,
        });
    }

    /// Records the wall-clock thread-scaling curve under `host.scaling`:
    /// one [`ScalingPoint`] per thread count, in ascending order. Each
    /// point gains the `ops_per_sec`, `speedup_vs_1t` (vs the first
    /// point) and `efficiency` fields [`scaling`] derives.
    pub fn host_scaling(&mut self, points: &[ScalingPoint]) {
        self.host_scaling.extend_from_slice(points);
    }

    /// Attaches a further host-time block to the report under
    /// `host.<key>` (e.g. `fbuf-stress`'s `host.telemetry` cost).
    pub fn host_entry(&mut self, key: &str, value: Json) {
        self.host_entries.push((key.to_string(), value));
    }

    /// Attaches a regenerated paper artifact (table rows, figure curves) to
    /// the JSON report under `artifacts.<key>`.
    pub fn artifact(&mut self, key: &str, value: Json) {
        self.artifacts.push((key.to_string(), value));
    }

    /// Attaches the operation-counter delta of a representative workload
    /// (a [`StatsSnapshot::delta`] over the measured section) to the
    /// report's `counters` object. Repeated calls accumulate so a target
    /// with several workloads reports their sum.
    pub fn counters(&mut self, delta: &StatsSnapshot) {
        self.counters = Some(match &self.counters {
            None => delta.clone(),
            Some(acc) => acc.plus(delta),
        });
    }

    /// Attaches a latency percentile block (p50/p90/p99 and friends, see
    /// [`Histogram`]'s `ToJson`) under `latency` with the given label.
    /// Empty histograms are skipped — a percentile over nothing is noise.
    pub fn latency(&mut self, label: &str, hist: &Histogram) {
        if !hist.is_empty() {
            self.latency.push((label.to_string(), hist.clone()));
        }
    }

    /// Attaches sampled telemetry series (and the cadence they were
    /// sampled at) to the report's `telemetry` block. Repeated calls
    /// append, so a target with several workloads (or merged shards)
    /// reports them all.
    pub fn telemetry(&mut self, cadence_ns: u64, series: &[SeriesSnapshot]) {
        self.telemetry_cadence_ns = cadence_ns;
        self.telemetry.extend_from_slice(series);
    }

    /// The full report as a JSON value (the exact document `finish` writes).
    pub fn report(&self) -> Json {
        let results: Vec<Json> = self
            .scenarios
            .iter()
            .map(|s| {
                let sum = summarize(&s.samples);
                Json::obj(vec![
                    ("label", s.label.to_json()),
                    ("unit", s.unit.label().to_json()),
                    ("n", sum.n.to_json()),
                    ("median", sum.median.to_json()),
                    ("p10", sum.p10.to_json()),
                    ("p90", sum.p90.to_json()),
                    ("samples", s.samples.to_json()),
                ])
            })
            .collect();
        let latency: Vec<Json> = self
            .latency
            .iter()
            .map(|(label, h)| {
                let mut fields = vec![("label".to_string(), label.to_json())];
                if let Json::Obj(hist_fields) = h.to_json() {
                    fields.extend(hist_fields);
                }
                Json::Obj(fields)
            })
            .collect();
        let host_scenarios: Vec<Json> = self
            .scenarios
            .iter()
            .filter(|s| !s.host_ns.is_empty())
            .map(|s| {
                let sum = summarize(&s.host_ns);
                let ops_per_sec = if sum.median > 0.0 { 1e9 / sum.median } else { 0.0 };
                Json::obj(vec![
                    ("label", s.label.to_json()),
                    ("median_ns", sum.median.to_json()),
                    ("p10_ns", sum.p10.to_json()),
                    ("p90_ns", sum.p90.to_json()),
                    ("calls_per_sec", ops_per_sec.to_json()),
                ])
            })
            .collect();
        let host_tp: Vec<Json> = self
            .host_throughput
            .iter()
            .map(|t| {
                Json::obj(vec![
                    ("label", t.label.to_json()),
                    ("ops", t.ops.to_json()),
                    ("elapsed_ns", t.elapsed_ns.to_json()),
                    ("ns_per_op", t.ns_per_op().to_json()),
                    ("ops_per_sec", per_sec(t.ops, t.elapsed_ns).to_json()),
                ])
            })
            .collect();
        let host_scaling: Vec<Json> = self
            .host_scaling
            .iter()
            .zip(scaling(&self.host_scaling))
            .map(|(p, s)| {
                Json::obj(vec![
                    ("threads", p.threads.to_json()),
                    ("ops", p.ops.to_json()),
                    ("elapsed_ns", p.elapsed_ns.to_json()),
                    ("ops_per_sec", s.ops_per_sec.to_json()),
                    ("speedup_vs_1t", s.speedup.to_json()),
                    ("efficiency", s.efficiency.to_json()),
                ])
            })
            .collect();
        let mut host_fields = vec![
            ("timebase", "wall_clock_ns".to_json()),
            ("scenarios", Json::Arr(host_scenarios)),
            ("throughput", Json::Arr(host_tp)),
            ("scaling", Json::Arr(host_scaling)),
        ];
        host_fields.extend(self.host_entries.iter().map(|(k, v)| (k.as_str(), v.clone())));
        let host = Json::obj(host_fields);
        let repro = Json::obj(vec![
            ("seed", self.seed.to_json()),
            ("threads", self.threads.to_json()),
            (
                "params",
                Json::Obj(self.params.iter().map(|(k, v)| (k.clone(), v.clone())).collect()),
            ),
        ]);
        Json::obj(vec![
            ("bench", self.name.to_json()),
            ("timebase", "simulated".to_json()),
            ("iters", self.iters.to_json()),
            ("repro", repro),
            ("results", Json::Arr(results)),
            ("host", host),
            (
                "counters",
                self.counters
                    .as_ref()
                    .map(|c| c.to_json())
                    .unwrap_or(Json::obj(vec![])),
            ),
            ("latency", Json::Arr(latency)),
            (
                "telemetry",
                metrics::telemetry_json(self.telemetry_cadence_ns, &self.telemetry),
            ),
            (
                "artifacts",
                Json::Obj(self.artifacts.iter().map(|(k, v)| (k.clone(), v.clone())).collect()),
            ),
        ])
    }

    /// The write-time rule: `repro.params.policy` names the
    /// chunk-admission policy the run executed under — a string, or a
    /// non-empty array of strings for a multi-policy sweep.
    fn check_policy(&self) -> Result<(), String> {
        let named = match self.params.iter().find(|(k, _)| k == "policy") {
            Some((_, Json::Str(_))) => true,
            Some((_, Json::Arr(a))) => !a.is_empty() && a.iter().all(|v| v.as_str().is_some()),
            _ => false,
        };
        if named {
            Ok(())
        } else {
            Err(format!(
                "BENCH_{}: `repro.params.policy` must name the admission policy (a string or a non-empty string array)",
                self.name
            ))
        }
    }

    /// Prints the summary table, writes `BENCH_<name>.json` into
    /// `FBUF_BENCH_DIR` (default `target/bench-reports`), and returns the
    /// report path. Refuses (`InvalidInput`, nothing written) a report
    /// that does not name its policy.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        self.check_policy()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        println!("\n== bench {} (simulated time) ==", self.name);
        println!(
            "{:<36} {:>9} {:>12} {:>12} {:>12}",
            "scenario", "unit", "median", "p10", "p90"
        );
        for s in &self.scenarios {
            let sum = summarize(&s.samples);
            println!(
                "{:<36} {:>9} {:>12.2} {:>12.2} {:>12.2}",
                s.label,
                s.unit.label(),
                sum.median,
                sum.p10,
                sum.p90
            );
        }
        for t in &self.host_throughput {
            println!(
                "host: {:<29} {:>10} ops in {:>8.1} ms -> {:>8.1} ns/op, {:>11.0} ops/s",
                t.label,
                t.ops,
                t.elapsed_ns as f64 / 1e6,
                t.ns_per_op(),
                per_sec(t.ops, t.elapsed_ns)
            );
        }
        if !self.host_scaling.is_empty() {
            println!("host scaling (wall-clock):");
            for s in scaling(&self.host_scaling) {
                println!(
                    "  {:>2} thread(s): {:>11.0} ops/s  ({:.2}x vs first, {:.0}% of linear)",
                    s.threads,
                    s.ops_per_sec,
                    s.speedup,
                    s.efficiency * 100.0
                );
            }
        }
        let dir = report_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.report().render())?;
        println!("wrote {}", path.display());
        Ok(path)
    }
}

/// The report directory: `FBUF_BENCH_DIR`, default `target/bench-reports`.
pub fn report_dir() -> PathBuf {
    std::env::var_os("FBUF_BENCH_DIR")
        .map_or_else(|| PathBuf::from("target/bench-reports"), PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_order_statistics() {
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.p10, 1.0);
        assert_eq!(s.p90, 5.0);
        let one = summarize(&[7.5]);
        assert_eq!((one.median, one.p10, one.p90), (7.5, 7.5, 7.5));
    }

    #[test]
    fn report_schema_has_expected_fields() {
        let mut r = BenchRunner::named("schema_check", 4);
        let mut x = 0.0;
        r.measure("ramp", Unit::Mbps, || {
            x += 10.0;
            x
        });
        r.artifact("rows", Json::Arr(vec![Json::obj(vec![("a", 1u64.to_json())])]));
        let doc = r.report();
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("schema_check"));
        assert_eq!(doc.get("timebase").unwrap().as_str(), Some("simulated"));
        let results = doc.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 1);
        let row = &results[0];
        assert_eq!(row.get("label").unwrap().as_str(), Some("ramp"));
        assert_eq!(row.get("unit").unwrap().as_str(), Some("mbps"));
        assert_eq!(row.get("n").unwrap().as_f64(), Some(4.0));
        assert_eq!(row.get("median").unwrap().as_f64(), Some(30.0));
        assert_eq!(row.get("p10").unwrap().as_f64(), Some(10.0));
        assert_eq!(row.get("p90").unwrap().as_f64(), Some(40.0));
        assert!(doc.get("artifacts").unwrap().get("rows").is_some());
    }

    #[test]
    fn report_carries_counters_and_latency_blocks() {
        use crate::stats::Stats;
        let mut r = BenchRunner::named("observed", 1);
        r.measure("x", Unit::SimUs, || 1.0);
        // Counter delta over a fake measured section.
        let s = Stats::new();
        let before = s.snapshot();
        s.inc_fbuf_cache_hits();
        s.inc_fbuf_cache_hits();
        r.counters(&s.snapshot().delta(&before));
        // Accumulation across workloads.
        let mark = s.snapshot();
        s.inc_pdus_sent();
        r.counters(&s.snapshot().delta(&mark));
        let mut h = Histogram::new();
        h.record(5_000);
        h.record(6_000);
        r.latency("transfer", &h);
        r.latency("empty", &Histogram::new()); // skipped
        let doc = r.report();
        let counters = doc.get("counters").expect("counters object");
        assert!(counters.get("fbuf_cache_hits").unwrap().as_f64().unwrap() >= 2.0);
        let lat = doc.get("latency").unwrap().as_arr().unwrap();
        assert_eq!(lat.len(), 1, "empty histogram skipped");
        assert_eq!(lat[0].get("label").unwrap().as_str(), Some("transfer"));
        assert!(lat[0].get("p50_ns").unwrap().as_f64().unwrap() >= 5_000.0);
        assert!(lat[0].get("p99_ns").is_some());
    }

    #[test]
    fn counters_and_latency_keys_always_present() {
        let mut r = BenchRunner::named("bare", 1);
        r.measure("x", Unit::SimUs, || 1.0);
        let doc = r.report();
        assert!(doc.get("counters").is_some(), "counters key is stable");
        assert_eq!(doc.get("latency").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn telemetry_block_always_present_and_carries_series() {
        // Bare report: the block exists with the default cadence and no
        // series, so readers can rely on the key unconditionally.
        let mut r = BenchRunner::named("bare_telemetry", 1);
        r.measure("x", Unit::SimUs, || 1.0);
        let doc = r.report();
        let t = doc.get("telemetry").expect("telemetry key is stable");
        assert_eq!(
            t.get("cadence_ns").unwrap().as_f64(),
            Some(metrics::DEFAULT_CADENCE_NS as f64)
        );
        assert_eq!(t.get("series").unwrap().as_arr().unwrap().len(), 0);

        // Attached series come through with name, drop count, and
        // [t, v] points in sampling order.
        let m = metrics::Metrics::new();
        m.set_enabled(true);
        let row = m.register_row(None, &[], &["inbox0".to_string()]);
        m.push_row(row, crate::Ns(10), |w| w.set(0, 3));
        m.advance(crate::Ns(20_000));
        m.push_row(row, crate::Ns(20_000), |w| w.set(0, 5));
        let mut r = BenchRunner::named("with_telemetry", 1);
        r.measure("x", Unit::SimUs, || 1.0);
        r.telemetry(metrics::DEFAULT_CADENCE_NS, &m.series());
        let doc = r.report();
        let tele = doc.get("telemetry").unwrap();
        let series = tele.get("series").unwrap().as_arr().unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].get("name").unwrap().as_str(), Some("inbox0"));
        let points = series[0].get("points").unwrap().as_arr().unwrap();
        assert_eq!(points.len(), 2);
        let ts: Vec<f64> = points
            .iter()
            .map(|p| p.as_arr().unwrap()[0].as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "points time-ordered");
    }

    #[test]
    fn host_block_reports_wall_clock_for_every_scenario() {
        let mut r = BenchRunner::named("hosted", 3);
        r.measure("work", Unit::SimUs, || 1.0);
        r.host_throughput("steady_state", 1_000, 2_000_000);
        let doc = r.report();
        let host = doc.get("host").expect("host block present");
        assert_eq!(host.get("timebase").unwrap().as_str(), Some("wall_clock_ns"));
        let scen = host.get("scenarios").unwrap().as_arr().unwrap();
        assert_eq!(scen.len(), 1);
        assert_eq!(scen[0].get("label").unwrap().as_str(), Some("work"));
        assert!(scen[0].get("median_ns").unwrap().as_f64().is_some());
        let tp = host.get("throughput").unwrap().as_arr().unwrap();
        assert_eq!(tp.len(), 1);
        assert_eq!(tp[0].get("ops").unwrap().as_f64(), Some(1_000.0));
        assert_eq!(tp[0].get("ns_per_op").unwrap().as_f64(), Some(2_000.0));
        assert_eq!(tp[0].get("ops_per_sec").unwrap().as_f64(), Some(500_000.0));
    }

    #[test]
    fn every_report_carries_a_repro_header() {
        let mut r = BenchRunner::named("reproducible", 1);
        r.measure("x", Unit::SimUs, || 1.0);
        let doc = r.report();
        let repro = doc.get("repro").expect("repro header always present");
        assert!(repro.get("seed").unwrap().as_f64().is_some());
        assert_eq!(repro.get("threads").unwrap().as_f64(), Some(1.0));
        assert!(repro.get("params").is_some(), "params object always present");
    }

    #[test]
    fn repro_header_records_seed_threads_and_params() {
        let mut r = BenchRunner::named("knobs", 1);
        r.set_seed(0xdead_beef);
        r.set_threads(4);
        r.param("msgs", 128u64);
        r.param("size", 65_536u64);
        let doc = Json::parse(&r.report().render()).unwrap();
        let repro = doc.get("repro").unwrap();
        assert_eq!(repro.get("seed").unwrap().as_f64(), Some(0xdead_beefu32 as f64));
        assert_eq!(repro.get("threads").unwrap().as_f64(), Some(4.0));
        let params = repro.get("params").unwrap();
        assert_eq!(params.get("msgs").unwrap().as_f64(), Some(128.0));
        assert_eq!(params.get("size").unwrap().as_f64(), Some(65_536.0));
    }

    #[test]
    fn scaling_block_derives_speedup_and_efficiency() {
        let mut r = BenchRunner::named("scaled", 1);
        r.host_scaling(&[
            ScalingPoint { threads: 1, ops: 1_000, elapsed_ns: 1_000_000 },
            ScalingPoint { threads: 2, ops: 2_000, elapsed_ns: 1_250_000 },
            ScalingPoint { threads: 4, ops: 4_000, elapsed_ns: 1_600_000 },
        ]);
        let doc = r.report();
        let scaling = doc.get("host").unwrap().get("scaling").unwrap().as_arr().unwrap();
        assert_eq!(scaling.len(), 3);
        assert_eq!(scaling[0].get("threads").unwrap().as_f64(), Some(1.0));
        assert_eq!(scaling[0].get("ops_per_sec").unwrap().as_f64(), Some(1e6));
        assert_eq!(scaling[0].get("speedup_vs_1t").unwrap().as_f64(), Some(1.0));
        assert_eq!(scaling[0].get("efficiency").unwrap().as_f64(), Some(1.0));
        // 2 threads: 1.6x speedup -> 80% efficiency.
        assert_eq!(scaling[1].get("speedup_vs_1t").unwrap().as_f64(), Some(1.6));
        assert!((scaling[1].get("efficiency").unwrap().as_f64().unwrap() - 0.8).abs() < 1e-9);
        // 4 threads: 2.5x speedup -> 62.5% efficiency.
        assert_eq!(scaling[2].get("speedup_vs_1t").unwrap().as_f64(), Some(2.5));
        assert!((scaling[2].get("efficiency").unwrap().as_f64().unwrap() - 0.625).abs() < 1e-9);
    }

    /// A 1-to-2-thread curve whose 2-thread run took `ns2` for the
    /// 1-thread run's ops over 1 ms: efficiency is `500_000 / ns2`.
    fn curve(ns2: u64) -> [ScalingPoint; 2] {
        [
            ScalingPoint { threads: 1, ops: 1_000, elapsed_ns: 1_000_000 },
            ScalingPoint { threads: 2, ops: 1_000, elapsed_ns: ns2 },
        ]
    }

    #[test]
    fn scaling_gate_passes_a_curve_above_its_floor() {
        // 1.6x at 2 threads: 80% of linear.
        assert_eq!(gate_scaling(&curve(625_000), Some((2, 0.6))), Ok(()));
        assert_eq!(gate_scaling(&curve(625_000), None), Ok(()));
        // A lone point is its own baseline: efficiency 1.0.
        assert_eq!(gate_scaling(&curve(625_000)[..1], None), Ok(()));
    }

    #[test]
    fn scaling_gate_fails_a_floor_breach() {
        // 1.1x at 2 threads: 55% of linear.
        let e = gate_scaling(&curve(909_091), Some((2, 0.6))).unwrap_err();
        assert!(e.contains("2-thread efficiency 0.550 < floor 0.60"), "{e}");
    }

    #[test]
    fn scaling_gate_fails_superlinear_efficiency() {
        // 2.8x at 2 threads: 140% of linear, beyond the 1.05 bound,
        // with or without a floor.
        for floor in [None, Some((2, 0.6))] {
            let e = gate_scaling(&curve(357_143), floor).unwrap_err();
            assert!(e.contains("2-thread efficiency 1.400 is outside (0, 1.05]"), "{e}");
        }
        // Just under the bound passes; zero throughput does not.
        assert_eq!(gate_scaling(&curve(476_191), None), Ok(()));
        let stalled = [ScalingPoint { threads: 1, ops: 0, elapsed_ns: 1 }];
        assert!(gate_scaling(&stalled, None).unwrap_err().contains("outside (0"));
    }

    #[test]
    fn scaling_gate_fails_a_floor_on_a_thread_count_the_sweep_skipped() {
        let e = gate_scaling(&curve(625_000), Some((4, 0.6))).unwrap_err();
        assert!(e.contains("names 4 thread(s), but the sweep ran [1, 2]"), "{e}");
    }

    #[test]
    fn scaling_gate_compares_the_efficiency_host_scaling_records() {
        let points = curve(700_001);
        let mut r = BenchRunner::named("gated", 1);
        r.host_scaling(&points);
        let doc = Json::parse(&r.report().render()).unwrap();
        let recorded = doc.get("host").unwrap().get("scaling").unwrap().as_arr().unwrap()[1]
            .get("efficiency")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(recorded, scaling(&points)[1].efficiency);
        // A floor at exactly the recorded value passes; the next float
        // above it fails.
        assert_eq!(gate_scaling(&points, Some((2, recorded))), Ok(()));
        let above = f64::from_bits(recorded.to_bits() + 1);
        assert!(gate_scaling(&points, Some((2, above))).is_err());
    }

    #[test]
    fn finish_refuses_a_report_that_does_not_name_its_policy() {
        let mut r = BenchRunner::named("unnamed_policy", 1);
        r.measure("x", Unit::SimUs, || 1.0);
        let e = r.finish().unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
        assert!(e.to_string().contains("repro.params.policy"), "{e}");

        let named = |policy: Json| {
            let mut r = BenchRunner::named("named_policy", 1);
            r.param("policy", policy);
            r.check_policy()
        };
        assert_eq!(named("static".to_json()), Ok(()));
        assert_eq!(named(Json::Arr(vec!["static".to_json(), "fb-dynamic".to_json()])), Ok(()));
        assert!(named(Json::Arr(vec![])).is_err());
        assert!(named(1u64.to_json()).is_err());
    }

    #[test]
    fn host_entries_travel_in_the_host_block() {
        let mut r = BenchRunner::named("costed", 1);
        r.host_entry("telemetry", Json::obj(vec![("on_ns_per_op", 2.5.to_json())]));
        let doc = r.report();
        let t = doc.get("host").unwrap().get("telemetry").expect("entry recorded");
        assert_eq!(t.get("on_ns_per_op").unwrap().as_f64(), Some(2.5));
    }

    #[test]
    fn scaling_block_is_an_empty_array_when_unused() {
        let mut r = BenchRunner::named("unscaled", 1);
        r.measure("x", Unit::SimUs, || 1.0);
        let doc = r.report();
        let scaling = doc.get("host").unwrap().get("scaling").unwrap().as_arr().unwrap();
        assert!(scaling.is_empty());
    }

    #[test]
    fn report_round_trips_through_the_parser() {
        let mut r = BenchRunner::named("roundtrip", 2);
        r.measure("slope", Unit::SimUs, || 21.0);
        let text = r.report().render();
        let back = Json::parse(&text).unwrap();
        let row = &back.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("median").unwrap().as_f64(), Some(21.0));
        assert_eq!(row.get("unit").unwrap().as_str(), Some("sim_us"));
    }
}
