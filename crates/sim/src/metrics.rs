//! Time-series telemetry: gauges sampled on a simulated-time cadence.
//!
//! A [`Metrics`] handle is shared the same way as the
//! [`Tracer`](crate::Tracer): the machine creates one, every layer
//! borrows it, and it is **disabled by default** behind a single
//! `Cell<bool>` read. Sampling never charges the clock, so enabling
//! telemetry observes a run without moving a simulated nanosecond — the
//! same zero-cost-by-default contract the tracer pins.
//!
//! Instrumented code polls [`Metrics::due`] at natural checkpoints
//! (allocation, hop dispatch, ring polls); when the simulated clock has
//! passed the next sample deadline, it records one gauge reading per
//! series and calls [`Metrics::advance`]. A gauge is **registered once**
//! ([`Metrics::gauge`] / [`Metrics::fixed_gauge`]) and recorded by its
//! dense [`Gauge`] handle ([`Metrics::record`]): an index and a ring
//! push, with no name formatting or lookup on the sampling path.
//! Samplers keep their handles in a [`GaugeCache`], which resolves each
//! one on the first sample that sees the gauge, so series keep their
//! first-seen order. Each series is a **bounded ring**: it grows to
//! its capacity, then the oldest point is dropped and counted, so a
//! long workload keeps a bounded recent window rather than growing
//! without limit — exactly the trace-ring policy, applied to gauges.
//!
//! Per-shard series are folded fleet-wide by [`merge_shards`] (names
//! prefixed `s<shard>.`, each shard's clock is independent) and
//! exported into every `BENCH_*.json` as the `telemetry` block via
//! [`telemetry_json`]. See `DESIGN.md` §13.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::json::{Json, ToJson};
use crate::time::Ns;

/// Default sampling cadence: one gauge reading per simulated 10 µs —
/// fine enough to resolve per-message dynamics, coarse enough that a
/// full figure sweep stays a few thousand points per series.
pub const DEFAULT_CADENCE_NS: u64 = 10_000;

/// Default points retained per series before the ring evicts.
pub const DEFAULT_POINTS: usize = 4_096;

/// Default cap on per-path and per-domain series ([`Metrics::gauge`]):
/// once this many exist, a new name is refused and counted rather than
/// allocated. Fixed gauges ([`Metrics::fixed_gauge`]) do not count
/// against it and are always admitted.
pub const DEFAULT_MAX_SERIES: usize = 64;

/// Sentinel slot of a handle the series cap refused.
const REFUSED: u32 = u32::MAX;

/// Well-known gauge: size of the last non-empty burst a shard drained
/// from its ingress data ring in one acquire (`Consumer::drain_into`).
/// A value above 1 means the batched consumer amortized ring
/// synchronization across that many cross-shard payloads.
pub const GAUGE_RING_BATCH_OCCUPANCY: &str = "ring_batch_occupancy";

/// Well-known gauge: average dealloc-notice tokens per flushed
/// `NoticeBatch` ring slot, in fixed-point hundredths (100 = one token
/// per slot, 800 = eight tokens coalesced into each slot). Tracks how
/// much reverse-ring traffic the coalescing plane saves.
pub const GAUGE_NOTICE_COALESCE_FACTOR: &str = "notice_coalesce_factor";

/// A registered gauge: a dense index into its [`Metrics`] series table,
/// valid until the next [`Metrics::clear`]. `Copy`, so a sampler caches
/// it (see [`GaugeCache`]) and records by index from then on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauge {
    /// Series index, or [`REFUSED`] when the cap turned the name away.
    slot: u32,
    /// The [`Metrics`] epoch the handle was resolved in.
    epoch: u32,
}

impl Gauge {
    /// Whether the series cap refused this gauge (recording it only
    /// counts `refused_names`).
    fn is_refused(self) -> bool {
        self.slot == REFUSED
    }
}

/// One gauge reading: simulated time and value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricPoint {
    /// Simulated time of the sample.
    pub at: Ns,
    /// The gauge value.
    pub value: u64,
}

/// An owned snapshot of one series, safe to move across threads (a
/// shard hands these back in its report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Series name (e.g. `live_fbufs`; fleet-merged names are prefixed
    /// `s<shard>.`).
    pub name: String,
    /// Points evicted from the full ring.
    pub dropped: u64,
    /// Retained points, oldest first.
    pub points: Vec<MetricPoint>,
}

#[derive(Debug)]
struct SeriesRing {
    name: String,
    dropped: u64,
    points: VecDeque<MetricPoint>,
}

#[derive(Debug)]
struct MetricsInner {
    cap: usize,
    /// Cap on `capped`.
    max_series: usize,
    /// Series registered through [`Metrics::gauge`].
    capped: usize,
    /// Records into gauges refused because `max_series` was reached.
    refused_names: u64,
    series: Vec<SeriesRing>,
}

impl MetricsInner {
    /// The handle of `name` in `epoch`: its existing series, a new one,
    /// or a refusal when `capped` and the cap is reached.
    fn register(&mut self, name: &str, capped: bool, epoch: u32) -> Gauge {
        let slot = match self.series.iter().position(|s| s.name == name) {
            Some(i) => i as u32,
            None if capped && self.capped >= self.max_series => REFUSED,
            None => {
                self.capped += usize::from(capped);
                self.series.push(SeriesRing {
                    name: name.to_string(),
                    dropped: 0,
                    points: VecDeque::new(),
                });
                (self.series.len() - 1) as u32
            }
        };
        Gauge { slot, epoch }
    }
}

#[derive(Debug)]
struct MetricsShared {
    enabled: Cell<bool>,
    cadence: Cell<u64>,
    next: Cell<u64>,
    /// Bumped by [`Metrics::clear`]; handles from an older epoch are
    /// stale.
    epoch: Cell<u32>,
    inner: RefCell<MetricsInner>,
}

/// Shared telemetry handle. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use fbuf_sim::metrics::Metrics;
/// use fbuf_sim::Ns;
///
/// let m = Metrics::new();
/// assert!(!m.due(Ns(0)), "disabled: never due");
/// m.set_enabled(true);
/// let live = m.gauge("live_fbufs");
/// if m.due(Ns(0)) {
///     m.record(Ns(0), live, 3);
///     m.advance(Ns(0));
/// }
/// assert!(!m.due(Ns(5_000)), "cadence not yet elapsed");
/// assert_eq!(m.series()[0].points.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Metrics {
    shared: Rc<MetricsShared>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// A disabled metric set with the default cadence and capacities.
    pub fn new() -> Metrics {
        Metrics {
            shared: Rc::new(MetricsShared {
                enabled: Cell::new(false),
                cadence: Cell::new(DEFAULT_CADENCE_NS),
                next: Cell::new(0),
                epoch: Cell::new(0),
                inner: RefCell::new(MetricsInner {
                    cap: DEFAULT_POINTS,
                    max_series: DEFAULT_MAX_SERIES,
                    capped: 0,
                    refused_names: 0,
                    series: Vec::new(),
                }),
            }),
        }
    }

    /// Turns sampling on or off. Recorded series are kept either way.
    pub fn set_enabled(&self, on: bool) {
        self.shared.enabled.set(on);
    }

    /// Whether gauges are currently sampled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.get()
    }

    /// Sets the simulated-time sampling cadence (clamped to ≥ 1 ns).
    pub fn set_cadence(&self, ns: u64) {
        self.shared.cadence.set(ns.max(1));
    }

    /// The simulated-time sampling cadence in ns.
    pub fn cadence(&self) -> u64 {
        self.shared.cadence.get()
    }

    /// True when a sample is due at simulated time `now`: enabled and
    /// at least one cadence past the previous sample. A disabled set is
    /// never due — one `Cell` read, the whole disabled-path cost.
    pub fn due(&self, now: Ns) -> bool {
        self.shared.enabled.get() && now.0 >= self.shared.next.get()
    }

    /// Arms the next sample deadline one cadence after `now`. Call once
    /// per due-sample batch.
    pub fn advance(&self, now: Ns) {
        self.shared.next.set(now.0.saturating_add(self.shared.cadence.get()));
    }

    /// Registers a per-path or per-domain gauge: the handle of `name`'s
    /// series, created (empty) on first registration while fewer than
    /// the series cap of such series exist. Past the cap the handle is
    /// refused, and every [`record`](Metrics::record) into it counts
    /// one [`refused_names`](Metrics::refused_names).
    pub fn gauge(&self, name: &str) -> Gauge {
        let epoch = self.shared.epoch.get();
        self.shared.inner.borrow_mut().register(name, true, epoch)
    }

    /// Registers a fixed gauge — one of a static set of names, such as
    /// the system-wide and shard gauges. Fixed gauges are exempt from
    /// the series cap, so the per-path explosion can never crowd them
    /// out.
    pub fn fixed_gauge(&self, name: &str) -> Gauge {
        let epoch = self.shared.epoch.get();
        self.shared.inner.borrow_mut().register(name, false, epoch)
    }

    /// Records one gauge reading by handle: an index and a ring push.
    /// No-op while disabled, and for a handle resolved before the last
    /// [`clear`](Metrics::clear) (it never writes into a stale index).
    #[inline]
    pub fn record(&self, now: Ns, gauge: Gauge, value: u64) {
        if !self.shared.enabled.get() || gauge.epoch != self.shared.epoch.get() {
            return;
        }
        let mut inner = self.shared.inner.borrow_mut();
        if gauge.is_refused() {
            inner.refused_names += 1;
            return;
        }
        let cap = inner.cap;
        let s = &mut inner.series[gauge.slot as usize];
        if s.points.len() == cap {
            s.points.pop_front();
            s.dropped += 1;
        }
        s.points.push_back(MetricPoint { at: now, value });
    }

    /// The registration epoch: bumped by every [`clear`](Metrics::clear).
    #[inline]
    fn epoch(&self) -> u32 {
        self.shared.epoch.get()
    }

    /// Resizes every series ring (evicting oldest points if shrinking).
    pub fn set_capacity(&self, cap: usize) {
        let mut inner = self.shared.inner.borrow_mut();
        inner.cap = cap.max(1);
        let cap = inner.cap;
        for s in &mut inner.series {
            while s.points.len() > cap {
                s.points.pop_front();
                s.dropped += 1;
            }
        }
    }

    /// Records into gauges the series cap refused.
    pub fn refused_names(&self) -> u64 {
        self.shared.inner.borrow().refused_names
    }

    /// Owned snapshots of every series, in first-seen order.
    pub fn series(&self) -> Vec<SeriesSnapshot> {
        self.shared
            .inner
            .borrow()
            .series
            .iter()
            .map(|s| SeriesSnapshot {
                name: s.name.clone(),
                dropped: s.dropped,
                points: s.points.iter().copied().collect(),
            })
            .collect()
    }

    /// Discards every series, invalidates every handle (bumps the
    /// epoch), and re-arms the sample deadline at zero (keeps
    /// enablement, cadence, and capacities).
    pub fn clear(&self) {
        let mut inner = self.shared.inner.borrow_mut();
        inner.series.clear();
        inner.capped = 0;
        inner.refused_names = 0;
        drop(inner);
        self.shared.epoch.set(self.shared.epoch.get().wrapping_add(1));
        self.shared.next.set(0);
    }

    /// This metric set rendered as a `telemetry` block.
    pub fn to_json(&self) -> Json {
        telemetry_json(self.cadence(), &self.series())
    }
}

/// Gauge handles a sampler caches across samples, keyed by a dense
/// local index (a fixed gauge's position, a path or domain slot).
/// Each handle is resolved on the first sample that sees its gauge, so
/// series keep their first-seen order; a [`Metrics::clear`] invalidates
/// them all at once, and they are re-resolved on next use.
#[derive(Debug, Default)]
pub struct GaugeCache {
    epoch: u32,
    handles: Vec<Option<Gauge>>,
}

impl GaugeCache {
    /// The handle cached under `key`, resolved by `register` if this
    /// cache has none for the current epoch of `m`.
    pub fn get(
        &mut self,
        m: &Metrics,
        key: usize,
        register: impl FnOnce(&Metrics) -> Gauge,
    ) -> Gauge {
        if self.epoch != m.epoch() {
            self.epoch = m.epoch();
            self.handles.clear();
        }
        if let Some(Some(g)) = self.handles.get(key) {
            return *g;
        }
        let g = register(m);
        if self.handles.len() <= key {
            self.handles.resize(key + 1, None);
        }
        self.handles[key] = Some(g);
        g
    }
}

/// Folds per-shard series into one fleet-wide set: each shard's series
/// keep their own (independent) simulated timeline and are namespaced
/// `s<shard>.<name>`, preserving order.
pub fn merge_shards(shards: &[(u32, Vec<SeriesSnapshot>)]) -> Vec<SeriesSnapshot> {
    let mut out = Vec::new();
    for (shard, series) in shards {
        for s in series {
            out.push(SeriesSnapshot {
                name: format!("s{shard}.{}", s.name),
                dropped: s.dropped,
                points: s.points.clone(),
            });
        }
    }
    out
}

/// Renders the stable `telemetry` block every `BENCH_*.json` carries:
/// the sampling cadence and one `{name, dropped, points: [[ns, value],
/// ...]}` object per series.
pub fn telemetry_json(cadence_ns: u64, series: &[SeriesSnapshot]) -> Json {
    let arr = series
        .iter()
        .map(|s| {
            let points = s
                .points
                .iter()
                .map(|p| Json::Arr(vec![p.at.0.to_json(), p.value.to_json()]))
                .collect();
            Json::obj(vec![
                ("name", s.name.as_str().to_json()),
                ("dropped", s.dropped.to_json()),
                ("points", Json::Arr(points)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("cadence_ns", cadence_ns.to_json()),
        ("series", Json::Arr(arr)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_metrics_record_nothing_and_are_never_due() {
        let m = Metrics::new();
        assert!(!m.due(Ns(u64::MAX / 2)));
        let g = m.gauge("x");
        m.record(Ns(0), g, 1);
        assert!(m.series()[0].points.is_empty());
    }

    #[test]
    fn cadence_gates_sampling() {
        let m = Metrics::new();
        m.set_enabled(true);
        m.set_cadence(1_000);
        let g = m.gauge("g");
        assert!(m.due(Ns(0)));
        m.record(Ns(0), g, 1);
        m.advance(Ns(0));
        assert!(!m.due(Ns(999)));
        assert!(m.due(Ns(1_000)));
        m.record(Ns(1_000), g, 2);
        m.advance(Ns(1_000));
        let s = &m.series()[0];
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[1].value, 2);
        assert_eq!(s.points[1].at, Ns(1_000));
    }

    #[test]
    fn series_ring_evicts_oldest_and_counts_drops() {
        let m = Metrics::new();
        m.set_enabled(true);
        m.set_capacity(2);
        let g = m.gauge("g");
        for i in 0..5u64 {
            m.record(Ns(i), g, i);
        }
        let s = &m.series()[0];
        assert_eq!(s.dropped, 3);
        let vals: Vec<u64> = s.points.iter().map(|p| p.value).collect();
        assert_eq!(vals, vec![3, 4]);
    }

    #[test]
    fn series_cap_refuses_new_names() {
        let m = Metrics::new();
        m.set_enabled(true);
        m.shared.inner.borrow_mut().max_series = 1;
        // Fixed gauges neither count against the cap nor are refused
        // by it, before or after it fills.
        let f = m.fixed_gauge("f");
        let a = m.gauge("a");
        let b = m.gauge("b");
        let g = m.fixed_gauge("g");
        assert!(!f.is_refused() && !a.is_refused() && !g.is_refused());
        assert!(b.is_refused());
        // A refused handle counts once per record, like a refused name
        // used to count once per sample.
        for t in 0..3 {
            for h in [f, a, b, g] {
                m.record(Ns(t), h, t);
            }
        }
        assert_eq!(m.refused_names(), 3);
        let got: Vec<(String, usize)> = m
            .series()
            .into_iter()
            .map(|s| (s.name, s.points.len()))
            .collect();
        assert_eq!(got, [("f".into(), 3), ("a".into(), 3), ("g".into(), 3)]);
    }

    #[test]
    fn reregistration_keeps_first_seen_order() {
        let m = Metrics::new();
        m.set_enabled(true);
        let a = m.gauge("a");
        let b = m.fixed_gauge("b");
        // Registering a known name, under either kind, returns its
        // existing handle rather than a second series.
        assert_eq!(m.gauge("b"), b);
        assert_eq!(m.fixed_gauge("a"), a);
        m.record(Ns(0), b, 1);
        m.record(Ns(0), a, 2);
        let names: Vec<String> = m.series().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn stale_handles_never_write_after_clear() {
        let m = Metrics::new();
        m.set_enabled(true);
        let x = m.gauge("x");
        m.record(Ns(0), x, 1);
        m.clear();
        // "y" now owns the slot `x` used to name; `x` must not reach it.
        let y = m.gauge("y");
        assert_eq!(y.slot, x.slot);
        m.record(Ns(1), x, 99);
        let series = m.series();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].name, "y");
        assert!(series[0].points.is_empty());
        assert_eq!(m.refused_names(), 0);
    }

    #[test]
    fn cache_resolves_once_per_epoch_in_first_seen_order() {
        let m = Metrics::new();
        m.set_enabled(true);
        let mut cache = GaugeCache::default();
        let registrations = Cell::new(0);
        let sample = |cache: &mut GaugeCache, t: u64| {
            for (key, name) in [(1, "x"), (0, "y")] {
                let g = cache.get(&m, key, |m| {
                    registrations.set(registrations.get() + 1);
                    m.gauge(name)
                });
                m.record(Ns(t), g, t);
            }
        };
        sample(&mut cache, 1);
        sample(&mut cache, 2);
        assert_eq!(registrations.get(), 2, "resolved on first sight only");
        m.clear();
        sample(&mut cache, 3);
        assert_eq!(registrations.get(), 4, "a clear forces re-resolution");
        let got: Vec<(String, Vec<u64>)> = m
            .series()
            .into_iter()
            .map(|s| (s.name, s.points.iter().map(|p| p.value).collect()))
            .collect();
        assert_eq!(got, [("x".into(), vec![3]), ("y".into(), vec![3])]);
    }

    #[test]
    fn merge_prefixes_shard_names() {
        let a = vec![SeriesSnapshot {
            name: "g".into(),
            dropped: 0,
            points: vec![MetricPoint { at: Ns(1), value: 10 }],
        }];
        let b = vec![SeriesSnapshot {
            name: "g".into(),
            dropped: 2,
            points: vec![],
        }];
        let merged = merge_shards(&[(0, a), (1, b)]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].name, "s0.g");
        assert_eq!(merged[1].name, "s1.g");
        assert_eq!(merged[1].dropped, 2);
    }

    #[test]
    fn telemetry_block_round_trips_through_parser() {
        let m = Metrics::new();
        m.set_enabled(true);
        m.record(Ns(5), m.gauge("live"), 2);
        let rendered = m.to_json().render();
        let parsed = Json::parse(&rendered).expect("telemetry parses");
        assert!(parsed.get("cadence_ns").and_then(Json::as_f64).is_some());
        let series = parsed.get("series").and_then(Json::as_arr).expect("series");
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].get("name").and_then(Json::as_str), Some("live"));
        let pts = series[0].get("points").and_then(Json::as_arr).expect("points");
        assert_eq!(pts.len(), 1);
    }
}
