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
//! passed the next sample deadline, it records one **row** and calls
//! [`Metrics::advance`]. A sampler registers its ordered gauge columns
//! once ([`Metrics::register_row`]) and gets a [`Row`] handle; a sample
//! is then one [`Metrics::push_row`]: `(now, values…)` appended in place
//! to a small block of pending rows, with no name formatted, searched,
//! or checked per gauge. A row may stop short of its layout (a prefix of
//! the columns), which is how a sample leaves out gauges that do not
//! apply at that moment.
//!
//! The block holds at most [`BLOCK_ROWS`] rows. It is **folded** into
//! the per-series rings when it fills, when a sampler re-registers its
//! layout, and before every read ([`Metrics::series`],
//! [`Metrics::refused_names`], [`Metrics::to_json`]) and every
//! [`Metrics::set_capacity`]; [`Metrics::clear`] discards it with the
//! series. The fold pushes every column of every row, in row order, as
//! if each had been recorded on its own, so buffering is invisible.
//! Each series is a **bounded ring**: it grows to its capacity, then the
//! oldest point is dropped and counted, so a long workload keeps a
//! bounded recent window rather than growing without limit — exactly
//! the trace-ring policy, applied to gauges.
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

/// Default cap on per-path and per-domain series (the capped columns of
/// [`Metrics::register_row`]): once this many exist, a new name is
/// refused and counted rather than allocated. Fixed columns do not count
/// against it and are always admitted.
pub const DEFAULT_MAX_SERIES: usize = 64;

/// Rows buffered before they are folded into the series rings.
pub const BLOCK_ROWS: usize = 256;

/// Sentinel slot of a column the series cap refused.
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

/// A sampler's registered row layout: an index into its [`Metrics`]
/// layout table, valid until the next [`Metrics::clear`]. `Copy`, so a
/// sampler keeps it and pushes rows by it from then on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Layout index.
    id: u32,
    /// The [`Metrics`] epoch the layout was registered in.
    epoch: u32,
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
    /// Series registered as capped columns.
    capped: usize,
    /// Records into columns refused because `max_series` was reached.
    refused_names: u64,
    series: Vec<SeriesRing>,
    /// Series slot (or [`REFUSED`]) of each column, per [`Row`] id.
    layouts: Vec<Vec<u32>>,
    /// Pending rows, each `[id << 32 | width, now, value × width]`.
    block: Vec<u64>,
    /// Rows in `block`.
    rows: usize,
}

impl MetricsInner {
    /// The series slot of `name`: its existing series, a new one, or
    /// [`REFUSED`] when `capped` and the cap is reached.
    fn register(&mut self, name: &str, capped: bool) -> u32 {
        match self.series.iter().position(|s| s.name == name) {
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
        }
    }

    /// Pushes every pending row into the series rings and empties the
    /// block. Rows are grouped by layout and each column is folded as
    /// one run, so a ring takes all its new points in one pass. A
    /// series still gets its points in row order because, within a
    /// block, only one layout writes it; in the rare block where two
    /// layouts share a series, every row is folded as its own run.
    fn fold(&mut self) {
        let mut runs = vec![Vec::new(); self.layouts.len()];
        let mut at = 0;
        while at < self.block.len() {
            let (id, width) = header(self.block[at]);
            runs[id].push(at);
            at += 2 + width;
        }
        let mut writer = vec![u32::MAX; self.series.len()];
        let mut shared = false;
        for (id, _) in runs.iter().enumerate().filter(|(_, r)| !r.is_empty()) {
            for &slot in self.layouts[id].iter().filter(|&&s| s != REFUSED) {
                let w = &mut writer[slot as usize];
                shared |= *w != u32::MAX;
                *w = id as u32;
            }
        }
        if shared {
            let mut at = 0;
            while at < self.block.len() {
                let (id, width) = header(self.block[at]);
                self.fold_run(id, &[at]);
                at += 2 + width;
            }
        } else {
            for (id, run) in runs.iter().enumerate() {
                self.fold_run(id, run);
            }
        }
        self.block.clear();
        self.rows = 0;
    }

    /// Folds the rows of layout `id` that start at `run` (in row order)
    /// into the series rings, column by column.
    fn fold_run(&mut self, id: usize, run: &[usize]) {
        let MetricsInner {
            cap,
            refused_names,
            series,
            layouts,
            block,
            ..
        } = self;
        let block: &[u64] = block;
        for (c, &slot) in layouts[id].iter().enumerate() {
            // The rows that reach column `c`: a prefix row may stop short.
            let reach = || run.iter().filter(move |&&at| header(block[at]).1 > c);
            let n = reach().count();
            if slot == REFUSED {
                *refused_names += n as u64;
                continue;
            }
            let points = reach().map(|&at| MetricPoint {
                at: Ns(block[at + 1]),
                value: block[at + 2 + c],
            });
            series[slot as usize].append(*cap, n, points);
        }
    }
}

/// The `(layout id, width)` of a row's header word.
fn header(word: u64) -> (usize, usize) {
    ((word >> 32) as usize, word as u32 as usize)
}

impl SeriesRing {
    /// Appends `n` points, oldest first, as if pushed one by one into a
    /// ring of capacity `cap`: the newest `cap` points are kept and
    /// every eviction is counted.
    fn append(&mut self, cap: usize, n: usize, points: impl Iterator<Item = MetricPoint>) {
        let over = (self.points.len() + n).saturating_sub(cap);
        let evict = over.min(self.points.len());
        self.points.drain(..evict);
        self.dropped += over as u64;
        self.points.extend(points.skip(over - evict));
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
/// let row = m.register_row(None, &["live_fbufs"], &["path0.parked".to_string()]);
/// if m.due(Ns(0)) {
///     m.push_row(row, Ns(0), 2, |v| v.copy_from_slice(&[3, 1]));
///     m.advance(Ns(0));
/// }
/// assert!(!m.due(Ns(5_000)), "cadence not yet elapsed");
/// // A prefix row: this sample has no `path0.parked` reading.
/// m.push_row(row, Ns(5_000), 1, |v| v[0] = 4);
/// let series = m.series();
/// assert_eq!(series[0].points.len(), 2);
/// assert_eq!(series[1].points.len(), 1);
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
                    layouts: Vec::new(),
                    block: Vec::new(),
                    rows: 0,
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

    /// Registers a sampler's row layout: the `fixed` columns, then the
    /// `capped` ones, each naming a series that is created (empty) on
    /// first registration, so series keep their first-seen order.
    /// Fixed columns — a static set of names, such as the system-wide
    /// and shard gauges — are always admitted. A capped column (per-path
    /// or per-domain) gets a new series only while fewer than the series
    /// cap of such series exist; past it the column is refused, and each
    /// row that reaches it counts one
    /// [`refused_names`](Metrics::refused_names).
    ///
    /// `replaces` is the sampler's previous row, if any: a current one is
    /// re-laid-out in place (its pending rows are folded first), a stale
    /// one is ignored.
    pub fn register_row(&self, replaces: Option<Row>, fixed: &[&str], capped: &[String]) -> Row {
        let epoch = self.epoch();
        let mut inner = self.shared.inner.borrow_mut();
        let fixed = fixed.iter().map(|&name| (name, false));
        let capped = capped.iter().map(|name| (name.as_str(), true));
        let slots = fixed
            .chain(capped)
            .map(|(name, capped)| inner.register(name, capped))
            .collect();
        match replaces.filter(|r| r.epoch == epoch) {
            Some(row) => {
                inner.fold();
                inner.layouts[row.id as usize] = slots;
                row
            }
            None => {
                inner.layouts.push(slots);
                Row {
                    id: (inner.layouts.len() - 1) as u32,
                    epoch,
                }
            }
        }
    }

    /// Whether `row` was registered since the last
    /// [`clear`](Metrics::clear) (a stale row must be registered again).
    #[inline]
    pub fn is_current(&self, row: Row) -> bool {
        row.epoch == self.epoch()
    }

    /// Records one sample of `row` at `now`: a row of its first `width`
    /// columns, which `fill` writes in layout order, appended in place to
    /// the pending block (folded once it holds [`BLOCK_ROWS`] rows). A
    /// `width` short of the layout records only that prefix. No-op while
    /// disabled, and for a row registered before the last
    /// [`clear`](Metrics::clear) (it never writes into a stale layout).
    /// `fill` must not call back into this metric set.
    ///
    /// # Panics
    ///
    /// If `width` exceeds the number of columns `row` has.
    #[inline]
    pub fn push_row(&self, row: Row, now: Ns, width: usize, fill: impl FnOnce(&mut [u64])) {
        if !self.shared.enabled.get() || row.epoch != self.epoch() {
            return;
        }
        let mut inner = self.shared.inner.borrow_mut();
        assert!(
            width <= inner.layouts[row.id as usize].len(),
            "a row of {width} values is wider than its layout"
        );
        let head = inner.block.len();
        inner.block.extend([u64::from(row.id) << 32 | width as u64, now.0]);
        inner.block.resize(head + 2 + width, 0);
        fill(&mut inner.block[head + 2..]);
        inner.rows += 1;
        if inner.rows == BLOCK_ROWS {
            inner.fold();
        }
    }

    /// The registration epoch: bumped by every [`clear`](Metrics::clear).
    #[inline]
    fn epoch(&self) -> u32 {
        self.shared.epoch.get()
    }

    /// Resizes every series ring (evicting oldest points if shrinking).
    /// Pending rows are folded first, under the capacity they were
    /// recorded with.
    pub fn set_capacity(&self, cap: usize) {
        let mut inner = self.shared.inner.borrow_mut();
        inner.fold();
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
        let mut inner = self.shared.inner.borrow_mut();
        inner.fold();
        inner.refused_names
    }

    /// Owned snapshots of every series, in first-seen order.
    pub fn series(&self) -> Vec<SeriesSnapshot> {
        let mut inner = self.shared.inner.borrow_mut();
        inner.fold();
        inner
            .series
            .iter()
            .map(|s| SeriesSnapshot {
                name: s.name.clone(),
                dropped: s.dropped,
                points: s.points.iter().copied().collect(),
            })
            .collect()
    }

    /// Discards every series and pending row, invalidates every
    /// [`Row`] (bumps the epoch), and re-arms the sample deadline at
    /// zero (keeps enablement, cadence, and capacities).
    pub fn clear(&self) {
        let mut inner = self.shared.inner.borrow_mut();
        inner.series.clear();
        inner.layouts.clear();
        inner.block.clear();
        inner.rows = 0;
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
    use crate::rng::Rng;

    /// Records one row of `values`.
    fn push(m: &Metrics, row: Row, now: Ns, values: &[u64]) {
        m.push_row(row, now, values.len(), |v| v.copy_from_slice(values));
    }

    /// Capped-column names, as `register_row` takes them.
    fn names(n: &[&str]) -> Vec<String> {
        n.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn disabled_metrics_record_nothing_and_are_never_due() {
        let m = Metrics::new();
        assert!(!m.due(Ns(u64::MAX / 2)));
        let row = m.register_row(None, &[], &names(&["x"]));
        push(&m, row, Ns(0), &[1]);
        assert!(m.series()[0].points.is_empty());
    }

    #[test]
    fn cadence_gates_sampling() {
        let m = Metrics::new();
        m.set_enabled(true);
        m.set_cadence(1_000);
        let row = m.register_row(None, &[], &names(&["g"]));
        assert!(m.due(Ns(0)));
        push(&m, row, Ns(0), &[1]);
        m.advance(Ns(0));
        assert!(!m.due(Ns(999)));
        assert!(m.due(Ns(1_000)));
        push(&m, row, Ns(1_000), &[2]);
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
        let row = m.register_row(None, &[], &names(&["g"]));
        for i in 0..5u64 {
            push(&m, row, Ns(i), &[i]);
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
        // Fixed columns neither count against the cap nor are refused
        // by it, before or after it fills.
        let first = m.register_row(None, &["f"], &names(&["a", "b"]));
        let second = m.register_row(None, &["g"], &[]);
        // A refused column counts once per row that reaches it; a
        // prefix row that stops short of it counts nothing.
        for t in 0..3 {
            push(&m, first, Ns(t), &[t, t, t]);
            push(&m, second, Ns(t), &[t]);
        }
        push(&m, first, Ns(3), &[3, 3]);
        assert_eq!(m.refused_names(), 3);
        let got: Vec<(String, usize)> = m
            .series()
            .into_iter()
            .map(|s| (s.name, s.points.len()))
            .collect();
        assert_eq!(got, [("f".into(), 4), ("a".into(), 4), ("g".into(), 3)]);
    }

    #[test]
    fn reregistration_keeps_first_seen_order() {
        let m = Metrics::new();
        m.set_enabled(true);
        let first = m.register_row(None, &[], &names(&["a"]));
        let second = m.register_row(None, &["b"], &[]);
        // Registering known names, under either kind, reuses their
        // series rather than creating a second one.
        let both = m.register_row(None, &["a"], &names(&["b"]));
        push(&m, second, Ns(0), &[1]);
        push(&m, first, Ns(0), &[2]);
        push(&m, both, Ns(1), &[3, 4]);
        let got: Vec<(String, Vec<u64>)> = m
            .series()
            .into_iter()
            .map(|s| (s.name, s.points.iter().map(|p| p.value).collect()))
            .collect();
        assert_eq!(got, [("a".into(), vec![2, 3]), ("b".into(), vec![1, 4])]);
        assert_eq!(m.shared.inner.borrow().capped, 1, "only `a` is capped");
    }

    #[test]
    fn stale_handles_never_write_after_clear() {
        let m = Metrics::new();
        m.set_enabled(true);
        let x = m.register_row(None, &[], &names(&["x"]));
        push(&m, x, Ns(0), &[1]);
        m.clear();
        assert!(!m.is_current(x));
        // `y` now owns the layout `x` used to name; `x` must not reach it.
        let y = m.register_row(Some(x), &[], &names(&["y"]));
        assert_eq!(y.id, x.id);
        push(&m, x, Ns(1), &[99]);
        let series = m.series();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].name, "y");
        assert!(series[0].points.is_empty());
        assert_eq!(m.refused_names(), 0);
    }

    #[test]
    fn cache_resolves_once_per_epoch_in_first_seen_order() {
        // A sampler keeps its row and registers it again only once a
        // clear has made it stale.
        let m = Metrics::new();
        m.set_enabled(true);
        let mut cached: Option<Row> = None;
        let mut registrations = 0;
        let mut sample = |t: u64| {
            let row = match cached.filter(|&r| m.is_current(r)) {
                Some(row) => row,
                None => {
                    registrations += 1;
                    *cached.insert(m.register_row(cached, &[], &names(&["x", "y"])))
                }
            };
            push(&m, row, Ns(t), &[t, t]);
            registrations
        };
        sample(1);
        assert_eq!(sample(2), 1, "registered on first sight only");
        m.clear();
        assert_eq!(sample(3), 2, "a clear forces re-registration");
        let got: Vec<(String, Vec<u64>)> = m
            .series()
            .into_iter()
            .map(|s| (s.name, s.points.iter().map(|p| p.value).collect()))
            .collect();
        assert_eq!(got, [("x".into(), vec![3]), ("y".into(), vec![3])]);
    }

    /// The per-gauge model the row path must reproduce: every column
    /// recorded straight into its ring, one at a time.
    #[derive(Default)]
    struct Reference {
        cap: usize,
        max_series: usize,
        capped: usize,
        refused_names: u64,
        series: Vec<SeriesSnapshot>,
    }

    impl Reference {
        fn new(cap: usize, max_series: usize) -> Reference {
            Reference {
                cap,
                max_series,
                ..Reference::default()
            }
        }

        /// The series index of `name`, `None` when the cap refuses it.
        fn gauge(&mut self, name: &str, capped: bool) -> Option<usize> {
            if let Some(i) = self.series.iter().position(|s| s.name == name) {
                return Some(i);
            }
            if capped && self.capped >= self.max_series {
                return None;
            }
            self.capped += usize::from(capped);
            self.series.push(SeriesSnapshot {
                name: name.to_string(),
                dropped: 0,
                points: Vec::new(),
            });
            Some(self.series.len() - 1)
        }

        fn record(&mut self, now: Ns, gauge: Option<usize>, value: u64) {
            let Some(i) = gauge else {
                self.refused_names += 1;
                return;
            };
            let s = &mut self.series[i];
            if s.points.len() == self.cap {
                s.points.remove(0);
                s.dropped += 1;
            }
            s.points.push(MetricPoint { at: now, value });
        }

        fn set_capacity(&mut self, cap: usize) {
            self.cap = cap.max(1);
            for s in &mut self.series {
                let excess = s.points.len().saturating_sub(self.cap);
                s.points.drain(..excess);
                s.dropped += excess as u64;
            }
        }

        fn clear(&mut self) {
            self.series.clear();
            self.capped = 0;
            self.refused_names = 0;
        }
    }

    /// A row-path metric set and its per-gauge reference, driven alike.
    struct Twin {
        m: Metrics,
        reference: Reference,
        rng: Rng,
        now: u64,
    }

    /// One sampler of a [`Twin`]: its row and the reference's gauges.
    #[derive(Clone)]
    struct Sampler {
        row: Row,
        gauges: Vec<Option<usize>>,
    }

    impl Twin {
        fn new(cap: usize, max_series: usize) -> Twin {
            let m = Metrics::new();
            m.set_enabled(true);
            m.set_capacity(cap);
            m.shared.inner.borrow_mut().max_series = max_series;
            Twin {
                m,
                reference: Reference::new(cap.max(1), max_series),
                rng: Rng::new(cap as u64 ^ 0x5eed),
                now: 0,
            }
        }

        fn register(
            &mut self,
            replaces: Option<&Sampler>,
            fixed: &[&str],
            capped: &[&str],
        ) -> Sampler {
            let capped = names(capped);
            let row = self.m.register_row(replaces.map(|s| s.row), fixed, &capped);
            let fixed = fixed.iter().map(|&n| (n, false));
            let gauges = fixed
                .chain(capped.iter().map(|n| (n.as_str(), true)))
                .map(|(name, capped)| self.reference.gauge(name, capped))
                .collect();
            Sampler { row, gauges }
        }

        /// One sample of `s`'s first `width` columns, or of all of them.
        fn sample(&mut self, s: &Sampler, width: Option<usize>) {
            self.now += 1 + self.rng.below(20);
            let width = width.unwrap_or(s.gauges.len());
            let values: Vec<u64> = (0..width).map(|_| self.rng.below(1_000)).collect();
            push(&self.m, s.row, Ns(self.now), &values);
            if self.m.is_current(s.row) {
                for (&g, &v) in s.gauges.iter().zip(&values) {
                    self.reference.record(Ns(self.now), g, v);
                }
            }
        }

        fn set_capacity(&mut self, cap: usize) {
            self.m.set_capacity(cap);
            self.reference.set_capacity(cap);
        }

        fn clear(&mut self) {
            self.m.clear();
            self.reference.clear();
        }

        fn assert_same(&self, case: &str) {
            assert_eq!(self.m.series(), self.reference.series, "{case}: series");
            assert_eq!(
                self.m.refused_names(),
                self.reference.refused_names,
                "{case}: refused_names"
            );
        }
    }

    #[test]
    fn rows_fold_exactly_like_per_gauge_records() {
        let caps = [1, 7, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, DEFAULT_POINTS];
        for cap in caps {
            // A layout change mid-block (path 0 dies, path 1 appears),
            // with a second sampler's rows interleaved, some of them
            // prefix rows.
            let mut t = Twin::new(cap, DEFAULT_MAX_SERIES);
            let sys = t.register(None, &["live"], &["path0.parked", "path0.chunks"]);
            let shard = t.register(None, &["ring.out", "ring.in"], &[]);
            for i in 0..BLOCK_ROWS + 100 {
                t.sample(&sys, None);
                t.sample(&shard, (i % 3 == 0).then_some(1));
            }
            let sys = t.register(Some(&sys), &["live"], &["path1.parked", "path0.chunks"]);
            for _ in 0..BLOCK_ROWS + 37 {
                t.sample(&sys, None);
                t.sample(&shard, None);
            }
            t.assert_same(&format!("cap {cap}, layout change"));

            // Refused columns: three capped names past a cap of two, in
            // full and prefix rows.
            let mut t = Twin::new(cap, 2);
            let s = t.register(None, &["f"], &["a", "b", "c", "d", "e"]);
            for i in 0..2 * BLOCK_ROWS + 11 {
                t.sample(&s, (i % 4 == 0).then_some(3));
            }
            t.assert_same(&format!("cap {cap}, refused columns"));

            // A clear with rows pending, then a stale row and a fresh one.
            let mut t = Twin::new(cap, DEFAULT_MAX_SERIES);
            let s = t.register(None, &["f"], &["x", "y"]);
            for _ in 0..BLOCK_ROWS + 60 {
                t.sample(&s, None);
            }
            t.clear();
            t.sample(&s, None);
            let s = t.register(Some(&s), &["g"], &["y"]);
            for _ in 0..BLOCK_ROWS / 2 {
                t.sample(&s, None);
            }
            t.assert_same(&format!("cap {cap}, clear"));

            // A capacity shrink, then a growth, each with rows pending.
            let mut t = Twin::new(cap, DEFAULT_MAX_SERIES);
            let s = t.register(None, &["f"], &["x"]);
            for _ in 0..BLOCK_ROWS + 90 {
                t.sample(&s, None);
            }
            t.set_capacity(cap / 2);
            for _ in 0..BLOCK_ROWS / 3 {
                t.sample(&s, None);
            }
            t.set_capacity(2 * cap);
            for _ in 0..BLOCK_ROWS + 5 {
                t.sample(&s, None);
            }
            t.assert_same(&format!("cap {cap}, resize"));

            // Two samplers sharing a series, rows interleaved: the later
            // registered one samples first.
            let mut t = Twin::new(cap, DEFAULT_MAX_SERIES);
            let a = t.register(None, &["f"], &["x"]);
            let b = t.register(None, &["x"], &["y"]);
            for _ in 0..BLOCK_ROWS + 70 {
                t.sample(&b, None);
                t.sample(&a, None);
            }
            t.assert_same(&format!("cap {cap}, shared series"));
        }
    }

    #[test]
    #[should_panic(expected = "wider than its layout")]
    fn a_row_wider_than_its_layout_panics() {
        let m = Metrics::new();
        m.set_enabled(true);
        let row = m.register_row(None, &["f"], &[]);
        push(&m, row, Ns(0), &[1, 2]);
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
        let row = m.register_row(None, &[], &names(&["live"]));
        push(&m, row, Ns(5), &[2]);
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
