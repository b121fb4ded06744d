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
//! once ([`Metrics::register_row`]) and gets a [`Row`] handle. A sample
//! is then one [`Metrics::push_row`]: the row's time, plus a
//! [`RowWriter::set`] for each column whose value may have moved. A
//! column left unwritten repeats the value it last recorded, so a
//! sampler that keeps dirty marks ([`DirtySet`]) pays for what moved,
//! not for what exists. Every column still gets a point at every sample
//! of its row, so gauges a sample sometimes leaves out (the inbox
//! gauges, inside a hop handler) live in a row of their own.
//!
//! A series stores its points as **runs**: a value held across a
//! stretch of one row's samples, whose times that row keeps once. A
//! written value equal to the last one continues the open run at no
//! cost; a different one closes it and opens the next. Each series is
//! still a **bounded ring** counted in points: past its capacity the
//! oldest points are dropped and counted, so a long workload keeps a
//! bounded recent window rather than growing without limit — exactly
//! the trace-ring policy, applied to gauges. Reads
//! ([`Metrics::series`], [`Metrics::to_json`]) expand the runs back
//! into points, identical to recording every column of every row.
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

/// Sentinel slot of a column the series cap refused.
const REFUSED: u32 = u32::MAX;

/// [`Run::last`] of a run that continues through its row's latest
/// sample.
const OPEN: u64 = u64::MAX;

/// [`Run::layout`] of a single point detached from its row (the row
/// stopped writing the series): [`Run::first`] is the point's time.
const DETACHED: u32 = u32::MAX;

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

/// Dirty marks of a change-only sampler: the keys (path or domain ids)
/// whose gauge sources moved since the sampler last drained them, each
/// listed once, with a bit mask of the gauges that moved. O(1) to mark,
/// O(marked) to drain, and bounded by the largest key, so marks taken
/// while telemetry is off cost a store and never pile up.
#[derive(Debug, Clone, Default)]
pub struct DirtySet {
    /// Gauge bits per key (0 = clean).
    bits: Vec<u8>,
    /// Keys with non-zero bits, in marking order.
    keys: Vec<u32>,
}

impl DirtySet {
    /// Marks gauges `bits` (non-zero) of `key` dirty.
    #[inline]
    pub fn mark(&mut self, key: usize, bits: u8) {
        debug_assert_ne!(bits, 0, "a mark names at least one gauge");
        if key >= self.bits.len() {
            self.bits.resize(key + 1, 0);
        }
        let b = &mut self.bits[key];
        if *b == 0 {
            self.keys.push(key as u32);
        }
        *b |= bits;
    }

    /// Hands each dirty key and its bits to `f`, in marking order, and
    /// leaves the set clean.
    pub fn drain(&mut self, mut f: impl FnMut(usize, u8)) {
        for key in self.keys.drain(..) {
            f(key as usize, std::mem::take(&mut self.bits[key as usize]));
        }
    }
}

/// A stretch of equal values of one series: `value` at samples
/// `first..=last` of row layout `layout` (or one detached point).
#[derive(Debug, Clone, Copy)]
struct Run {
    layout: u32,
    value: u64,
    first: u64,
    last: u64,
}

impl Run {
    /// Points in the run, `open_len` if it is open.
    fn len(&self, open_len: u64) -> u64 {
        if self.layout == DETACHED {
            1
        } else if self.last == OPEN {
            open_len
        } else {
            self.last + 1 - self.first
        }
    }

    fn is_open(&self) -> bool {
        self.layout != DETACHED && self.last == OPEN
    }
}

#[derive(Debug)]
struct SeriesRing {
    name: String,
    dropped: u64,
    /// Columns of the current layouts that write this series.
    writers: u32,
    /// Retained points as runs, oldest first; only the last may be
    /// open.
    runs: VecDeque<Run>,
    /// Points in the closed runs.
    closed: u64,
}

impl SeriesRing {
    /// Points in the open run, if any: it runs through its row's latest
    /// sample.
    fn open_len(&self, layouts: &[Layout]) -> u64 {
        match self.runs.back() {
            Some(r) if r.is_open() => layouts[r.layout as usize].seq + 1 - r.first,
            _ => 0,
        }
    }

    /// Evicts the oldest points past `cap`, counting each as dropped —
    /// what pushing the same points one by one into a ring of capacity
    /// `cap` would have done, as long as `cap` has not changed since
    /// the last trim. `open_len` is the open run's length.
    fn trim(&mut self, cap: u64, open_len: u64) {
        let mut over = (self.closed + open_len).saturating_sub(cap);
        self.dropped += over;
        while over > 0 {
            let front = self.runs.front_mut().expect("points to evict");
            let open = front.is_open();
            let n = front.len(open_len);
            let take = n.min(over);
            if take == n {
                self.runs.pop_front();
            } else {
                front.first += take;
            }
            if !open {
                self.closed -= take;
            }
            over -= take;
        }
    }

    /// Closes the open run, if any, after its row's latest sample.
    fn close(&mut self, layouts: &[Layout]) {
        let n = self.open_len(layouts);
        if let Some(r) = self.runs.back_mut().filter(|r| r.is_open()) {
            r.last = r.first + n - 1;
            self.closed += n;
        }
    }

    /// Starts an open run of `value` at sample `seq` of row `layout`,
    /// closing the open run before it (a run opened at this same
    /// sample just takes the new value).
    fn open(&mut self, layout: usize, seq: u64, value: u64, cap: u64) {
        if let Some(r) = self.runs.back_mut().filter(|r| r.is_open()) {
            if r.first == seq {
                r.value = value;
                return;
            }
            r.last = seq - 1;
            self.closed += r.last + 1 - r.first;
        }
        self.runs.push_back(Run {
            layout: layout as u32,
            value,
            first: seq,
            last: OPEN,
        });
        self.trim(cap, 1);
    }

    /// Appends one closed point of `value` at sample `seq` of row
    /// `layout` (a series that several columns write gets every point
    /// this way, so their points interleave in sample order).
    fn point(&mut self, layout: usize, seq: u64, value: u64, cap: u64) {
        let layout = layout as u32;
        match self.runs.back_mut() {
            Some(r) if r.layout == layout && r.value == value && r.last + 1 == seq => r.last = seq,
            _ => self.runs.push_back(Run {
                layout,
                value,
                first: seq,
                last: seq,
            }),
        }
        self.closed += 1;
        self.trim(cap, 0);
    }

    /// Turns the runs of row `id` (layout `l`) into detached points,
    /// each with its own time: the row has stopped writing this series,
    /// and its time ring will move on without it.
    fn detach(&mut self, l: &Layout, id: usize) {
        let mut runs = VecDeque::with_capacity(self.runs.len());
        for r in self.runs.drain(..) {
            if r.layout != id as u32 {
                runs.push_back(r);
                continue;
            }
            runs.extend((r.first..=r.last).map(|seq| Run {
                layout: DETACHED,
                value: r.value,
                first: l.time_of(seq),
                last: 0,
            }));
        }
        self.runs = runs;
    }

    /// The retained points, oldest first. Call after a trim: every
    /// retained point's sample time is then still in its row's time
    /// ring.
    fn points(&self, layouts: &[Layout]) -> Vec<MetricPoint> {
        let mut out = Vec::with_capacity((self.closed + self.open_len(layouts)) as usize);
        for r in &self.runs {
            if r.layout == DETACHED {
                out.push(MetricPoint {
                    at: Ns(r.first),
                    value: r.value,
                });
                continue;
            }
            let l = &layouts[r.layout as usize];
            let last = if r.is_open() { l.seq } else { r.last };
            out.extend((r.first..=last).map(|seq| MetricPoint {
                at: Ns(l.time_of(seq)),
                value: r.value,
            }));
        }
        out
    }
}

/// One column of a row layout.
#[derive(Debug, Clone, Copy)]
struct Col {
    /// The value last written (meaningful once `written`).
    value: u64,
    /// Series slot, or [`REFUSED`].
    slot: u32,
    /// Written at least once since the layout was registered.
    written: bool,
    /// Another column also writes this series.
    shared: bool,
}

#[derive(Debug, Default)]
struct Layout {
    cols: Vec<Col>,
    /// The shared columns: every sample records each of them as a point.
    shared: Vec<u32>,
    /// Refused columns: every sample counts this many `refused_names`.
    refused: u64,
    /// Samples taken; the latest is sample `seq`.
    seq: u64,
    /// Times of the latest samples, at most the ring capacity of them:
    /// in order until full, then overwritten oldest first.
    times: Vec<u64>,
    /// The oldest time in `times`, once it is full.
    head: usize,
    /// A registration closed every run: the next sample opens one in
    /// every column.
    reopen: bool,
}

impl Layout {
    /// Counts a sample taken at `at`, with `cap` times kept.
    #[inline]
    fn push(&mut self, cap: usize, at: u64) {
        self.seq += 1;
        if self.times.len() < cap {
            self.times.push(at);
            return;
        }
        self.times[self.head] = at;
        self.head += 1;
        if self.head == self.times.len() {
            self.head = 0;
        }
    }

    /// The time of sample `seq` (one of the latest the ring holds).
    fn time_of(&self, seq: u64) -> u64 {
        let n = self.times.len();
        let i = self.head + n - 1 - (self.seq - seq) as usize;
        self.times[if i >= n { i - n } else { i }]
    }

    /// Keeps the newest `cap` times.
    fn truncate_times(&mut self, cap: usize) {
        self.times.rotate_left(self.head);
        self.head = 0;
        let excess = self.times.len().saturating_sub(cap);
        self.times.drain(..excess);
    }
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
    /// Row layouts, per [`Row`] id.
    layouts: Vec<Layout>,
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
                    writers: 0,
                    runs: VecDeque::new(),
                    closed: 0,
                });
                (self.series.len() - 1) as u32
            }
        }
    }

    /// Evicts every series down to capacity `cap`.
    fn trim(&mut self, cap: usize) {
        for s in &mut self.series {
            let open_len = s.open_len(&self.layouts);
            s.trim(cap as u64, open_len);
        }
    }

    /// Re-lays-out row `id` (a new one when `id` is past the table) with
    /// series `slots`. Every open run is closed first and every row
    /// reopens its runs at its next sample, so no run spans a layout
    /// change. The series row `id` stops writing keep their points as
    /// detached ones, since its time ring moves on without them.
    fn lay_out(&mut self, id: usize, slots: &[u32]) {
        let MetricsInner {
            cap,
            series,
            layouts,
            ..
        } = self;
        for s in series.iter_mut() {
            s.close(layouts);
            s.trim(*cap as u64, 0);
        }
        if id == layouts.len() {
            layouts.push(Layout::default());
        }
        let l = &layouts[id];
        for c in &l.cols {
            if c.slot != REFUSED && !slots.contains(&c.slot) {
                series[c.slot as usize].detach(l, id);
            }
        }
        layouts[id].cols = slots
            .iter()
            .map(|&slot| Col {
                value: 0,
                slot,
                written: false,
                shared: false,
            })
            .collect();
        for s in series.iter_mut() {
            s.writers = 0;
        }
        for c in layouts.iter().flat_map(|l| &l.cols) {
            if c.slot != REFUSED {
                series[c.slot as usize].writers += 1;
            }
        }
        for l in layouts.iter_mut() {
            l.reopen = true;
            l.shared.clear();
            l.refused = 0;
            for (i, c) in l.cols.iter_mut().enumerate() {
                c.shared = c.slot != REFUSED && series[c.slot as usize].writers > 1;
                if c.shared {
                    l.shared.push(i as u32);
                }
                l.refused += u64::from(c.slot == REFUSED);
            }
        }
    }

    /// Ends the latest sample of row `id` once its columns are written:
    /// opens every run after a registration, records the shared
    /// columns' points, and counts the refused columns.
    fn finish_row(&mut self, id: usize) {
        let MetricsInner {
            cap,
            refused_names,
            series,
            layouts,
            ..
        } = self;
        let cap = *cap as u64;
        let l = &mut layouts[id];
        let value = |c: &Col| {
            assert!(
                c.written,
                "the first sample after a registration writes every column"
            );
            c.value
        };
        if l.reopen {
            for c in &l.cols {
                let v = value(c);
                if c.slot != REFUSED && !c.shared {
                    series[c.slot as usize].open(id, l.seq, v, cap);
                }
            }
        }
        for &c in &l.shared {
            let c = &l.cols[c as usize];
            series[c.slot as usize].point(id, l.seq, value(c), cap);
        }
        *refused_names += l.refused;
        l.reopen = false;
    }
}

/// Writes the columns of one sample of a row: see [`Metrics::push_row`].
#[derive(Debug)]
pub struct RowWriter<'a> {
    cols: &'a mut [Col],
    series: &'a mut [SeriesRing],
    /// The row's layout id and this sample's number.
    id: usize,
    seq: u64,
    cap: u64,
    /// Only record values: the runs open once the row is finished.
    reopen: bool,
}

impl RowWriter<'_> {
    /// Records `value` in column `col` at this sample. A value equal to
    /// the column's last one continues its run; a different one starts
    /// the next run.
    ///
    /// # Panics
    ///
    /// If `col` is past the end of the row's layout.
    #[inline]
    pub fn set(&mut self, col: usize, value: u64) {
        let width = self.cols.len();
        let Some(c) = self.cols.get_mut(col) else {
            panic!("a row written at column {col} is wider than its layout of {width}");
        };
        if self.reopen {
            // Right after a registration: the runs open when the row
            // finishes.
            c.value = value;
            c.written = true;
            return;
        }
        if c.value == value {
            return;
        }
        c.value = value;
        if !c.shared && c.slot != REFUSED {
            self.series[c.slot as usize].open(self.id, self.seq, value, self.cap);
        }
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
///     // A row's first sample writes every column.
///     m.push_row(row, Ns(0), |w| {
///         w.set(0, 3);
///         w.set(1, 1);
///     });
///     m.advance(Ns(0));
/// }
/// assert!(!m.due(Ns(5_000)), "cadence not yet elapsed");
/// // Only `live_fbufs` moved; `path0.parked` repeats its 1.
/// m.push_row(row, Ns(5_000), |w| w.set(0, 4));
/// let series = m.series();
/// assert_eq!(series[0].points.iter().map(|p| p.value).collect::<Vec<_>>(), [3, 4]);
/// assert_eq!(series[1].points.iter().map(|p| p.value).collect::<Vec<_>>(), [1, 1]);
/// assert_eq!(series[1].points[1].at, Ns(5_000));
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
    /// sample of the row counts one
    /// [`refused_names`](Metrics::refused_names) for it.
    ///
    /// `replaces` is the sampler's previous row, if any: a current one is
    /// re-laid-out in place, a stale one is ignored. Either way the
    /// row's next sample must write every column.
    pub fn register_row(&self, replaces: Option<Row>, fixed: &[&str], capped: &[String]) -> Row {
        let epoch = self.epoch();
        let mut inner = self.shared.inner.borrow_mut();
        let fixed = fixed.iter().map(|&name| (name, false));
        let capped = capped.iter().map(|name| (name.as_str(), true));
        let slots: Vec<u32> = fixed
            .chain(capped)
            .map(|(name, capped)| inner.register(name, capped))
            .collect();
        let id = match replaces.filter(|r| r.epoch == epoch) {
            Some(row) => row.id as usize,
            None => inner.layouts.len(),
        };
        inner.lay_out(id, &slots);
        Row {
            id: id as u32,
            epoch,
        }
    }

    /// Whether `row` was registered since the last
    /// [`clear`](Metrics::clear) (a stale row must be registered again).
    #[inline]
    pub fn is_current(&self, row: Row) -> bool {
        row.epoch == self.epoch()
    }

    /// Records one sample of `row` at `now`. `fill` writes, through
    /// [`RowWriter::set`], every column whose value may have moved since
    /// the row's last sample; each column it leaves out repeats its last
    /// value. The first sample after the row is registered must write
    /// every column. No-op while disabled, and for a row registered
    /// before the last [`clear`](Metrics::clear) (it never writes into a
    /// stale layout). `fill` must not call back into this metric set.
    ///
    /// # Panics
    ///
    /// If `fill` writes a column past the end of the layout, or leaves
    /// out a column the row has never written.
    #[inline]
    pub fn push_row(&self, row: Row, now: Ns, fill: impl FnOnce(&mut RowWriter<'_>)) {
        if !self.shared.enabled.get() || row.epoch != self.epoch() {
            return;
        }
        let mut inner = self.shared.inner.borrow_mut();
        let id = row.id as usize;
        let MetricsInner {
            cap,
            series,
            layouts,
            ..
        } = &mut *inner;
        let l = &mut layouts[id];
        l.push(*cap, now.0);
        fill(&mut RowWriter {
            cols: &mut l.cols,
            series,
            id,
            seq: l.seq,
            cap: *cap as u64,
            reopen: l.reopen,
        });
        if l.reopen || !l.shared.is_empty() || l.refused > 0 {
            inner.finish_row(id);
        }
    }

    /// Checks a change-only sampler: panics unless every column of `row`
    /// holds `expect(column)`, the value its source reads now. Call it
    /// right after [`push_row`](Metrics::push_row) with every column
    /// recomputed: a column that moved without being written there
    /// (a missing dirty mark) fails it. No-op for a stale row or while
    /// disabled.
    pub fn assert_row(&self, row: Row, expect: impl Fn(usize) -> u64) {
        if !self.is_enabled() || !self.is_current(row) {
            return;
        }
        let inner = self.shared.inner.borrow();
        for (i, c) in inner.layouts[row.id as usize].cols.iter().enumerate() {
            let source = expect(i);
            if !c.written || c.value != source {
                let name = match c.slot {
                    REFUSED => "(refused)",
                    slot => inner.series[slot as usize].name.as_str(),
                };
                panic!(
                    "telemetry column {i} `{name}` records {}, but its source reads \
                     {source}: a change was not marked dirty",
                    c.value
                );
            }
        }
    }

    /// The registration epoch: bumped by every [`clear`](Metrics::clear).
    #[inline]
    fn epoch(&self) -> u32 {
        self.shared.epoch.get()
    }

    /// Resizes every series ring (evicting oldest points if shrinking).
    /// Points recorded so far are evicted under the capacity they were
    /// recorded with first.
    pub fn set_capacity(&self, cap: usize) {
        let mut inner = self.shared.inner.borrow_mut();
        let old = inner.cap;
        inner.trim(old);
        inner.cap = cap.max(1);
        let cap = inner.cap;
        inner.trim(cap);
        for l in &mut inner.layouts {
            l.truncate_times(cap);
        }
    }

    /// Records into gauges the series cap refused.
    pub fn refused_names(&self) -> u64 {
        self.shared.inner.borrow().refused_names
    }

    /// Owned snapshots of every series, in first-seen order.
    pub fn series(&self) -> Vec<SeriesSnapshot> {
        let mut inner = self.shared.inner.borrow_mut();
        let cap = inner.cap;
        inner.trim(cap);
        inner
            .series
            .iter()
            .map(|s| SeriesSnapshot {
                name: s.name.clone(),
                dropped: s.dropped,
                points: s.points(&inner.layouts),
            })
            .collect()
    }

    /// Discards every series, invalidates every [`Row`] (bumps the
    /// epoch), and re-arms the sample deadline at zero (keeps
    /// enablement, cadence, and capacities).
    pub fn clear(&self) {
        let mut inner = self.shared.inner.borrow_mut();
        inner.series.clear();
        inner.layouts.clear();
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

    /// Records one row of `values`, every column written.
    fn push(m: &Metrics, row: Row, now: Ns, values: &[u64]) {
        m.push_row(row, now, |w| {
            for (c, &v) in values.iter().enumerate() {
                w.set(c, v);
            }
        });
    }

    /// Capped-column names, as `register_row` takes them.
    fn names(n: &[&str]) -> Vec<String> {
        n.iter().map(|s| s.to_string()).collect()
    }

    fn values(s: &SeriesSnapshot) -> Vec<u64> {
        s.points.iter().map(|p| p.value).collect()
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
        assert_eq!(values(s), vec![3, 4]);
    }

    #[test]
    fn unwritten_columns_repeat_their_value_at_every_sample() {
        let m = Metrics::new();
        m.set_enabled(true);
        m.set_capacity(3);
        let row = m.register_row(None, &["a"], &names(&["b"]));
        push(&m, row, Ns(1), &[7, 1]);
        for t in 2..6 {
            m.push_row(row, Ns(t), |w| w.set(0, 7));
        }
        // A value that moves and comes back in one sample is no move.
        m.push_row(row, Ns(6), |w| {
            w.set(1, 9);
            w.set(1, 1);
        });
        let series = m.series();
        for s in &series {
            assert_eq!(s.dropped, 3, "{}: 6 samples through 3 slots", s.name);
            let at: Vec<u64> = s.points.iter().map(|p| p.at.0).collect();
            assert_eq!(at, [4, 5, 6]);
        }
        assert_eq!(values(&series[0]), [7, 7, 7]);
        assert_eq!(values(&series[1]), [1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "writes every column")]
    fn a_fresh_row_must_write_every_column() {
        let m = Metrics::new();
        m.set_enabled(true);
        let row = m.register_row(None, &["a", "b"], &[]);
        m.push_row(row, Ns(0), |w| w.set(0, 1));
    }

    #[test]
    #[should_panic(expected = "not marked dirty")]
    fn assert_row_names_a_column_that_moved_unwritten() {
        let m = Metrics::new();
        m.set_enabled(true);
        let row = m.register_row(None, &["a", "b"], &[]);
        push(&m, row, Ns(0), &[1, 2]);
        m.assert_row(row, |c| [1, 2][c]);
        m.push_row(row, Ns(1), |w| w.set(0, 1));
        m.assert_row(row, |c| [1, 3][c]);
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
        // A refused column counts once per sample of its row, written
        // or not.
        for t in 0..3 {
            push(&m, first, Ns(t), &[t, t, t]);
            push(&m, second, Ns(t), &[t]);
        }
        m.push_row(first, Ns(3), |w| w.set(0, 3));
        assert_eq!(m.refused_names(), 4);
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
            .iter()
            .map(|s| (s.name.clone(), values(s)))
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
            .iter()
            .map(|s| (s.name.clone(), values(s)))
            .collect();
        assert_eq!(got, [("x".into(), vec![3]), ("y".into(), vec![3])]);
    }

    /// The per-gauge model the run store must reproduce: every column's
    /// current value recorded straight into its ring at every sample,
    /// one at a time.
    #[derive(Default)]
    struct Reference {
        cap: usize,
        max_series: usize,
        capped: usize,
        refused_names: u64,
        series: Vec<(String, u64, VecDeque<MetricPoint>)>,
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
            if let Some(i) = self.series.iter().position(|s| s.0 == name) {
                return Some(i);
            }
            if capped && self.capped >= self.max_series {
                return None;
            }
            self.capped += usize::from(capped);
            self.series.push((name.to_string(), 0, VecDeque::new()));
            Some(self.series.len() - 1)
        }

        fn record(&mut self, now: Ns, gauge: Option<usize>, value: u64) {
            let Some(i) = gauge else {
                self.refused_names += 1;
                return;
            };
            let (_, dropped, points) = &mut self.series[i];
            if points.len() == self.cap {
                points.pop_front();
                *dropped += 1;
            }
            points.push_back(MetricPoint { at: now, value });
        }

        fn set_capacity(&mut self, cap: usize) {
            self.cap = cap.max(1);
            for (_, dropped, points) in &mut self.series {
                let excess = points.len().saturating_sub(self.cap);
                points.drain(..excess);
                *dropped += excess as u64;
            }
        }

        fn clear(&mut self) {
            self.series.clear();
            self.capped = 0;
            self.refused_names = 0;
        }

        fn snapshot(&self) -> Vec<SeriesSnapshot> {
            let series = self
                .series
                .iter()
                .map(|(name, dropped, points)| SeriesSnapshot {
                    name: name.clone(),
                    dropped: *dropped,
                    points: points.iter().copied().collect(),
                });
            series.collect()
        }
    }

    /// A run-store metric set and its per-gauge reference, driven alike.
    struct Twin {
        m: Metrics,
        reference: Reference,
        rng: Rng,
        now: u64,
    }

    /// One sampler of a [`Twin`]: its row, the reference's gauges, and
    /// its columns' current values.
    struct Sampler {
        row: Row,
        gauges: Vec<Option<usize>>,
        values: Vec<u64>,
        /// Registered since its last sample: the next writes everything.
        fresh: bool,
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
            let gauges: Vec<_> = fixed
                .chain(capped.iter().map(|n| (n.as_str(), true)))
                .map(|(name, capped)| self.reference.gauge(name, capped))
                .collect();
            Sampler {
                row,
                values: vec![0; gauges.len()],
                gauges,
                fresh: true,
            }
        }

        /// Advances the clock to the next sample time.
        fn tick(&mut self) {
            self.now += 1 + self.rng.below(20);
        }

        /// One sample of `s` at the current time. Each column's source
        /// moves with odds 1 in `moves` to one of three values (so a
        /// value often comes back), sometimes through a second value in
        /// the same sample; `fill` writes only the moved columns, plus
        /// now and then an unmoved one.
        fn sample(&mut self, s: &mut Sampler, moves: u64) {
            let fresh = std::mem::take(&mut s.fresh);
            let mut writes = Vec::new();
            for (c, v) in s.values.iter_mut().enumerate() {
                match self.rng.below(moves.max(2)) {
                    _ if fresh => {}
                    0 => {
                        if self.rng.below(4) == 0 {
                            writes.push((c, self.rng.below(1_000)));
                        }
                    }
                    1 if moves > 2 => {
                        writes.push((c, *v));
                        continue;
                    }
                    _ => continue,
                }
                *v = self.rng.below(3);
                writes.push((c, *v));
            }
            self.m.push_row(s.row, Ns(self.now), |w| {
                for &(c, v) in &writes {
                    w.set(c, v);
                }
            });
            if self.m.is_current(s.row) {
                for (&g, &v) in s.gauges.iter().zip(&s.values) {
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
            assert_eq!(self.m.series(), self.reference.snapshot(), "{case}: series");
            assert_eq!(
                self.m.refused_names(),
                self.reference.refused_names,
                "{case}: refused_names"
            );
        }
    }

    #[test]
    fn rows_fold_exactly_like_per_gauge_records() {
        for cap in [1, 2, 7, 64, DEFAULT_POINTS] {
            let long = 2 * cap + 100;
            // Short runs and long ones, a layout change mid-run (path 0
            // dies, path 1 appears), with a second sampler interleaved.
            for moves in [2, 16] {
                let mut t = Twin::new(cap, DEFAULT_MAX_SERIES);
                let mut sys = t.register(None, &["live"], &["path0.parked", "path0.chunks"]);
                let mut shard = t.register(None, &["ring.out", "ring.in"], &[]);
                for _ in 0..long {
                    t.tick();
                    t.sample(&mut sys, moves);
                    t.sample(&mut shard, moves);
                }
                let mut sys = t.register(Some(&sys), &["live"], &["path1.parked", "path0.chunks"]);
                for _ in 0..cap + 37 {
                    t.tick();
                    t.sample(&mut sys, moves);
                    t.sample(&mut shard, moves);
                }
                t.assert_same(&format!("cap {cap}, {moves}: layout change"));
            }

            // Runs that never move cross the capacity several times.
            let mut t = Twin::new(cap, DEFAULT_MAX_SERIES);
            let mut s = t.register(None, &["f"], &["x"]);
            for _ in 0..3 * cap + 5 {
                t.tick();
                t.sample(&mut s, u64::MAX);
            }
            t.assert_same(&format!("cap {cap}: constant runs"));

            // Prefix samples in the middle of a run: a sample without
            // the inbox gauges records only the main row, while the
            // inbox row's runs stay open.
            let mut t = Twin::new(cap, DEFAULT_MAX_SERIES);
            let mut main = t.register(None, &["live"], &["path0.parked"]);
            let mut inbox = t.register(None, &[], &["inbox0", "inbox1"]);
            for i in 0..long {
                t.tick();
                t.sample(&mut main, 4);
                if i % 3 == 0 {
                    t.sample(&mut inbox, 40);
                }
            }
            t.assert_same(&format!("cap {cap}: prefix samples"));

            // Refused columns past a cap of two, in every sample.
            let mut t = Twin::new(cap, 2);
            let mut s = t.register(None, &["f"], &["a", "b", "c", "d", "e"]);
            for _ in 0..long {
                t.tick();
                t.sample(&mut s, 8);
            }
            t.assert_same(&format!("cap {cap}: refused columns"));

            // A clear with runs open, then a stale row and a fresh one.
            let mut t = Twin::new(cap, DEFAULT_MAX_SERIES);
            let mut s = t.register(None, &["f"], &["x", "y"]);
            for _ in 0..long {
                t.tick();
                t.sample(&mut s, 30);
            }
            t.clear();
            t.tick();
            t.sample(&mut s, 30);
            let mut s = t.register(Some(&s), &["g"], &["y"]);
            for _ in 0..cap + 3 {
                t.tick();
                t.sample(&mut s, 30);
            }
            t.assert_same(&format!("cap {cap}: clear"));

            // A capacity shrink, then a growth, each with runs open.
            let mut t = Twin::new(cap, DEFAULT_MAX_SERIES);
            let mut s = t.register(None, &["f"], &["x"]);
            for _ in 0..long {
                t.tick();
                t.sample(&mut s, 50);
            }
            t.set_capacity(cap / 2);
            for _ in 0..cap / 3 + 2 {
                t.tick();
                t.sample(&mut s, 50);
            }
            t.set_capacity(2 * cap);
            for _ in 0..3 * cap + 5 {
                t.tick();
                t.sample(&mut s, 50);
            }
            t.assert_same(&format!("cap {cap}: resize"));

            // Two samplers sharing a series, samples interleaved, the
            // later registered one first. The sharing starts mid-run
            // and ends when `b` stops writing `x`.
            let mut t = Twin::new(cap, DEFAULT_MAX_SERIES);
            let mut a = t.register(None, &["f"], &["x"]);
            for _ in 0..cap + 3 {
                t.tick();
                t.sample(&mut a, 10);
            }
            let mut b = t.register(None, &["x"], &["y"]);
            for _ in 0..long {
                t.tick();
                t.sample(&mut b, 10);
                t.sample(&mut a, 10);
            }
            let mut b = t.register(Some(&b), &["z"], &["y"]);
            for _ in 0..long {
                t.tick();
                t.sample(&mut b, 10);
                t.sample(&mut a, 10);
            }
            t.assert_same(&format!("cap {cap}: shared series"));
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
