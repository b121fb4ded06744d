//! Host-time measurement: per-transfer timing in fixed-size windows, and
//! the traced run's spans.
//!
//! Every span is recorded by the benchmark around its own call into a
//! layer's public function; nothing inside the program is instrumented.
//! A span's self time is its duration minus the time its child spans
//! cover, so a layer's self time is summed from its spans alone.

use std::time::Instant;

use fbuf_sim::Rng;

/// A uniform sample of at most `cap` values out of every value pushed
/// (reservoir sampling), so a long run keeps bounded memory while its
/// percentiles still cover the whole run.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    vals: Vec<u32>,
    rng: Rng,
}

impl Reservoir {
    /// An empty reservoir holding at most `cap` values.
    pub fn new(cap: usize) -> Reservoir {
        Reservoir {
            cap,
            seen: 0,
            vals: Vec::new(),
            rng: Rng::new(0x5eed_0f5a_3b1e),
        }
    }

    /// Offers one value (saturated to `u32::MAX` ns, about 4.3 s).
    pub fn push(&mut self, v: u64) {
        let v = u32::try_from(v).unwrap_or(u32::MAX);
        self.seen += 1;
        if self.vals.len() < self.cap {
            self.vals.push(v);
        } else {
            let j = self.rng.below(self.seen);
            if (j as usize) < self.cap {
                self.vals[j as usize] = v;
            }
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Folds `other` in, keeping each side's share of the merged sample
    /// proportional to how many values it saw.
    pub fn merge(&mut self, other: &Reservoir) {
        let total = self.seen + other.seen;
        if total == 0 {
            return;
        }
        let room = self.cap.max(other.cap);
        if self.vals.len() + other.vals.len() <= room {
            self.vals.extend_from_slice(&other.vals);
        } else {
            let mine = ((room as u128 * self.seen as u128) / total as u128) as usize;
            let mine = mine.min(self.vals.len());
            let theirs = (room - mine).min(other.vals.len());
            self.vals.truncate(mine);
            self.vals.extend_from_slice(&other.vals[..theirs]);
        }
        self.cap = room;
        self.seen = total;
    }

    /// Nearest-rank quantiles `qs` (each in `[0, 1]`) of the sample; all
    /// zero when empty.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        let mut v = self.vals.clone();
        v.sort_unstable();
        qs.iter()
            .map(|&q| match v.len() {
                0 => 0.0,
                n => {
                    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                    f64::from(v[rank - 1])
                }
            })
            .collect()
    }
}

/// Host timing of one caller, in windows of a fixed number of
/// transfers: each closed window keeps its wall-clock mean per transfer
/// and the median and 99th percentile of its transfers' durations.
#[derive(Debug, Clone)]
pub struct Meter {
    window: usize,
    cur: Vec<u32>,
    start: Instant,
    /// Closed windows, in order.
    pub windows: Vec<Window>,
}

/// One closed window of a [`Meter`].
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Wall-clock time of the window over its transfers, ns.
    pub mean_ns: f64,
    /// Median transfer duration, ns.
    pub p50_ns: f64,
    /// 99th-percentile transfer duration, ns.
    pub p99_ns: f64,
}

impl Meter {
    /// A meter closing a window every `window` transfers.
    pub fn new(window: usize) -> Meter {
        let window = window.max(1);
        Meter {
            window,
            cur: Vec::with_capacity(window),
            start: Instant::now(),
            windows: Vec::new(),
        }
    }

    /// Discards the open window and starts a new one now: call after any
    /// pause (barrier, drain, phase switch) that is not transfer work.
    pub fn restart_window(&mut self) {
        self.cur.clear();
        self.start = Instant::now();
    }

    /// Records one completed transfer that took `ns`.
    pub fn record(&mut self, ns: u64) {
        self.cur.push(u32::try_from(ns).unwrap_or(u32::MAX));
        if self.cur.len() == self.window {
            let now = Instant::now();
            let n = self.cur.len();
            self.cur.sort_unstable();
            let rank =
                |q: f64| f64::from(self.cur[((q * n as f64).ceil() as usize).clamp(1, n) - 1]);
            self.windows.push(Window {
                mean_ns: (now - self.start).as_nanos() as f64 / n as f64,
                p50_ns: rank(0.5),
                p99_ns: rank(0.99),
            });
            self.cur.clear();
            self.start = now;
        }
    }
}

/// The layer boundaries the benchmark's workload loops call across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sp {
    /// One transfer (a cycle, a cross-shard payload, a message, an arrival).
    Xfer,
    /// `FbufSystem::alloc`.
    Alloc,
    /// `FbufSystem::write_fbuf`.
    Write,
    /// `FbufSystem::send`.
    Send,
    /// `FbufSystem::free`.
    Free,
    /// `FbufSystem::hop` (the ipc event loop).
    Hop,
    /// `Shard::egress`.
    Egress,
    /// `Shard::poll`.
    Poll,
    /// `Shard::sample_telemetry`.
    Telemetry,
    /// `LoopbackStack::send_message`, cached fbufs.
    LoopCached,
    /// `LoopbackStack::send_message`, uncached fbufs.
    LoopUncached,
    /// `EndToEnd::send_message`, Fig. 5 cached/volatile.
    Fig5,
    /// `EndToEnd::send_message`, Fig. 6 uncached/secure.
    Fig6,
    /// The benchmark's own input generation.
    Gen,
}

impl Sp {
    /// Every boundary, in index order.
    pub const ALL: [Sp; 14] = [
        Sp::Xfer,
        Sp::Alloc,
        Sp::Write,
        Sp::Send,
        Sp::Free,
        Sp::Hop,
        Sp::Egress,
        Sp::Poll,
        Sp::Telemetry,
        Sp::LoopCached,
        Sp::LoopUncached,
        Sp::Fig5,
        Sp::Fig6,
        Sp::Gen,
    ];

    /// The span's name: its layer, then the function.
    pub fn name(self) -> &'static str {
        match self {
            Sp::Xfer => "xfer",
            Sp::Alloc => "core.alloc",
            Sp::Write => "core.write",
            Sp::Send => "core.send",
            Sp::Free => "core.free",
            Sp::Hop => "ipc.hop",
            Sp::Egress => "core.shard.egress",
            Sp::Poll => "core.shard.poll",
            Sp::Telemetry => "sim.metrics.sample_telemetry",
            Sp::LoopCached => "net.loopback.cached",
            Sp::LoopUncached => "net.loopback.uncached",
            Sp::Fig5 => "net.osiris.fig5",
            Sp::Fig6 => "net.osiris.fig6",
            Sp::Gen => "bench.gen",
        }
    }
}

/// Aggregate of every span of one name.
#[derive(Debug, Clone)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Spans whose call returned an error (an admission denial, say).
    pub failed: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: u64,
    /// Durations, ns.
    pub ns: Reservoir,
}

/// One recorded span, as written to the span file.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Span id (unique within its tracer).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Which boundary.
    pub sp: Sp,
    /// Transfer the span belongs to, 0 outside any transfer.
    pub xfer: u64,
    /// Start and end, ns since the tracer was created.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

struct Open {
    sp: Sp,
    id: u64,
    parent: u64,
    xfer: u64,
    start: Instant,
    child_ns: u64,
}

/// Spans of one caller thread. While off, every method is one branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    next_xfer: u64,
    stack: Vec<Open>,
    /// Per-boundary aggregates, indexed like [`Sp::ALL`].
    pub aggs: Vec<Agg>,
    /// The first [`RECORD_CAP`] spans recorded, kept for the span file.
    pub records: Vec<SpanRec>,
}

/// Spans kept per tracer for the span file.
pub const RECORD_CAP: usize = 20_000;

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer, off until [`Tracer::set_on`].
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            next_id: 0,
            next_xfer: 0,
            stack: Vec::new(),
            aggs: Sp::ALL
                .iter()
                .map(|_| Agg {
                    calls: 0,
                    failed: 0,
                    total_ns: 0,
                    self_ns: 0,
                    ns: Reservoir::new(1 << 16),
                })
                .collect(),
            records: Vec::new(),
        }
    }

    /// Turns span recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span. A [`Sp::Xfer`] span starts a new transfer id; any
    /// other span inherits its parent's.
    #[inline]
    pub fn begin(&mut self, sp: Sp) {
        if !self.on {
            return;
        }
        self.next_id += 1;
        let (parent, xfer) = match self.stack.last() {
            Some(o) => (o.id, o.xfer),
            None => (0, 0),
        };
        let xfer = if sp == Sp::Xfer {
            self.next_xfer += 1;
            self.next_xfer
        } else {
            xfer
        };
        self.stack.push(Open {
            sp,
            id: self.next_id,
            parent,
            xfer,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self, failed: bool) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let o = self.stack.pop().expect("end() matches a begin()");
        let dur = (end - o.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let a = &mut self.aggs[o.sp as usize];
        a.calls += 1;
        a.failed += u64::from(failed);
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(o.child_ns);
        a.ns.push(dur);
        if self.records.len() < RECORD_CAP {
            let start_ns = (o.start - self.epoch).as_nanos() as u64;
            self.records.push(SpanRec {
                id: o.id,
                parent: o.parent,
                sp: o.sp,
                xfer: o.xfer,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn run<T>(&mut self, sp: Sp, f: impl FnOnce() -> T) -> T {
        self.begin(sp);
        let out = f();
        self.end(false);
        out
    }

    /// Runs a fallible `f` inside a span; an `Err` marks the span failed.
    #[inline]
    pub fn call<T, E>(&mut self, sp: Sp, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        self.begin(sp);
        let out = f();
        self.end(out.is_err());
        out
    }

    /// The aggregate of one boundary.
    pub fn agg(&self, sp: Sp) -> &Agg {
        &self.aggs[sp as usize]
    }

    /// Folds another thread's spans in.
    pub fn merge(&mut self, other: &Tracer) {
        for (a, b) in self.aggs.iter_mut().zip(&other.aggs) {
            a.calls += b.calls;
            a.failed += b.failed;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
            a.ns.merge(&b.ns);
        }
        self.records.extend_from_slice(&other.records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_on(true);
        t.begin(Sp::Xfer);
        t.run(Sp::Alloc, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(false);
        let x = t.agg(Sp::Xfer);
        let a = t.agg(Sp::Alloc);
        assert_eq!((x.calls, a.calls), (1, 1));
        assert!(x.total_ns >= a.total_ns);
        assert_eq!(x.self_ns, x.total_ns - a.total_ns);
        assert_eq!(t.records.len(), 2);
        let (child, root) = (t.records[0], t.records[1]);
        assert_eq!(child.parent, root.id);
        assert_eq!(child.xfer, root.xfer);
        assert_ne!(root.xfer, 0);
    }

    #[test]
    fn reservoir_quantiles_and_merge() {
        let mut r = Reservoir::new(1000);
        for v in 1..=100 {
            r.push(v);
        }
        assert_eq!(r.quantiles(&[0.5, 0.99]), vec![50.0, 99.0]);
        let mut big = Reservoir::new(100);
        for v in 0..10_000 {
            big.push(v);
        }
        assert_eq!(big.seen(), 10_000);
        r.merge(&big);
        assert_eq!(r.seen(), 10_100);
    }
}
