//! The event-driven transfer engine: transfers as scheduled events.
//!
//! A bare cross-domain hop is what the paper says it is (§3.2): one
//! synchronous RPC whose reply carries the deallocation notices back.
//! [`FbufSystem::hop`] charges it inline, after draining anything still
//! in flight. Work that can wait rides the
//! [`fbuf_ipc::actor::EventLoop`] instead: each leg of a
//! [`FbufSystem::submit_transfer`] is **posted** to the destination
//! domain's bounded inbox, **dequeued** in deterministic `(time, id)`
//! order, **handled** (the leg's charges run inside the handler), and
//! **completed** either by posting the next leg or an explicit
//! [`HopMsg::Complete`] event back to the originator.
//!
//! **Counter-exactness is the design invariant**: the loop itself never
//! touches the clock — all cost stays in the handler, which performs
//! exactly the charges the inline descent (`hop` + `send` per leg, then
//! frees in reverse) performs. A drained transfer through the loop and
//! the same transfer driven inline therefore charge byte-identical
//! simulated time and counters (pinned by this module's tests), and
//! `tests/counter_exactness.rs` pins the loopback, Osiris,
//! proxy-chain and integrated-aggregate workloads to golden values.
//!
//! What the event loop adds over the descent is everything the descent
//! could not express: multiple transfers genuinely in flight
//! ([`run_offered_load`] posts bursts before pumping), per-hop queueing
//! delay measured into a [`Histogram`], and bounded inboxes whose
//! overflow is the explicit [`SendOutcome::Overload`] outcome instead of
//! unbounded recursion. See `DESIGN.md` §12.

use fbuf_ipc::{Envelope, EventLoop, SendOutcome};
use fbuf_sim::{Histogram, MachineConfig, Ns};
use fbuf_vm::DomainId;

use crate::buffer::FbufId;
use crate::error::FbufResult;
use crate::system::{AllocMode, FbufSystem, SendMode};

/// Event payloads flowing through the transfer engine's loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HopMsg {
    /// One leg of a full transfer driven by [`run_offered_load`]: the
    /// handler charges the RPC, moves `fbuf` to the envelope's
    /// destination, and posts the next leg (or frees + completes at the
    /// last one). `route` is the whole domain chain; `leg` indexes the
    /// hop being serviced (leg *i* moves the buffer from `route[i]` to
    /// `route[i + 1]`).
    Transfer {
        /// The buffer in flight.
        fbuf: FbufId,
        /// The full domain chain, originator first.
        route: Vec<DomainId>,
        /// Index of this hop within `route`.
        leg: usize,
        /// The transfer's causal span, minted by
        /// [`FbufSystem::submit_transfer`] and carried on every leg (the
        /// event loop also stamps it into each envelope, so every
        /// Enqueue/Dequeue/HopService record the transfer produces is
        /// tagged with it).
        span: u64,
        /// Simulated-time revocation deadline stamped by
        /// [`FbufSystem::submit_transfer`] when a timeout is armed
        /// ([`FbufSystem::set_revoke_timeout`]). A leg dequeued after
        /// this instant does not deliver: the buffer is revoked from the
        /// stalled holder chain and returned to its originator's cache.
        deadline: Option<Ns>,
    },
    /// Explicit completion, posted back to the originator after the final
    /// leg's frees. Charges nothing; counted on dequeue.
    Complete {
        /// The completed buffer's raw id (the buffer is already freed, so
        /// this is a token, not a live handle).
        fbuf: u64,
    },
}

impl FbufSystem {
    /// Sets the bounded per-domain inbox depth (see
    /// [`fbuf_ipc::actor::EventLoop::set_inbox_depth`]).
    pub fn set_inbox_depth(&mut self, depth: usize) {
        if let Some(e) = self.engine.as_mut() {
            e.set_inbox_depth(depth);
        }
    }

    /// Performs one cross-domain hop from `from` to `to` and returns the
    /// deallocation notices the reply carries back.
    ///
    /// A bare hop is one synchronous RPC (paper §3.2). It first drains
    /// the event loop, so it is a barrier behind any transfer still in
    /// flight; on a drained system that pump is a no-op. Called from
    /// inside a handler (the loop is already pumping) it simply charges
    /// inline.
    pub fn hop(&mut self, from: DomainId, to: DomainId) -> Vec<u64> {
        self.pump();
        self.rpc_mut().call(from, to)
    }

    /// Posts one full multi-leg transfer (first leg only; later legs are
    /// posted by the handler as each hop completes). Returns the outcome
    /// of the first post — [`SendOutcome::Overload`] means the transfer
    /// never started and the caller still owns `fbuf`.
    pub fn submit_transfer(&mut self, fbuf: FbufId, route: &[DomainId]) -> SendOutcome {
        assert!(route.len() >= 2, "a transfer needs at least one hop");
        let span = self.mint_span();
        let path = self.fbuf_path_raw(fbuf);
        let tracer = self.machine().tracer();
        tracer.span_start(span, route[0].0, path, Some(fbuf.0));
        let deadline = self
            .revoke_timeout()
            .map(|t| Ns(self.machine().now().as_ns() + t.as_ns()));
        let msg = HopMsg::Transfer {
            fbuf,
            route: route.to_vec(),
            leg: 0,
            span,
            deadline,
        };
        // The ambient span makes the first leg's Enqueue (and an
        // Overload refusal) attributable to this transfer; the envelope
        // then carries it hop to hop.
        let prev = tracer.set_current_span(Some(span));
        let outcome = self
            .engine
            .as_mut()
            .expect("engine present")
            .post_on(route[0], route[1], path, msg);
        tracer.set_current_span(prev);
        outcome
    }

    /// Drains the event loop to empty, servicing every pending event;
    /// no-op when re-entered from a handler. Returns the number of events
    /// processed.
    pub fn pump(&mut self) -> usize {
        let Some(mut evl) = self.engine.take() else {
            return 0;
        };
        let n = evl.run(self, &mut handle_hop);
        self.engine = Some(evl);
        n
    }

    /// Events currently pending across all inboxes.
    pub fn engine_pending(&self) -> usize {
        self.engine.as_ref().map_or(0, EventLoop::pending)
    }

    /// Posts refused with [`SendOutcome::Overload`] so far.
    pub fn engine_overloads(&self) -> u64 {
        self.engine.as_ref().map_or(0, EventLoop::overloads)
    }

    /// Per-hop queueing-delay histogram (simulated ns from enqueue to
    /// dequeue).
    pub fn queue_delay(&self) -> Histogram {
        self.engine
            .as_ref()
            .map(|e| e.queue_delay().clone())
            .unwrap_or_default()
    }

    /// Transfers completed through the event loop (a
    /// [`HopMsg::Complete`] event was dequeued).
    pub fn transfers_completed(&self) -> u64 {
        self.xfer_completed
    }

    /// Transfers aborted mid-route because a leg hit
    /// [`SendOutcome::Overload`] (the buffer was freed back at every
    /// holder).
    pub fn transfers_aborted(&self) -> u64 {
        self.xfer_aborted
    }

    /// Transfers whose revocation deadline expired before a leg was
    /// serviced — the buffer was revoked from the stalled holder chain.
    /// Every revoked transfer also counts as aborted, so the
    /// offered = completed + aborted conservation is unchanged.
    pub fn transfers_revoked(&self) -> u64 {
        self.xfer_revoked
    }

    /// Resets the engine's measurement state (queue-delay histogram,
    /// overload/enqueue/dequeue and completion counters) between sweep
    /// points; pending events are untouched.
    pub fn reset_engine_metrics(&mut self) {
        if let Some(e) = self.engine.as_mut() {
            e.reset_metrics();
        }
        self.xfer_completed = 0;
        self.xfer_aborted = 0;
        self.xfer_revoked = 0;
    }
}

/// The per-event handler: all simulated cost charged by a transfer leg
/// lives here, which is what keeps the loop counter-exact with the inline
/// descent.
fn handle_hop(evl: &mut EventLoop<HopMsg>, sys: &mut FbufSystem, env: Envelope<HopMsg>) {
    match env.msg {
        HopMsg::Transfer {
            fbuf,
            route,
            leg,
            span,
            deadline,
        } => {
            // The loop restored the envelope's span around this handler,
            // so it must agree with the one the message carries.
            debug_assert_eq!(
                sys.machine().tracer_ref().current_span().or(Some(span)),
                Some(span),
                "envelope span and message span diverged"
            );
            let t0 = sys.machine().now();
            let path = sys.fbuf_path_raw(fbuf);
            if deadline.is_some_and(|dl| sys.machine().now() > dl) {
                // The revocation deadline passed while this leg sat
                // queued: the receiver is stalled. Take the buffer back
                // instead of delivering — the deepest live holder is
                // formally revoked (one Revoked event, one ledger bill),
                // the rest release normally, and the originator's final
                // free returns the buffer to its path cache. Holders a
                // domain termination already released are skipped, so
                // frames are reclaimed exactly once either way.
                sys.xfer_revoked += 1;
                sys.xfer_aborted += 1;
                let mut revoked = false;
                for d in route[..=leg].iter().rev() {
                    if !revoked && sys.fbuf(fbuf).is_ok_and(|f| f.holders.contains(d)) {
                        revoked = sys.revoke(fbuf, *d).is_ok();
                    } else {
                        let _ = sys.free(fbuf, *d);
                    }
                }
                sys.sample_metrics();
                return;
            }
            sys.rpc_mut().call(env.from, env.to);
            if let Err(e) = sys.send(fbuf, env.from, env.to, SendMode::Volatile) {
                sys.engine_error.get_or_insert(e);
                sys.xfer_aborted += 1;
                return;
            }
            if leg + 2 < route.len() {
                let (nf, nt) = (route[leg + 1], route[leg + 2]);
                let msg = HopMsg::Transfer {
                    fbuf,
                    route: route.clone(),
                    leg: leg + 1,
                    span,
                    deadline,
                };
                if evl.post_on(nf, nt, path, msg).is_overload() {
                    // The next inbox refused the leg: abort the transfer,
                    // releasing every reference taken so far, receiver
                    // back to originator.
                    sys.xfer_aborted += 1;
                    for d in route[..=leg + 1].iter().rev() {
                        let _ = sys.free(fbuf, *d);
                    }
                }
            } else {
                // Final leg: every holder releases, receiver first (the
                // originator's free parks the buffer on the path cache),
                // then completion is itself an event back to the source.
                let origin = route[0];
                for d in route.iter().rev() {
                    let _ = sys.free(fbuf, *d);
                }
                let from = *route.last().expect("route non-empty");
                // Admission control bounds in-flight transfers to the
                // inbox depth, so the originator's inbox always has room
                // for completions; if a caller engineers one anyway, the
                // completion is counted inline rather than lost.
                if evl
                    .post_on(from, origin, path, HopMsg::Complete { fbuf: fbuf.0 })
                    .is_overload()
                {
                    sys.xfer_completed += 1;
                }
            }
            // Everything this hop charged between t0 and now is its
            // service stage in the span's critical-path decomposition.
            sys.machine()
                .tracer_ref()
                .span(t0, fbuf_sim::EventKind::HopService, env.to.0, path, Some(fbuf.0));
            sys.sample_metrics();
        }
        HopMsg::Complete { .. } => {
            sys.xfer_completed += 1;
        }
    }
}

/// Configuration for the offered-load queueing workload.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Total transfers to offer.
    pub transfers: u64,
    /// Transfers posted before each drain — the offered load. `1` is the
    /// drained sequential regime (zero queueing delay); larger bursts
    /// build real backlog and, past the inbox depth, overload.
    pub burst: usize,
    /// Hops per transfer (route has `hops + 1` domains, originator
    /// included).
    pub hops: usize,
    /// Pages per fbuf.
    pub pages: u64,
    /// Per-domain inbox bound.
    pub inbox_depth: usize,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig {
            transfers: 256,
            burst: 8,
            hops: 2,
            pages: 1,
            inbox_depth: fbuf_ipc::DEFAULT_INBOX_DEPTH,
        }
    }
}

/// What one offered-load run measured.
#[derive(Debug, Clone)]
pub struct QueueReport {
    /// Transfers offered (alloc + first-leg post attempted).
    pub offered: u64,
    /// Transfers whose [`HopMsg::Complete`] event was serviced.
    pub completed: u64,
    /// Transfers refused or aborted by a full inbox.
    pub aborted: u64,
    /// Individual posts refused ([`SendOutcome::Overload`]), counting
    /// first legs and mid-route legs alike.
    pub overloads: u64,
    /// Per-hop queueing delay (simulated ns from enqueue to dequeue).
    pub queue_delay: Histogram,
    /// Simulated time the run took.
    pub elapsed: Ns,
    /// Payload bytes successfully delivered end to end.
    pub bytes_delivered: u64,
    /// Telemetry series sampled over the run (the engine's gauges on
    /// the default cadence).
    pub telemetry: Vec<fbuf_sim::metrics::SeriesSnapshot>,
    /// Critical-path decomposition of the run's transfer spans:
    /// queueing vs. service time per hop (ring-crossing is empty on a
    /// single-shard run).
    pub spans: fbuf_sim::spans::StageDecomposition,
}

/// Runs the offered-load queueing workload on a fresh system: allocates
/// cached fbufs at the originator, posts `burst` transfers at a time
/// through an `hops`-leg route, then drains the loop — measuring per-hop
/// queueing delay and overload behaviour as a function of offered load.
///
/// With `burst = 1` this is exactly the drained sequential regime the
/// counter-exactness tests pin; with `burst > inbox_depth` the bounded
/// inboxes start refusing work and the explicit [`SendOutcome::Overload`]
/// path (counted in `Stats::overload_drops`) takes over from queueing.
pub fn run_offered_load(cfg: &QueueConfig) -> FbufResult<QueueReport> {
    let mut sys = FbufSystem::new(MachineConfig::decstation_5000_200());
    sys.set_inbox_depth(cfg.inbox_depth);
    // Telemetry and span tracing ride along: neither ever charges the
    // simulated clock, so the measured times are unchanged.
    sys.machine().metrics_ref().set_enabled(true);
    sys.machine().tracer().set_enabled(true);

    let mut route = vec![fbuf_vm::KERNEL_DOMAIN];
    for _ in 0..cfg.hops {
        route.push(sys.create_domain());
    }
    let origin = route[0];
    let path = sys.create_path(route.clone())?;
    let len = cfg.pages * sys.machine().page_size();

    let t0 = sys.machine().now();
    let mut offered = 0u64;
    let mut refused_at_post = 0u64;
    while offered < cfg.transfers {
        let n = (cfg.transfers - offered).min(cfg.burst as u64);
        for _ in 0..n {
            let fbuf = sys.alloc(origin, AllocMode::Cached(path), len)?;
            offered += 1;
            if sys.submit_transfer(fbuf, &route).is_overload() {
                // Never started: the originator still owns the buffer.
                sys.free(fbuf, origin)?;
                refused_at_post += 1;
            }
        }
        sys.pump();
    }
    sys.pump();
    if let Some(e) = sys.engine_error.take() {
        return Err(e);
    }

    let completed = sys.transfers_completed();
    Ok(QueueReport {
        offered,
        completed,
        aborted: refused_at_post + sys.transfers_aborted(),
        overloads: sys.engine_overloads(),
        queue_delay: sys.queue_delay(),
        elapsed: sys.machine().now() - t0,
        bytes_delivered: completed * len,
        telemetry: sys.machine().metrics_ref().series(),
        spans: fbuf_sim::spans::decompose(&sys.machine().tracer().events()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf_vm::KERNEL_DOMAIN;

    fn fresh() -> (FbufSystem, DomainId, DomainId) {
        let mut sys = FbufSystem::new(MachineConfig::decstation_5000_200());
        let a = sys.create_domain();
        let b = sys.create_domain();
        (sys, a, b)
    }

    #[test]
    fn hop_is_exactly_one_synchronous_rpc() {
        let (mut hopped, ha, hb) = fresh();
        let (mut called, ca, cb) = fresh();
        // Give both replies notices to carry: a cached buffer the
        // receiver has released queues one for its originator.
        for (sys, a, b) in [(&mut hopped, ha, hb), (&mut called, ca, cb)] {
            let path = sys.create_path(vec![a, b]).unwrap();
            let buf = sys.alloc(a, AllocMode::Cached(path), 4096).unwrap();
            sys.send(buf, a, b, SendMode::Volatile).unwrap();
            sys.free(buf, b).unwrap();
        }
        for _ in 0..10 {
            assert_eq!(hopped.hop(ha, hb), called.rpc_mut().call(ca, cb));
            assert_eq!(
                hopped.hop(hb, KERNEL_DOMAIN),
                called.rpc_mut().call(cb, KERNEL_DOMAIN)
            );
        }
        assert_eq!(hopped.machine().now(), called.machine().now());
        assert_eq!(
            hopped.stats().snapshot(),
            called.stats().snapshot(),
            "a hop charges exactly the RPC"
        );
        assert_eq!(hopped.stats().piggybacked_notices(), 1);
        // Nothing went through the loop.
        assert_eq!(hopped.engine_pending(), 0);
        assert!(hopped.queue_delay().is_empty());
    }

    #[test]
    fn drained_transfers_charge_exactly_the_inline_descent() {
        // Differential matrix: the event loop (submit + pump, one
        // transfer at a time) against the inline descent (`hop` + `send`
        // per leg, then frees receiver first), on twin systems, over
        // route length x pages x transfers.
        for hops in 1..=4usize {
            for pages in [1u64, 4] {
                for transfers in [1u64, 8, 33] {
                    let case = format!("hops {hops} pages {pages} transfers {transfers}");
                    let setup = || {
                        let mut sys = FbufSystem::new(MachineConfig::decstation_5000_200());
                        let mut route = vec![KERNEL_DOMAIN];
                        for _ in 0..hops {
                            route.push(sys.create_domain());
                        }
                        let path = sys.create_path(route.clone()).unwrap();
                        let len = pages * sys.machine().page_size();
                        (sys, route, path, len)
                    };

                    let (mut looped, route, path, len) = setup();
                    for _ in 0..transfers {
                        let buf = looped
                            .alloc(route[0], AllocMode::Cached(path), len)
                            .unwrap();
                        assert!(!looped.submit_transfer(buf, &route).is_overload());
                        looped.pump();
                    }
                    assert_eq!(looped.transfers_completed(), transfers, "{case}");
                    assert_eq!(looped.queue_delay().max(), 0, "{case}: drained");

                    let (mut inline, route, path, len) = setup();
                    for _ in 0..transfers {
                        let buf = inline
                            .alloc(route[0], AllocMode::Cached(path), len)
                            .unwrap();
                        for leg in route.windows(2) {
                            inline.hop(leg[0], leg[1]);
                            inline
                                .send(buf, leg[0], leg[1], SendMode::Volatile)
                                .unwrap();
                        }
                        for d in route.iter().rev() {
                            inline.free(buf, *d).unwrap();
                        }
                    }

                    assert_eq!(looped.machine().now(), inline.machine().now(), "{case}");
                    assert_eq!(
                        looped.stats().snapshot(),
                        inline.stats().snapshot(),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn hop_returns_piggybacked_notices_on_the_reply() {
        let (mut sys, a, b) = fresh();
        let path = sys.create_path(vec![a, b]).unwrap();
        let buf = sys.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        sys.send(buf, a, b, SendMode::Volatile).unwrap();
        sys.free(buf, b).unwrap(); // queues a notice for owner `a`
        let drained = sys.hop(a, b);
        assert_eq!(drained, vec![buf.0], "the reply carried the notice");
        assert!(sys.hop(a, b).is_empty(), "drained only once");
    }

    #[test]
    fn offered_load_completes_everything_when_admitted() {
        let cfg = QueueConfig {
            transfers: 64,
            burst: 4,
            hops: 2,
            ..QueueConfig::default()
        };
        let r = run_offered_load(&cfg).unwrap();
        assert_eq!(r.offered, 64);
        assert_eq!(r.completed, 64);
        assert_eq!(r.aborted, 0);
        assert_eq!(r.overloads, 0);
        // 2 transfer legs + 1 completion event per transfer.
        assert_eq!(r.queue_delay.count(), 64 * 3);
        assert!(r.elapsed > Ns::ZERO);
        assert_eq!(r.bytes_delivered, 64 * 4096);
    }

    #[test]
    fn queueing_delay_grows_with_offered_load() {
        let base = QueueConfig {
            transfers: 64,
            hops: 2,
            ..QueueConfig::default()
        };
        let drained = run_offered_load(&QueueConfig { burst: 1, ..base.clone() }).unwrap();
        let loaded = run_offered_load(&QueueConfig { burst: 16, ..base }).unwrap();
        assert_eq!(
            drained.queue_delay.max(),
            0,
            "burst=1 is the drained sequential regime"
        );
        assert!(
            loaded.queue_delay.max() > 0,
            "a burst builds backlog, so later events wait"
        );
        assert!(loaded.queue_delay.p99() >= loaded.queue_delay.p50());
    }

    #[test]
    fn overload_bounds_admission_past_inbox_depth() {
        let cfg = QueueConfig {
            transfers: 64,
            burst: 16,
            hops: 1,
            inbox_depth: 4,
            ..QueueConfig::default()
        };
        let r = run_offered_load(&cfg).unwrap();
        assert!(r.overloads > 0, "posts beyond the depth are refused");
        assert!(r.aborted > 0);
        assert_eq!(
            r.completed + r.aborted,
            r.offered,
            "every transfer either completes or aborts — none lost"
        );
        // Refused transfers were freed back to the path cache, not leaked.
        assert!(r.completed >= 4 * (64 / 16), "each burst admits the depth");
    }

    #[test]
    fn submit_and_pump_drive_one_transfer_end_to_end() {
        let (mut sys, a, _) = fresh();
        let route = vec![KERNEL_DOMAIN, a];
        let path = sys.create_path(route.clone()).unwrap();
        let buf = sys
            .alloc(KERNEL_DOMAIN, AllocMode::Cached(path), 4096)
            .unwrap();
        assert!(!sys.submit_transfer(buf, &route).is_overload());
        assert_eq!(sys.engine_pending(), 1);
        let serviced = sys.pump();
        assert_eq!(serviced, 2, "one transfer leg plus its completion");
        assert_eq!(sys.transfers_completed(), 1);
        assert_eq!(sys.engine_pending(), 0);
        assert_eq!(sys.stats().fbuf_transfers(), 1);
    }
}
