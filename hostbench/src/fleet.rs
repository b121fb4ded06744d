//! `cached-fleet`: the §3.2.2 cached fast path on a two-shard fleet.
//!
//! Each shard is a complete engine on its own OS thread (`fbuf::shard`).
//! The benchmark drives every local cycle itself through
//! `FbufSystem::{alloc, hop, send, free}` on the shard's `sys`, and the
//! cross-shard traffic through `Shard::{egress, poll}`, so each call is
//! a span boundary. Telemetry is on at the default cadence, as
//! `fbuf-stress` runs it: its cost grows with the paths a shard samples.
//!
//! Work is measured in rounds of a fixed cycle count; every round ends
//! with both shards quiescent (all payloads ingested, all notices back),
//! so the first round is a fixed, seed-determined reference window for
//! the simulated metrics, and the host clock only decides how many
//! rounds follow it.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use fbuf::shard::{CrossShardMsg, Links, NoticeBatch, Shard};
use fbuf::{AllocMode, FbufResult, FbufSystem, Ledger, PathId, SendMode};
use fbuf_sim::spsc;
use fbuf_sim::{MachineConfig, Ns, Rng, StatsSnapshot};
use fbuf_vm::DomainId;

use crate::trace::{Meter, Sp, Tracer};
use crate::{common_layers, probes, ratio, trace_overhead, Opts, Outcome};

/// Shards, one OS thread each, linked in a ring of two.
pub const SHARDS: usize = 2;
/// Local paths across the fleet, split evenly between the shards.
pub const PATHS: usize = 16;
/// Pages per buffer.
pub const PAGES: u64 = 1;
/// Notice-coalescing window.
pub const NOTICE_BATCH: usize = 8;
/// Data/notice ring capacity.
pub const RING: usize = 16;
/// Set-ups timed as one `setup_s` sample, which is their mean: a single
/// set-up takes well under a millisecond, too short to time alone.
pub const SETUP_BATCH: usize = 8;
/// Rounds measured before the host clock may end a phase.
pub const MIN_ROUNDS: u64 = 2;

/// Round shape of the fleet (the tests shrink it).
#[derive(Debug, Clone)]
pub struct Params {
    /// One cross-shard payload every this many local cycles.
    pub cross_every: u64,
    /// Local cycles per shard per round.
    pub round_cycles: u64,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            cross_every: 64,
            round_cycles: 1024,
        }
    }
}

/// The machine every shard instantiates (as `fbuf-stress` sets it up:
/// every path's working set stays resident).
pub fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 64 << 20;
    cfg.chunk_size = 1 << 20;
    cfg
}

/// The seed-generated input of one shard: the local path each cycle of
/// a round visits (a fresh seeded permutation per pass over the paths).
pub fn schedule(seed: u64, shard: usize, paths: usize, cycles: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0xf1ee_7000 ^ ((shard as u64) << 40));
    let mut order: Vec<usize> = (0..paths).collect();
    let mut out = Vec::with_capacity(cycles as usize);
    while (out.len() as u64) < cycles {
        rng.shuffle(&mut order);
        out.extend_from_slice(&order);
    }
    out.truncate(cycles as usize);
    out
}

#[derive(Debug, Clone, Copy)]
struct Triple {
    path: PathId,
    o: DomainId,
    n: DomainId,
    r: DomainId,
}

/// One cached loopback cycle: alloc at the originator, two hops and
/// sends down the path, a free in every holder.
fn cycle(sys: &mut FbufSystem, t: Triple, len: u64, tr: &mut Tracer) -> FbufResult<()> {
    let id = tr.call(Sp::Alloc, || sys.alloc(t.o, AllocMode::Cached(t.path), len))?;
    tr.run(Sp::Hop, || sys.hop(t.o, t.n));
    tr.call(Sp::Send, || sys.send(id, t.o, t.n, SendMode::Volatile))?;
    tr.run(Sp::Hop, || sys.hop(t.n, t.r));
    tr.call(Sp::Send, || sys.send(id, t.n, t.r, SendMode::Volatile))?;
    tr.call(Sp::Free, || sys.free(id, t.r))?;
    tr.call(Sp::Free, || sys.free(id, t.n))?;
    tr.call(Sp::Free, || sys.free(id, t.o))
}

const GO: u8 = 0;
const TRACE: u8 = 1;
const STOP: u8 = 2;

/// Cross-thread control, shared by reference.
struct Ctl {
    barrier: Barrier,
    cmd: AtomicU8,
    /// Cross-shard payloads each shard has sent, published at round end.
    sent: Vec<AtomicU64>,
    /// Rounds each shard has ended (stored after `sent`).
    rounds: Vec<AtomicU64>,
}

/// What one shard thread hands back (plain data only).
struct ShardOut {
    setup_ns: Vec<u64>,
    meter: Meter,
    tracer: Tracer,
    xfers_untraced: u64,
    xfers_traced: u64,
    wall_untraced_ns: u64,
    wall_traced_ns: u64,
    busy_ns: u64,
    failed_xfers: u64,
    first_error: Option<String>,
    ref_bytes: u64,
    ref_sim: Ns,
    ref_xfers: u64,
    traced_delta: StatsSnapshot,
    steady: Vec<String>,
    sent: u64,
    received: u64,
    orphan: u64,
    rejected: u64,
    polls: u64,
    empty_polls: u64,
    notice_batches: u64,
    notice_tokens: u64,
    samples_traced: u64,
    series: u64,
    refused: u64,
    ledger: Ledger,
    life: StatsSnapshot,
    domains: u32,
}

/// Telemetry points recorded so far (kept plus evicted), all series.
fn samples_taken(sys: &FbufSystem) -> u64 {
    sys.machine()
        .metrics_ref()
        .series()
        .iter()
        .map(|s| s.points.len() as u64 + s.dropped)
        .sum()
}

/// The fleet's rings: each shard feeds the other, and each returns the
/// other's notices.
fn pair_links() -> [Links; SHARDS] {
    let mut links = [Links::default(), Links::default()];
    for i in 0..SHARDS {
        let peer = 1 - i;
        let (data_tx, data_rx) = spsc::ring::<CrossShardMsg>(RING);
        let (notice_tx, notice_rx) = spsc::ring::<NoticeBatch>(RING);
        links[i].data_tx = Some(data_tx);
        links[i].notice_rx = Some(notice_rx);
        links[peer].data_rx = Some(data_rx);
        links[peer].notice_tx = Some(notice_tx);
        links[peer].upstream = Some(i);
    }
    links
}

/// Runs `cached-fleet` under `opts`.
pub fn run(opts: &Opts, p: &Params) -> Outcome {
    // One fresh pair of rings per set-up, handed out per shard.
    let mut per_shard: Vec<Vec<Links>> = (0..SHARDS).map(|_| Vec::new()).collect();
    for _ in 0..opts.setup_reps() * SETUP_BATCH {
        for (i, l) in pair_links().into_iter().enumerate() {
            per_shard[i].push(l);
        }
    }
    let counters = || (0..SHARDS).map(|_| AtomicU64::new(0)).collect();
    let ctl = Ctl {
        barrier: Barrier::new(SHARDS),
        cmd: AtomicU8::new(GO),
        sent: counters(),
        rounds: counters(),
    };
    let outs: Vec<ShardOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_shard
            .into_iter()
            .enumerate()
            .map(|(id, links)| {
                let ctl = &ctl;
                scope.spawn(move || shard_main(id, links, opts, p, ctl))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });

    let mut o = Outcome::default();
    let mut tracer = Tracer::new();
    let mut delta = StatsSnapshot::default();
    let (mut xu, mut xt, mut wu, mut wt) = (0u64, 0u64, 0u64, 0u64);
    let mut ledger = Ledger::new();
    let (mut dom_base, mut path_base) = (0u32, 0u64);
    let mut life = StatsSnapshot::default();
    for (i, s) in outs.iter().enumerate() {
        o.meters.push(s.meter.clone());
        tracer.merge(&s.tracer);
        delta = delta.merge(&s.traced_delta);
        xu += s.xfers_untraced;
        xt += s.xfers_traced;
        wu = wu.max(s.wall_untraced_ns);
        wt = wt.max(s.wall_traced_ns);
        o.transfers(
            s.xfers_untraced + s.xfers_traced + s.failed_xfers,
            s.failed_xfers,
            || {
                format!(
                    "shard {i}: {} failed cycles, first: {:?}",
                    s.failed_xfers, s.first_error
                )
            },
        );
        o.check(s.steady.is_empty(), || {
            format!(
                "shard {i} left §3.2.2 steady state: {}",
                s.steady.join("; ")
            )
        });
        o.check(s.orphan == 0 && s.rejected == 0, || {
            format!(
                "shard {i}: {} orphan notices, {} rejected tokens",
                s.orphan, s.rejected
            )
        });
        ledger.merge_offset(&s.ledger, dom_base, path_base);
        dom_base += s.domains;
        path_base += s.ledger.paths.len() as u64;
        life = life.merge(&s.life);
    }
    let sent: u64 = outs.iter().map(|s| s.sent).sum();
    let received: u64 = outs.iter().map(|s| s.received).sum();
    o.check(sent == received, || {
        format!("cross-shard payloads: {sent} sent, {received} received")
    });
    let violations = ledger.conserves(&life);
    o.check(violations.is_empty(), || {
        format!("fleet ledger: {}", violations.join("; "))
    });
    o.xfers = xu;
    o.wall_s = wu as f64 / 1e9;
    o.setup_s = outs
        .iter()
        .flat_map(|s| s.setup_ns.iter().map(|&ns| ns as f64 / 1e9))
        .collect();
    let ref_sim = outs.iter().map(|s| s.ref_sim).max().unwrap_or(Ns::ZERO);
    let ref_bytes: u64 = outs.iter().map(|s| s.ref_bytes).sum();
    let ref_xfers: u64 = outs.iter().map(|s| s.ref_xfers).sum();
    o.sim_mbps = ref_sim.mbps(ref_bytes);
    o.sim_admit_frac = 1.0;

    if opts.trace {
        let caller_ns: f64 = outs.iter().map(|s| s.wall_traced_ns as f64).sum();
        let mut layer = common_layers(&tracer, &delta, xt, caller_ns);
        let busy: Vec<f64> = outs.iter().map(|s| s.busy_ns as f64).collect();
        let (bmax, bmin) = busy
            .iter()
            .fold((0.0f64, f64::INFINITY), |(a, b), &v| (a.max(v), b.min(v)));
        let polls: u64 = outs.iter().map(|s| s.polls).sum();
        let empty: u64 = outs.iter().map(|s| s.empty_polls).sum();
        let batches: u64 = outs.iter().map(|s| s.notice_batches).sum();
        let tokens: u64 = outs.iter().map(|s| s.notice_tokens).sum();
        let payloads = tracer.agg(Sp::Egress).calls;
        layer.extend([
            (
                "core.shard.poll.empty_frac",
                ratio(empty as f64, polls as f64),
            ),
            ("core.shard.imbalance", ratio(bmax, bmin)),
            ("core.shard.payloads", ratio(payloads as f64, xt as f64)),
            (
                "core.shard.orphan_notices",
                outs.iter().map(|s| s.orphan as f64).sum(),
            ),
            (
                "core.shard.rejected_tokens",
                outs.iter().map(|s| s.rejected as f64).sum(),
            ),
            (
                "sim.metrics.sample_ns",
                probes::sample_gauges_ns(&shard_shape(PATHS / SHARDS)),
            ),
            (
                "sim.metrics.samples_per_xfer",
                ratio(
                    outs.iter().map(|s| s.samples_traced as f64).sum(),
                    xt as f64,
                ),
            ),
            (
                "sim.metrics.series",
                outs.iter().map(|s| s.series as f64).sum(),
            ),
            (
                "sim.metrics.refused_names",
                outs.iter().map(|s| s.refused as f64).sum(),
            ),
            ("sim.spsc.coalesce", ratio(tokens as f64, batches as f64)),
            (
                "sim.sim_ns_per_xfer",
                ratio(
                    outs.iter().map(|s| s.ref_sim.0 as f64).sum(),
                    ref_xfers as f64,
                ),
            ),
            trace_overhead(ratio(xu as f64, wu as f64), ratio(xt as f64, wt as f64)),
        ]);
        layer.extend(probes::vm_and_xkernel());
        o.layer = layer;
        o.spans = tracer.records;
    }
    o
}

/// Path shapes of one shard for the telemetry probe: its local
/// three-domain paths, the three-domain ingress path and the two-domain
/// egress path.
fn shard_shape(local_paths: usize) -> Vec<usize> {
    let mut v = vec![3; local_paths + 1];
    v.push(2);
    v
}

/// One set-up of this thread's shard on `links`: machine, domains,
/// paths, a warm-up cycle per path, and the first payload each way.
/// Returns the shard, its links and paths, and this thread's own set-up
/// time: the barriers and the wait for the peer's first notice are left
/// out, their latency is the scheduler's.
fn set_up(id: usize, mut links: Links, ctl: &Ctl) -> (Shard, Links, Vec<Triple>, u64) {
    let len = PAGES * machine().page_size;
    ctl.barrier.wait();
    let t0 = Instant::now();
    let mut sh = Shard::with_coalesce(id, machine(), PATHS / SHARDS, PAGES, NOTICE_BATCH);
    sh.sys.machine().metrics_ref().set_enabled(true);
    let triples: Vec<Triple> = (0..sh.local_paths())
        .map(|i| {
            let d = &sh
                .sys
                .path(PathId(i as u64))
                .expect("Shard::new creates the local paths first")
                .domains;
            Triple {
                path: PathId(i as u64),
                o: d[0],
                n: d[1],
                r: d[2],
            }
        })
        .collect();
    let mut off = Tracer::new();
    for &t in &triples {
        cycle(&mut sh.sys, t, len, &mut off).expect("warm-up cycle");
    }
    sh.egress(&mut links);
    let built_ns = t0.elapsed().as_nanos() as u64;
    // The peer's first payload is in our ring once both are here.
    ctl.barrier.wait();
    let t1 = Instant::now();
    while sh.received < 1 {
        sh.poll(&mut links);
    }
    let ns = built_ns + t1.elapsed().as_nanos() as u64;
    while sh.in_flight() > 0 {
        if sh.poll(&mut links) == 0 {
            std::thread::yield_now();
        }
    }
    ctl.barrier.wait();
    (sh, links, triples, ns)
}

fn shard_main(
    id: usize,
    links_per_rep: Vec<Links>,
    opts: &Opts,
    p: &Params,
    ctl: &Ctl,
) -> ShardOut {
    let len = PAGES * machine().page_size;
    // Set-up, repeated: each sample is the mean of a batch of set-ups,
    // and the last one built is the shard the run measures.
    let mut links_per_rep = links_per_rep.into_iter();
    let mut setup_ns = Vec::new();
    let mut built = None;
    for _ in 0..opts.setup_reps() {
        let mut batch_ns = 0;
        for _ in 0..SETUP_BATCH {
            drop(built.take());
            let links = links_per_rep.next().expect("links for every set-up");
            let (sh, links, triples, ns) = set_up(id, links, ctl);
            batch_ns += ns;
            built = Some((sh, links, triples));
        }
        setup_ns.push(batch_ns / SETUP_BATCH as u64);
    }
    let (mut sh, mut links, triples) = built.expect("at least one set-up");
    let sched = schedule(opts.seed, id, triples.len(), p.round_cycles);
    let peer = 1 - id;

    let mut out = ShardOut {
        setup_ns,
        meter: Meter::new((p.round_cycles + p.round_cycles / p.cross_every) as usize),
        tracer: Tracer::new(),
        xfers_untraced: 0,
        xfers_traced: 0,
        wall_untraced_ns: 0,
        wall_traced_ns: 0,
        busy_ns: 0,
        failed_xfers: 0,
        first_error: None,
        ref_bytes: 0,
        ref_sim: Ns::ZERO,
        ref_xfers: 0,
        traced_delta: StatsSnapshot::default(),
        steady: Vec::new(),
        sent: 0,
        received: 0,
        orphan: 0,
        rejected: 0,
        polls: 0,
        empty_polls: 0,
        notice_batches: 0,
        notice_tokens: 0,
        samples_traced: 0,
        series: 0,
        refused: 0,
        ledger: Ledger::new(),
        life: StatsSnapshot::default(),
        domains: 0,
    };
    let mut tr = Tracer::new();
    sh.reset_activity();
    let mark = sh.sys.stats().snapshot();
    let mut traced_mark = mark.clone();
    let mut samples_mark = 0;
    let sim0 = sh.sys.machine().now();
    let mut cycles = 0u64;
    let mut xfers = 0u64;
    let mut phase_start = Instant::now();
    let mut round = 0u64;
    let mut traced_xfers0 = 0u64;
    loop {
        let r0 = Instant::now();
        out.meter.restart_window();
        for (i, &k) in sched.iter().enumerate() {
            let polled = tr.run(Sp::Poll, || sh.poll(&mut links));
            if tr.is_on() {
                out.polls += 1;
                out.empty_polls += u64::from(polled == 0);
            }
            let t = Instant::now();
            tr.begin(Sp::Xfer);
            let res = cycle(&mut sh.sys, triples[k], len, &mut tr);
            tr.end(res.is_err());
            match res {
                Ok(()) => {
                    out.meter.record(t.elapsed().as_nanos() as u64);
                    xfers += 1;
                    cycles += 1;
                }
                Err(e) => {
                    out.failed_xfers += 1;
                    out.first_error.get_or_insert_with(|| e.to_string());
                }
            }
            if (i as u64 + 1).is_multiple_of(p.cross_every) {
                let t = Instant::now();
                tr.begin(Sp::Xfer);
                tr.run(Sp::Egress, || sh.egress(&mut links));
                tr.end(false);
                out.meter.record(t.elapsed().as_nanos() as u64);
                xfers += 1;
            }
            tr.run(Sp::Telemetry, || sh.sample_telemetry(&links));
        }
        out.busy_ns += r0.elapsed().as_nanos() as u64;
        // Quiesce: keep polling (the peer may still be waiting on our
        // notices) until the peer has ended its round, everything it sent
        // is ingested, and every notice of ours is back.
        round += 1;
        ctl.sent[id].store(sh.sent, Ordering::Release);
        ctl.rounds[id].store(round, Ordering::Release);
        loop {
            let peer_done = ctl.rounds[peer].load(Ordering::Acquire) >= round;
            if peer_done
                && sh.received >= ctl.sent[peer].load(Ordering::Acquire)
                && sh.in_flight() == 0
            {
                break;
            }
            if sh.poll(&mut links) == 0 {
                std::thread::yield_now();
            }
        }
        ctl.barrier.wait();
        if round == 1 {
            out.ref_sim = sh.sys.machine().now() - sim0;
            out.ref_bytes = (cycles + sh.sent) * len;
            out.ref_xfers = xfers;
        }
        if id == 0 {
            let phase_secs = if tr.is_on() {
                opts.traced_secs()
            } else {
                opts.untraced_secs()
            };
            let done = round >= MIN_ROUNDS && phase_start.elapsed().as_secs_f64() >= phase_secs;
            let cmd = match (done, tr.is_on(), opts.trace) {
                (false, _, _) => GO,
                (true, false, true) => TRACE,
                (true, _, _) => STOP,
            };
            ctl.cmd.store(cmd, Ordering::Release);
        }
        ctl.barrier.wait();
        let cmd = ctl.cmd.load(Ordering::Acquire);
        if cmd == GO {
            continue;
        }
        let wall = phase_start.elapsed().as_nanos() as u64;
        if tr.is_on() {
            out.wall_traced_ns = wall;
            out.xfers_traced = xfers - traced_xfers0;
            out.traced_delta = sh.sys.stats().snapshot().delta(&traced_mark);
            out.samples_traced = samples_taken(&sh.sys) - samples_mark;
        } else {
            out.wall_untraced_ns = wall;
            out.xfers_untraced = xfers;
        }
        if cmd == STOP {
            break;
        }
        tr.set_on(true);
        out.busy_ns = 0;
        traced_xfers0 = xfers;
        traced_mark = sh.sys.stats().snapshot();
        samples_mark = samples_taken(&sh.sys);
        phase_start = Instant::now();
    }

    // §3.2.2 over the whole measured window: no PTE updates, no page
    // clears, every allocation (local, egress, ingress) a cache hit.
    let d = sh.sys.stats().snapshot().delta(&mark);
    let allocs = cycles + sh.sent + sh.received;
    if d.pte_updates != 0 {
        out.steady.push(format!("pte_updates = {}", d.pte_updates));
    }
    if d.pages_cleared != 0 {
        out.steady
            .push(format!("pages_cleared = {}", d.pages_cleared));
    }
    if d.fbuf_cache_misses != 0 || d.fbuf_cache_hits != allocs {
        out.steady.push(format!(
            "{} hits, {} misses for {allocs} allocations",
            d.fbuf_cache_hits, d.fbuf_cache_misses
        ));
    }
    out.sent = sh.sent;
    out.received = sh.received;
    out.orphan = sh.orphan_notices;
    out.rejected = sh.rejected_tokens;
    out.notice_batches = sh.notice_batches;
    out.notice_tokens = sh.notice_tokens;
    let m = sh.sys.machine().metrics_ref();
    out.series = m.series().len() as u64;
    out.refused = m.refused_names();
    out.ledger = sh.sys.ledger_snapshot();
    out.life = sh.sys.stats().snapshot();
    out.domains = sh.sys.machine().domain_count() as u32;
    out.tracer = tr;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Params {
        Params {
            round_cycles: 128,
            cross_every: 16,
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        assert_eq!(schedule(7, 0, 8, 100), schedule(7, 0, 8, 100));
        assert_ne!(schedule(7, 0, 8, 100), schedule(8, 0, 8, 100));
        assert_ne!(schedule(7, 0, 8, 100), schedule(7, 1, 8, 100));
        let s = schedule(7, 0, 8, 16);
        let mut first: Vec<usize> = s[..8].to_vec();
        first.sort_unstable();
        assert_eq!(
            first,
            (0..8).collect::<Vec<_>>(),
            "every path once per pass"
        );
    }

    #[test]
    fn clean_run_and_identical_sim_metrics() {
        let opts = Opts {
            seed: 3,
            seconds: 0.0,
            trace: false,
        };
        let a = run(&opts, &small());
        let b = run(&opts, &small());
        assert_eq!(a.failed, 0, "{:?}", a.problems);
        assert!(a.attempted > 2 * 128, "two rounds of cycles ran");
        assert_eq!(a.meters.len(), 2, "one meter per shard");
        assert_eq!(a.sim_mbps.to_bits(), b.sim_mbps.to_bits());
        assert_eq!(a.sim_admit_frac, 1.0);
    }

    #[test]
    fn traced_run_reports_layers() {
        let opts = Opts {
            seed: 5,
            seconds: 0.0,
            trace: true,
        };
        let o = run(&opts, &small());
        assert_eq!(o.failed, 0, "{:?}", o.problems);
        let get = |k: &str| {
            o.layer
                .iter()
                .find(|(n, _)| *n == k)
                .map(|&(_, v)| v)
                .expect(k)
        };
        assert_eq!(get("vm.pte_updates_per_xfer"), 0.0);
        assert!(get("core.alloc.ns_p50") > 0.0);
        assert!(get("ipc.hop.calls") > 1.5, "two hops per cycle");
        assert!(get("sim.metrics.samples_per_xfer") > 0.0, "telemetry is on");
        assert!(!o.spans.is_empty());
    }
}
