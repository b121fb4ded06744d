//! `paper-repro`: the paper's figure configurations, driven message by
//! message through `LoopbackStack::send_message` (Fig. 4, three domains,
//! cached and uncached fbufs) and `EndToEnd::send_message` (Osiris
//! user-netserver, Fig. 5 cached/volatile and Fig. 6 uncached/secure).
//!
//! Every (configuration, size) point owns its own stack, so a point's
//! simulated time does not depend on what ran before it. One round sends
//! 1 MB through every point — equal bytes at every size — in a
//! seed-shuffled order that every round of the run repeats, so rounds are
//! equal work and the fastest round measures the host, not a lucky
//! order. The first [`REF_ROUNDS`] rounds are the
//! reference window of the simulated metrics. From then on, after each
//! round's timed messages, one message of a seed-chosen size per
//! configuration is sent untimed with a verified payload.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use fbuf::FbufResult;
use fbuf_bench::{fig4, fig5};
use fbuf_net::{DomainSetup, EndToEnd, EndToEndConfig, LoopbackConfig, LoopbackStack};
use fbuf_sim::{MachineConfig, Ns, Rng, StatsSnapshot};

use crate::trace::{Meter, Sp, Tracer};
use crate::{common_layers, probes, ratio, trace_overhead, Opts, Outcome};

/// Message sizes of the sweep.
pub const SIZES: [u64; 5] = [4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20];

/// Bytes every point carries per round.
pub const ROUND_BYTES: u64 = 1 << 20;

/// Rounds in the simulated metrics' reference window.
pub const REF_ROUNDS: u64 = 4;

/// The four figure configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Fig. 4, three domains, cached fbufs.
    LoopCached,
    /// Fig. 4, three domains, uncached fbufs.
    LoopUncached,
    /// Fig. 5, Osiris user-netserver, cached/volatile.
    Fig5,
    /// Fig. 6, Osiris user-netserver, uncached/secure.
    Fig6,
}

impl Config {
    /// All four, in report order.
    pub const ALL: [Config; 4] = [
        Config::LoopCached,
        Config::LoopUncached,
        Config::Fig5,
        Config::Fig6,
    ];

    fn span(self) -> Sp {
        match self {
            Config::LoopCached => Sp::LoopCached,
            Config::LoopUncached => Sp::LoopUncached,
            Config::Fig5 => Sp::Fig5,
            Config::Fig6 => Sp::Fig6,
        }
    }

    /// IP PDU size of the configuration.
    pub fn pdu(self) -> u64 {
        match self {
            Config::LoopCached | Config::LoopUncached => LoopbackConfig::paper(true, true).pdu,
            Config::Fig5 | Config::Fig6 => EndToEndConfig::fig5(DomainSetup::UserNetserver).pdu,
        }
    }

    /// What `repro` reports for this configuration at `size`, Mb/s.
    pub fn repro_mbps(self, size: u64) -> f64 {
        match self {
            Config::LoopCached | Config::LoopUncached => {
                let cfg = LoopbackConfig::paper(true, self == Config::LoopCached);
                fig4::curve("", cfg, &[size], 3).points[0].mbps
            }
            Config::Fig5 => {
                fig5::throughput(EndToEndConfig::fig5(DomainSetup::UserNetserver), size, 4)
            }
            Config::Fig6 => {
                fig5::throughput(EndToEndConfig::fig6(DomainSetup::UserNetserver), size, 4)
            }
        }
    }
}

/// The machine of the figure runs.
fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 24 << 20;
    cfg
}

enum Stack {
    Loop(Box<LoopbackStack>),
    E2e(Box<EndToEnd>),
}

/// One (configuration, size) point and its private stack.
struct Point {
    cfg: Config,
    size: u64,
    stack: Stack,
    /// Messages sent on this stack so far (the Osiris payload pattern is
    /// keyed by it).
    sent: u64,
    ref_sim: Ns,
    ref_bytes: u64,
}

impl Point {
    fn new(cfg: Config, size: u64) -> FbufResult<Point> {
        let stack = match cfg {
            Config::LoopCached | Config::LoopUncached => Stack::Loop(Box::new(LoopbackStack::new(
                machine(),
                LoopbackConfig::paper(true, cfg == Config::LoopCached),
            ))),
            Config::Fig5 => Stack::E2e(Box::new(EndToEnd::new(
                machine(),
                EndToEndConfig::fig5(DomainSetup::UserNetserver),
            ))),
            Config::Fig6 => Stack::E2e(Box::new(EndToEnd::new(
                machine(),
                EndToEndConfig::fig6(DomainSetup::UserNetserver),
            ))),
        };
        let mut p = Point {
            cfg,
            size,
            stack,
            sent: 0,
            ref_sim: Ns::ZERO,
            ref_bytes: 0,
        };
        // Warm-up, as `repro` does before it measures a point.
        for _ in 0..2 {
            p.send()?;
        }
        Ok(p)
    }

    /// Sends one message, unchecked.
    fn send(&mut self) -> FbufResult<()> {
        self.sent += 1;
        match &mut self.stack {
            Stack::Loop(s) => s.send_message(self.size, false).map(drop),
            Stack::E2e(e) => e.send_message(self.size, 1, false).map(drop),
        }
    }

    /// Sends one message with a verified payload and says whether it
    /// checked out. The loopback stack checks its own payload and panics
    /// on a corrupt one: that panic is caught, counted, and the point
    /// rebuilt. An Osiris payload is checked here against the pattern the
    /// sender wrote; `corrupt` flips one received byte first.
    fn send_verified(&mut self, corrupt: bool) -> FbufResult<bool> {
        self.sent += 1;
        match &mut self.stack {
            Stack::Loop(s) => {
                let size = self.size;
                match catch_unwind(AssertUnwindSafe(|| s.send_message(size, true))) {
                    Ok(r) => r.map(|_| true),
                    Err(_) => {
                        *self = Point::new(self.cfg, self.size)?;
                        Ok(false)
                    }
                }
            }
            Stack::E2e(e) => {
                e.send_message(self.size, 1, true)?;
                let Some(mut got) = e.received.pop() else {
                    return Ok(false);
                };
                if corrupt {
                    if let Some(b) = got.first_mut() {
                        *b ^= 0xff;
                    }
                }
                Ok(osiris_payload_ok(&got, self.size, self.sent))
            }
        }
    }

    fn clock_now(&self) -> Ns {
        match &self.stack {
            Stack::Loop(s) => s.fbs.machine().now(),
            Stack::E2e(e) => e.rx.fbs.machine().now(),
        }
    }

    fn stats(&self) -> StatsSnapshot {
        match &self.stack {
            Stack::Loop(s) => s.fbs.stats().snapshot(),
            Stack::E2e(e) => {
                e.tx.fbs
                    .stats()
                    .snapshot()
                    .merge(&e.rx.fbs.stats().snapshot())
            }
        }
    }
}

/// Whether `got` is the payload `EndToEnd::send_message` writes for its
/// `datagram`-th message of `size` bytes.
pub fn osiris_payload_ok(got: &[u8], size: u64, datagram: u64) -> bool {
    got.len() as u64 == size
        && got
            .iter()
            .enumerate()
            .all(|(i, &b)| b == ((i as u64).wrapping_mul(131).wrapping_add(datagram)) as u8)
}

/// The seed-generated send order of a round: the point index of every
/// message. Every round of a run repeats it, so rounds are equal work.
pub fn round_order(rng: &mut Rng, points: &[(Config, u64)]) -> Vec<usize> {
    let mut order: Vec<usize> = Vec::new();
    for (i, &(_, size)) in points.iter().enumerate() {
        order.extend(std::iter::repeat_n(i, (ROUND_BYTES / size) as usize));
    }
    rng.shuffle(&mut order);
    order
}

/// The seed-generated sample of a round's verified messages: for each
/// configuration, the point of one seed-chosen size.
pub fn verify_plan(rng: &mut Rng, points: &[(Config, u64)]) -> Vec<usize> {
    Config::ALL
        .iter()
        .map(|&c| {
            let size = SIZES[rng.below(SIZES.len() as u64) as usize];
            points
                .iter()
                .position(|&p| p == (c, size))
                .expect("every configuration is swept at every size")
        })
        .collect()
}

/// The points of the sweep, configuration-major.
pub fn points() -> Vec<(Config, u64)> {
    Config::ALL
        .iter()
        .flat_map(|&c| SIZES.iter().map(move |&s| (c, s)))
        .collect()
}

/// Runs `paper-repro` under `opts`. `plant_corrupt` corrupts the first
/// verified Osiris payload before it is checked (a self-test of the
/// failure accounting). Verified messages are sent outside the timed
/// windows, the spans and the phase's wall time.
pub fn run(opts: &Opts, plant_corrupt: bool) -> Outcome {
    let plan = points();
    let per_round: u64 = plan.iter().map(|&(_, s)| ROUND_BYTES / s).sum();
    let mut o = Outcome::default();
    let mut meter = Meter::new(per_round as usize);
    let mut stacks = Vec::new();
    for _ in 0..opts.setup_reps() {
        drop(std::mem::take(&mut stacks));
        let t0 = Instant::now();
        stacks = plan
            .iter()
            .map(|&(c, s)| Point::new(c, s).expect("figure stacks build and warm up"))
            .collect();
        o.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut points: Vec<Point> = stacks;

    let mut rng = Rng::new(opts.seed ^ 0x9a9e_7e9b);
    let order = round_order(&mut rng, &plan);
    let mut tr = Tracer::new();
    let mut planted = plant_corrupt;
    let (mut xfers, mut failed_xfers, mut round) = (0u64, 0u64, 0u64);
    let (mut verified, mut bad_payloads) = (0u64, 0u64);
    let (mut first_error, mut first_bad) = (None, None);
    let (mut traced_x0, mut traced_xfers, mut frag_count) = (0u64, 0u64, 0u64);
    let mut traced_delta = StatsSnapshot::default();
    let (mut untraced_wall, mut untraced_xfers, mut traced_wall) = (0.0, 0u64, 0.0);
    let mut phase_start = Instant::now();
    // Time of this phase spent on verified messages, left out of it.
    let mut check_s = 0.0;
    loop {
        let verify_at = tr.run(Sp::Gen, || verify_plan(&mut rng, &plan));
        let round_mark = tr.is_on().then(|| sum_stats(&points));
        meter.restart_window();
        for &k in &order {
            let p = &mut points[k];
            let sim0 = p.clock_now();
            let t = Instant::now();
            tr.begin(Sp::Xfer);
            let res = tr.call(p.cfg.span(), || p.send());
            tr.end(res.is_err());
            let ns = t.elapsed().as_nanos() as u64;
            match res {
                Ok(()) => {
                    meter.record(ns);
                    xfers += 1;
                    if tr.is_on() {
                        frag_count += p.size.div_ceil(p.cfg.pdu());
                    }
                    if round < REF_ROUNDS {
                        p.ref_sim += p.clock_now() - sim0;
                        p.ref_bytes += p.size;
                    }
                }
                Err(e) => {
                    failed_xfers += 1;
                    first_error.get_or_insert_with(|| format!("{:?} {} B: {e}", p.cfg, p.size));
                }
            }
        }
        if let Some(mark) = round_mark {
            traced_delta = traced_delta.merge(&sum_stats(&points).delta(&mark));
        }
        if round >= REF_ROUNDS {
            let t = Instant::now();
            for &k in &verify_at {
                let p = &mut points[k];
                let corrupt = planted && matches!(p.stack, Stack::E2e(_));
                planted &= !corrupt;
                verified += 1;
                let ok = match p.send_verified(corrupt) {
                    Ok(ok) => ok,
                    Err(e) => {
                        first_bad.get_or_insert_with(|| format!("{:?} {} B: {e}", p.cfg, p.size));
                        false
                    }
                };
                bad_payloads += u64::from(!ok);
            }
            check_s += t.elapsed().as_secs_f64();
        }
        round += 1;
        let phase_secs = if tr.is_on() {
            opts.traced_secs()
        } else {
            opts.untraced_secs()
        };
        let wall = phase_start.elapsed().as_secs_f64() - check_s;
        if round < REF_ROUNDS + 1 || wall < phase_secs {
            continue;
        }
        if tr.is_on() {
            traced_wall = wall;
            traced_xfers = xfers - traced_x0;
            break;
        }
        untraced_wall = wall;
        untraced_xfers = xfers;
        if !opts.trace {
            break;
        }
        tr.set_on(true);
        traced_x0 = xfers;
        check_s = 0.0;
        phase_start = Instant::now();
    }
    o.meters.push(meter);
    o.xfers = untraced_xfers;
    o.wall_s = untraced_wall;
    o.transfers(xfers + failed_xfers, failed_xfers, || {
        format!("{failed_xfers} failed messages, first: {first_error:?}")
    });
    o.attempted += verified;
    o.failed += bad_payloads;
    if bad_payloads > 0 {
        o.problems.push(format!(
            "{bad_payloads} of {verified} verified payloads corrupt or failed, first error: {first_bad:?}"
        ));
    }

    let (mut sim, mut bytes) = (Ns::ZERO, 0u64);
    for p in &points {
        sim += p.ref_sim;
        bytes += p.ref_bytes;
        if p.size == 1 << 20 {
            let ours = p.ref_sim.mbps(p.ref_bytes);
            let theirs = p.cfg.repro_mbps(p.size);
            o.check((ours - theirs).abs() <= 1e-6 * theirs, || {
                format!(
                    "{:?} at 1 MB: {ours} Mb/s here, {theirs} Mb/s in repro",
                    p.cfg
                )
            });
        }
    }
    o.sim_mbps = sim.mbps(bytes);
    o.sim_admit_frac = 1.0;

    if opts.trace {
        let mut layer = common_layers(&tr, &traced_delta, traced_xfers, traced_wall * 1e9);
        let ref_msgs = REF_ROUNDS * per_round;
        layer.extend([
            (
                "xkernel.fragments_per_xfer",
                ratio(frag_count as f64, traced_xfers as f64),
            ),
            ("sim.sim_ns_per_xfer", ratio(sim.0 as f64, ref_msgs as f64)),
            ("sim.metrics.sample_ns", probes::sample_gauges_ns(&[3])),
            trace_overhead(
                ratio(untraced_xfers as f64, untraced_wall),
                ratio(traced_xfers as f64, traced_wall),
            ),
        ]);
        layer.extend(probes::vm_and_xkernel());
        o.layer = layer;
        o.spans = tr.records;
    }
    o
}

fn sum_stats(points: &[Point]) -> StatsSnapshot {
    StatsSnapshot::merge_all(points.iter().map(Point::stats).collect::<Vec<_>>().iter())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_plan_is_a_pure_function_of_the_seed() {
        let pts = points();
        let order = round_order(&mut Rng::new(1), &pts);
        assert_eq!(order, round_order(&mut Rng::new(1), &pts));
        assert_ne!(order, round_order(&mut Rng::new(2), &pts));
        let verify = verify_plan(&mut Rng::new(1), &pts);
        assert_eq!(verify, verify_plan(&mut Rng::new(1), &pts));
        let configs: Vec<Config> = verify.iter().map(|&k| pts[k].0).collect();
        assert_eq!(
            configs,
            Config::ALL,
            "one verified message per configuration"
        );
        for (i, &(_, size)) in pts.iter().enumerate() {
            let n = order.iter().filter(|&&k| k == i).count() as u64;
            assert_eq!(n * size, ROUND_BYTES, "equal bytes at every size");
        }
    }

    #[test]
    fn clean_run_agrees_with_repro_and_repeats_exactly() {
        let opts = Opts {
            seed: 11,
            seconds: 0.0,
            trace: false,
        };
        let a = run(&opts, false);
        assert_eq!(a.failed, 0, "{:?}", a.problems);
        let b = run(&opts, false);
        assert_eq!(a.sim_mbps.to_bits(), b.sim_mbps.to_bits());
    }

    #[test]
    fn planted_corrupt_payload_is_a_counted_failure() {
        let opts = Opts {
            seed: 11,
            seconds: 0.0,
            trace: false,
        };
        let o = run(&opts, true);
        assert_eq!(o.failed, 1, "{:?}", o.problems);
        assert!(o.problems[0].contains("corrupt"));
        assert!(o.attempted > 1000, "the run went on after the failure");
    }
}
