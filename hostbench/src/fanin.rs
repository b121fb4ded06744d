//! `zipf-fanin`: thousands of on/off flows, their paths drawn from a
//! Zipf law, compete for the chunks of two shards under the default
//! `static` quota — the shape of `fbuf-fanin`, driven here call by call
//! through `FbufSystem::{alloc, write_fbuf, send, hop, free}`.
//!
//! Arrivals are an open loop in simulated time: each step every flow's
//! on/off gate may offer one transfer. One closed-loop caller per shard
//! steps its flows. A denied allocation is retried on later steps and
//! dropped after [`RETRIES`] refusals; drops are outcomes, not failures.
//! Telemetry is off. The first [`Params::ref_steps`] measured steps are
//! the reference window of the simulated metrics.

use std::sync::Barrier;
use std::time::Instant;

use fbuf::{AllocMode, FbufError, FbufId, FbufSystem, Ledger, PathId, QuotaPolicy, SendMode};
use fbuf_bench::fanin::{class_of_rank, fanin_machine};
use fbuf_sim::workload::{OnOff, Zipf};
use fbuf_sim::{Rng, StatsSnapshot};
use fbuf_vm::DomainId;

use crate::trace::{Meter, Sp, Tracer};
use crate::{common_layers, probes, ratio, trace_overhead, Opts, Outcome};

/// Shards, one OS thread each.
pub const SHARDS: usize = 2;
/// Zipf skew of path popularity.
pub const ZIPF_S: f64 = 1.1;
/// Mean burst length, steps.
pub const MEAN_ON: u64 = 40;
/// Mean silence, steps.
pub const MEAN_OFF: u64 = 160;
/// Steps a delivered buffer is held before it is freed.
pub const HOLD: u64 = 4;
/// Retries before a denied arrival is dropped.
pub const RETRIES: u32 = 3;
/// Steps between host-clock checks.
pub const ROUND_STEPS: u64 = 10;

/// Size of the fan-in (the tests shrink it).
#[derive(Debug, Clone)]
pub struct Params {
    /// Flows across both shards.
    pub flows: usize,
    /// Data paths (producer → consumer pairs).
    pub paths: usize,
    /// Warm-up steps of set-up.
    pub warm_steps: u64,
    /// Measured steps forming the simulated metrics' reference window.
    pub ref_steps: u64,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            flows: 8000,
            paths: 128,
            warm_steps: 100,
            ref_steps: 200,
        }
    }
}

/// The seed-generated input: each flow's home path rank, grouped by the
/// shard owning that rank (`rank % SHARDS`).
pub fn flow_ranks(seed: u64, p: &Params) -> Vec<Vec<usize>> {
    let zipf = Zipf::new(p.paths, ZIPF_S);
    let mut rng = Rng::new(seed ^ 0x21bf_fa90);
    let mut out = vec![Vec::new(); SHARDS];
    for _ in 0..p.flows {
        let rank = zipf.sample(&mut rng);
        out[rank % SHARDS].push(rank);
    }
    out
}

struct Pending {
    first_ns: u64,
    tries: u32,
    host_ns: u64,
}

struct Flow {
    path: usize,
    gate: OnOff,
    pending: Option<Pending>,
}

struct Held {
    id: FbufId,
    prod: DomainId,
    cons: DomainId,
    host_ns: u64,
}

/// Arrival bookkeeping of one shard.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    offered: u64,
    completed: u64,
    drops: u64,
    errors: u64,
}

impl Tally {
    /// What happened since `earlier`.
    fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            offered: self.offered - earlier.offered,
            completed: self.completed - earlier.completed,
            drops: self.drops - earlier.drops,
            errors: self.errors - earlier.errors,
        }
    }
}

/// One shard's engine, paths and flows.
struct FaninShard {
    sys: FbufSystem,
    paths: Vec<(PathId, DomainId, DomainId)>,
    flows: Vec<Flow>,
    rng: Rng,
    /// Per flow: whether its gate offered an arrival this step.
    arrives: Vec<bool>,
    ring: Vec<Vec<Held>>,
    step: u64,
    len: u64,
    tally: Tally,
    first_error: Option<String>,
}

impl FaninShard {
    fn new(seed: u64, shard: usize, ranks: &[usize], p: &Params) -> FaninShard {
        let cfg = fanin_machine();
        let len = cfg.page_size;
        let mut sys = FbufSystem::new(cfg);
        sys.set_quota_policy(QuotaPolicy::Static);
        let mut paths = Vec::new();
        let mut local_of = vec![usize::MAX; p.paths];
        for rank in (shard..p.paths).step_by(SHARDS) {
            let prod = sys.create_domain();
            let cons = sys.create_domain();
            let path = sys
                .create_path(vec![prod, cons])
                .expect("fresh domains make a path");
            sys.set_path_class(path, class_of_rank(rank, p.paths))
                .expect("path exists");
            local_of[rank] = paths.len();
            paths.push((path, prod, cons));
        }
        let mut rng = Rng::new(seed ^ 0x21bf_5bad ^ ((shard as u64) << 32));
        let flows = ranks
            .iter()
            .map(|&r| Flow {
                path: local_of[r],
                gate: OnOff::new(&mut rng, MEAN_ON, MEAN_OFF),
                pending: None,
            })
            .collect();
        FaninShard {
            sys,
            paths,
            flows,
            rng,
            arrives: Vec::new(),
            ring: (0..=HOLD).map(|_| Vec::new()).collect(),
            step: 0,
            len,
            tally: Tally::default(),
            first_error: None,
        }
    }

    fn error(&mut self, what: &str, e: FbufError) {
        self.tally.errors += 1;
        self.first_error
            .get_or_insert_with(|| format!("{what}: {e}"));
    }

    /// Frees one held buffer (consumer, then producer) and records the
    /// transfer's host time: every call made for it, retries included.
    fn release(&mut self, h: Held, tr: &mut Tracer, meter: &mut Meter) {
        let t = Instant::now();
        let r = tr.call(Sp::Free, || self.sys.free(h.id, h.cons));
        let r = r.and_then(|()| tr.call(Sp::Free, || self.sys.free(h.id, h.prod)));
        match r {
            Ok(()) => meter.record(h.host_ns + t.elapsed().as_nanos() as u64),
            Err(e) => self.error("free", e),
        }
    }

    /// One step: release expiring buffers, then every flow's arrival (or
    /// pending retry) asks for a buffer; the simulated waits of granted
    /// arrivals go to `waits` when given. Returns the chunks granted out
    /// of the shard's region at the end of the step.
    fn step(
        &mut self,
        tr: &mut Tracer,
        meter: &mut Meter,
        mut waits: Option<&mut Vec<u64>>,
    ) -> u64 {
        let slot = (self.step % self.ring.len() as u64) as usize;
        for h in std::mem::take(&mut self.ring[slot]) {
            self.release(h, tr, meter);
        }
        let hold_slot =
            ((self.step + self.ring.len() as u64 - 1) % self.ring.len() as u64) as usize;
        // Input generation first, in one span: which idle flows' gates
        // offer an arrival this step (the same draws, in the same order,
        // as stepping each gate on the flow's turn).
        let (flows, rng, arrives) = (&mut self.flows, &mut self.rng, &mut self.arrives);
        tr.run(Sp::Gen, || {
            arrives.clear();
            arrives.extend(
                flows
                    .iter_mut()
                    .map(|f| f.pending.is_none() && f.gate.step(rng)),
            );
        });
        for f in 0..self.flows.len() {
            let arrival = match self.flows[f].pending.take() {
                Some(a) => a,
                None if self.arrives[f] => {
                    self.tally.offered += 1;
                    Pending {
                        first_ns: self.sys.machine().now().0,
                        tries: 0,
                        host_ns: 0,
                    }
                }
                None => continue,
            };
            let (path, prod, cons) = self.paths[self.flows[f].path];
            let wait = self.sys.machine().now().0 - arrival.first_ns;
            let t = Instant::now();
            tr.begin(Sp::Xfer);
            let sys = &mut self.sys;
            let granted = tr.call(Sp::Alloc, || {
                sys.alloc(prod, AllocMode::Cached(path), self.len)
            });
            let res = granted.map(|id| {
                let r = tr
                    .call(Sp::Write, || {
                        sys.write_fbuf(prod, id, 0, &arrival.first_ns.to_le_bytes())
                    })
                    .and_then(|()| {
                        tr.call(Sp::Send, || sys.send(id, prod, cons, SendMode::Volatile))
                    });
                if r.is_ok() {
                    tr.run(Sp::Hop, || sys.hop(prod, cons));
                }
                r.map(|()| id)
            });
            tr.end(false);
            let host_ns = arrival.host_ns + t.elapsed().as_nanos() as u64;
            match res {
                Ok(Ok(id)) => {
                    self.tally.completed += 1;
                    if let Some(w) = waits.as_deref_mut() {
                        w.push(wait);
                    }
                    self.ring[hold_slot].push(Held {
                        id,
                        prod,
                        cons,
                        host_ns,
                    });
                }
                Ok(Err(e)) => self.error("write/send", e),
                Err(FbufError::QuotaExceeded { .. } | FbufError::RegionExhausted) => {
                    if arrival.tries >= RETRIES {
                        self.tally.drops += 1;
                    } else {
                        self.flows[f].pending = Some(Pending {
                            tries: arrival.tries + 1,
                            host_ns,
                            ..arrival
                        });
                    }
                }
                Err(e) => self.error("alloc", e),
            }
        }
        self.step += 1;
        let cfg = self.sys.machine().config();
        cfg.fbuf_region_size / cfg.chunk_size - self.sys.free_chunks()
    }

    /// Frees every held buffer and returns the arrivals still pending.
    fn drain(&mut self, tr: &mut Tracer, meter: &mut Meter) -> u64 {
        for slot in 0..self.ring.len() {
            for h in std::mem::take(&mut self.ring[slot]) {
                self.release(h, tr, meter);
            }
        }
        self.flows.iter().filter(|f| f.pending.is_some()).count() as u64
    }
}

/// What one shard thread hands back (plain data only).
struct ShardOut {
    setup_ns: Vec<u64>,
    meter: Meter,
    tracer: Tracer,
    tally: Tally,
    unresolved: u64,
    first_error: Option<String>,
    xfers_untraced: u64,
    xfers_traced: u64,
    offered_traced: u64,
    wall_untraced_ns: u64,
    wall_traced_ns: u64,
    ref_tally: Tally,
    ref_waits: Vec<u64>,
    ref_sim_ns: u64,
    occupancy_peak: u64,
    traced_delta: StatsSnapshot,
    ledger: Ledger,
    life: StatsSnapshot,
    domains: u32,
}

fn shard_main(id: usize, ranks: &[usize], opts: &Opts, p: &Params, barrier: &Barrier) -> ShardOut {
    let mut scratch_meter = Meter::new(1000);
    let mut tr = Tracer::new();
    let mut setup_ns = Vec::new();
    let mut sh = None;
    for _ in 0..opts.setup_reps() {
        drop(sh.take());
        barrier.wait();
        let t0 = Instant::now();
        let mut s = FaninShard::new(opts.seed, id, ranks, p);
        for _ in 0..p.warm_steps {
            s.step(&mut tr, &mut scratch_meter, None);
        }
        setup_ns.push(t0.elapsed().as_nanos() as u64);
        sh = Some(s);
    }
    let mut sh = sh.expect("at least one set-up");
    barrier.wait();

    let mut meter = Meter::new(1000);
    let t_warm = sh.tally;
    let sim0 = sh.sys.machine().now().0;
    let mut ref_waits = Vec::new();
    let (mut steps, mut peak) = (0u64, 0u64);
    let (mut ref_tally, mut ref_sim_ns) = (Tally::default(), 0);
    let mut wall_untraced_ns = 0;
    let mut untraced_tally = Tally::default();
    let mut mark = StatsSnapshot::default();
    let mut phase_start = Instant::now();
    meter.restart_window();
    loop {
        for _ in 0..ROUND_STEPS {
            let waits = (steps < p.ref_steps).then_some(&mut ref_waits);
            let pk = sh.step(&mut tr, &mut meter, waits);
            if tr.is_on() {
                peak = peak.max(pk);
            }
            steps += 1;
            if steps == p.ref_steps {
                ref_tally = sh.tally.since(&t_warm);
                ref_sim_ns = sh.sys.machine().now().0 - sim0;
            }
        }
        let phase_secs = if tr.is_on() {
            opts.traced_secs()
        } else {
            opts.untraced_secs()
        };
        if steps < p.ref_steps || phase_start.elapsed().as_secs_f64() < phase_secs {
            continue;
        }
        if tr.is_on() {
            break;
        }
        wall_untraced_ns = phase_start.elapsed().as_nanos() as u64;
        untraced_tally = sh.tally;
        if !opts.trace {
            break;
        }
        tr.set_on(true);
        mark = sh.sys.stats().snapshot();
        meter.restart_window();
        phase_start = Instant::now();
    }
    let wall_traced_ns = if opts.trace {
        phase_start.elapsed().as_nanos() as u64
    } else {
        0
    };
    let traced_delta = sh.sys.stats().snapshot().delta(&mark);
    let end_tally = sh.tally;
    tr.set_on(false);
    let unresolved = sh.drain(&mut tr, &mut scratch_meter);
    ShardOut {
        setup_ns,
        meter,
        xfers_untraced: untraced_tally.since(&t_warm).completed,
        xfers_traced: end_tally.since(&untraced_tally).completed,
        offered_traced: end_tally.since(&untraced_tally).offered,
        wall_untraced_ns,
        wall_traced_ns,
        ref_tally,
        ref_sim_ns,
        ref_waits,
        occupancy_peak: peak,
        traced_delta,
        tally: sh.tally,
        unresolved,
        first_error: sh.first_error.clone(),
        ledger: sh.sys.ledger_snapshot(),
        life: sh.sys.stats().snapshot(),
        domains: sh.sys.machine().domain_count() as u32,
        tracer: tr,
    }
}

/// Runs `zipf-fanin` under `opts`.
pub fn run(opts: &Opts, p: &Params) -> Outcome {
    let ranks = flow_ranks(opts.seed, p);
    let barrier = Barrier::new(SHARDS);
    let outs: Vec<ShardOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranks
            .iter()
            .enumerate()
            .map(|(id, r)| {
                let barrier = &barrier;
                scope.spawn(move || shard_main(id, r, opts, p, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan-in shard panicked"))
            .collect()
    });

    let mut o = Outcome::default();
    let mut tracer = Tracer::new();
    let mut delta = StatsSnapshot::default();
    let mut ledger = Ledger::new();
    let mut life = StatsSnapshot::default();
    let (mut dom_base, mut path_base) = (0u32, 0u64);
    let mut waits = Vec::new();
    for (i, s) in outs.iter().enumerate() {
        o.meters.push(s.meter.clone());
        tracer.merge(&s.tracer);
        delta = delta.merge(&s.traced_delta);
        let t = s.tally;
        o.transfers(t.offered, t.errors, || {
            format!(
                "shard {i}: {} failed arrivals, first: {:?}",
                t.errors, s.first_error
            )
        });
        o.check(
            t.offered == t.completed + t.drops + s.unresolved + t.errors,
            || {
                format!(
                "shard {i}: {} offered != {} completed + {} dropped + {} unresolved + {} failed",
                t.offered, t.completed, t.drops, s.unresolved, t.errors
            )
            },
        );
        ledger.merge_offset(&s.ledger, dom_base, path_base);
        dom_base += s.domains;
        path_base += s.ledger.paths.len() as u64;
        life = life.merge(&s.life);
        waits.extend_from_slice(&s.ref_waits);
    }
    let violations = ledger.conserves(&life);
    o.check(violations.is_empty(), || {
        format!("fleet ledger: {}", violations.join("; "))
    });
    let xu: u64 = outs.iter().map(|s| s.xfers_untraced).sum();
    let wu = outs.iter().map(|s| s.wall_untraced_ns).max().unwrap_or(0) as f64;
    o.xfers = xu;
    o.wall_s = wu / 1e9;
    o.setup_s = outs
        .iter()
        .flat_map(|s| s.setup_ns.iter().map(|&ns| ns as f64 / 1e9))
        .collect();
    let offered: u64 = outs.iter().map(|s| s.ref_tally.offered).sum();
    let drops: u64 = outs.iter().map(|s| s.ref_tally.drops).sum();
    let ref_completed: u64 = outs.iter().map(|s| s.ref_tally.completed).sum();
    let ref_sim = outs.iter().map(|s| s.ref_sim_ns).max().unwrap_or(0);
    o.sim_mbps = fbuf_sim::Ns(ref_sim).mbps(ref_completed * fanin_machine().page_size);
    o.sim_admit_frac = 1.0 - ratio(drops as f64, offered as f64);

    if opts.trace {
        let xt: u64 = outs.iter().map(|s| s.xfers_traced).sum();
        let caller_ns: f64 = outs.iter().map(|s| s.wall_traced_ns as f64).sum();
        let wt = outs.iter().map(|s| s.wall_traced_ns).max().unwrap_or(0) as f64;
        let offered_traced: u64 = outs.iter().map(|s| s.offered_traced).sum();
        let mut waits = waits;
        waits.sort_unstable();
        let p99 = waits
            .get((waits.len() * 99).div_ceil(100).saturating_sub(1))
            .copied()
            .unwrap_or(0);
        let sim_sum: u64 = outs.iter().map(|s| s.ref_sim_ns).sum();
        let mut layer = common_layers(&tracer, &delta, xt, caller_ns);
        layer.extend([
            (
                "core.policy.denials_per_offer",
                ratio(delta.chunk_quota_denials as f64, offered_traced as f64),
            ),
            (
                "core.policy.occupancy_peak",
                outs.iter().map(|s| s.occupancy_peak).max().unwrap_or(0) as f64,
            ),
            ("core.policy.wait_ns_p99", p99 as f64),
            (
                "sim.sim_ns_per_xfer",
                ratio(sim_sum as f64, ref_completed as f64),
            ),
            (
                "sim.metrics.sample_ns",
                probes::sample_gauges_ns(&vec![2; p.paths.div_ceil(SHARDS)]),
            ),
            trace_overhead(ratio(xu as f64, wu), ratio(xt as f64, wt)),
        ]);
        layer.extend(probes::vm_and_xkernel());
        o.layer = layer;
        o.spans = tracer.records;
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Params {
        Params {
            flows: 400,
            paths: 16,
            warm_steps: 10,
            ref_steps: 40,
        }
    }

    #[test]
    fn flow_ranks_are_a_pure_function_of_the_seed() {
        let p = Params::default();
        assert_eq!(flow_ranks(4, &p), flow_ranks(4, &p));
        assert_ne!(flow_ranks(4, &p), flow_ranks(5, &p));
        assert_eq!(
            flow_ranks(4, &p).iter().map(Vec::len).sum::<usize>(),
            p.flows
        );
    }

    #[test]
    fn arrivals_conserve_and_sim_metrics_repeat_exactly() {
        let opts = Opts {
            seed: 9,
            seconds: 0.0,
            trace: false,
        };
        let a = run(&opts, &small());
        assert_eq!(a.failed, 0, "{:?}", a.problems);
        assert!(a.sim_admit_frac < 1.0, "the static quota drops arrivals");
        let b = run(&opts, &small());
        assert_eq!(a.sim_mbps.to_bits(), b.sim_mbps.to_bits());
        assert_eq!(a.sim_admit_frac.to_bits(), b.sim_admit_frac.to_bits());
    }
}
