//! Pins the paper's operation-count claims *exactly*, using counter
//! deltas over a warmed cached loopback run.
//!
//! §3.2.2: "only two page table updates are required, irrespective of
//! the number of transfers" — and both of those happen while the path
//! warms up. In steady state a cached fbuf shuttles between the free
//! list and the path with **zero** page table updates and **zero**
//! security page clears; every allocation is a cache hit.

use fbufs::fbuf::shard::{run_fleet, FleetConfig, NOTICE_BATCH_MAX};
use fbufs::fbuf::{AllocMode, FbufSystem, SendMode};
use fbufs::net::{DomainSetup, EndToEnd, EndToEndConfig, LoopbackConfig, LoopbackStack};
use fbufs::sim::{audit_tracer, EventKind, MachineConfig, Ns, StatsSnapshot};
use fbufs::vm::{Machine, Prot};
use fbufs::xkernel::integrated::{self, DagBuilder, TraverseLimits};
use fbufs::xkernel::proxy::deliver_integrated;
use fbufs::xkernel::{deliver, Msg, MsgRefs};

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 24 << 20;
    cfg
}

#[test]
fn cached_steady_state_counter_deltas_are_exact() {
    let msgs = 8u64;
    let size = 16 << 10; // 4 PDU-sized fbufs per message
    let frags = size / 4096;

    let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, true));
    // Warm-up populates the per-path free list (the only point where
    // mappings are installed and pages cleared).
    for _ in 0..2 {
        s.send_message(size, false).unwrap();
    }
    let mark = s.fbs.stats().snapshot();
    for _ in 0..msgs {
        s.send_message(size, false).unwrap();
    }
    let d = s.fbs.stats().snapshot().delta(&mark);

    // The §3.2.2 claim, pinned exactly: zero VM work in steady state.
    assert_eq!(d.pte_updates, 0, "cached path re-maps nothing");
    assert_eq!(d.pages_cleared, 0, "cached path re-clears nothing");
    assert_eq!(d.tlb_flushes, 0);
    assert_eq!(d.frames_allocated, 0);

    // Every allocation is served from the path's free list.
    assert_eq!(d.fbuf_cache_hits, msgs * frags);
    assert_eq!(d.fbuf_cache_misses, 0);

    // Each fragment makes two body-mapped crossings per round trip
    // (originator->netserver down, netserver->receiver up).
    assert_eq!(d.fbuf_transfers, msgs * frags * 2);

    // Two RPCs per message; dealloc notices ride the replies.
    assert_eq!(d.ipc_messages, msgs * 2);
    assert_eq!(d.explicit_notice_messages, 0);
}

#[test]
fn uncached_steady_state_pays_vm_work_every_message() {
    // The contrast case: without caching, each message's buffers are
    // built and retired, so PTE updates and clears recur per message.
    let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, false));
    for _ in 0..2 {
        s.send_message(16 << 10, false).unwrap();
    }
    let mark = s.fbs.stats().snapshot();
    s.send_message(16 << 10, false).unwrap();
    let d = s.fbs.stats().snapshot().delta(&mark);
    assert!(d.pte_updates > 0, "uncached transfers update page tables");
    assert!(d.pages_cleared > 0, "uncached allocations clear pages");
    assert_eq!(d.fbuf_cache_hits, 0);
}

#[test]
fn traced_cached_run_audits_clean_with_expected_events() {
    let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, true));
    let tracer = s.fbs.machine().tracer();
    tracer.set_enabled(true);
    for _ in 0..4 {
        s.send_message(16 << 10, false).unwrap();
    }
    for kind in [
        EventKind::Alloc,
        EventKind::Transfer,
        EventKind::CacheHit,
        EventKind::Free,
    ] {
        assert!(tracer.count_of(kind) > 0, "expected {kind:?} events");
    }
    audit_tracer(&tracer).assert_clean();
}

#[test]
fn batched_range_ops_charge_identically_to_per_page_loops() {
    // The batched `map_range`/`protect_range`/`unmap_range` primitives are
    // a *host-time* optimisation only: the same workload must charge a
    // byte-identical simulated clock and an identical counter snapshot
    // whether it is driven page-at-a-time or as ranges.
    let run = |batched: bool| {
        let mut m = Machine::new(MachineConfig::decstation_5000_200());
        let dom = m.create_domain();
        let base = 0x9000_0000u64;
        let page = m.page_size();
        let pages = 8u64;
        m.map_explicit_region(dom, base, pages, Prot::ReadWrite)
            .unwrap();
        let frames: Vec<_> = (0..4).map(|_| m.alloc_frame().unwrap()).collect();
        if batched {
            m.map_range(dom, base, &frames, Prot::ReadWrite).unwrap();
        } else {
            for (i, &f) in frames.iter().enumerate() {
                m.map_page(dom, base + i as u64 * page, f, Prot::ReadWrite)
                    .unwrap();
            }
        }
        // Touch every mapped page so downgrades later hit resident TLB
        // entries (the expensive consistency-flush case).
        for i in 0..frames.len() as u64 {
            m.write(dom, base + i * page, &[i as u8]).unwrap();
        }
        if batched {
            m.protect_range(dom, base, frames.len() as u64, Prot::Read)
                .unwrap();
            m.protect_range(dom, base, frames.len() as u64, Prot::ReadWrite)
                .unwrap();
        } else {
            for i in 0..frames.len() as u64 {
                m.protect_page(dom, base + i * page, Prot::Read).unwrap();
            }
            for i in 0..frames.len() as u64 {
                m.protect_page(dom, base + i * page, Prot::ReadWrite)
                    .unwrap();
            }
        }
        // Replacement maps (old frame displaced) and a window-sized unmap
        // with holes in the upper half.
        let reversed: Vec<_> = frames.iter().rev().copied().collect();
        if batched {
            m.map_range(dom, base, &reversed, Prot::ReadWrite).unwrap();
            m.unmap_range(dom, base, pages).unwrap();
        } else {
            for (i, &f) in reversed.iter().enumerate() {
                m.map_page(dom, base + i as u64 * page, f, Prot::ReadWrite)
                    .unwrap();
            }
            for i in 0..pages {
                m.unmap_page(dom, base + i * page).unwrap();
            }
        }
        (m.now(), m.stats().snapshot())
    };
    let (t_page, s_page) = run(false);
    let (t_range, s_range) = run(true);
    assert_eq!(t_page, t_range, "simulated clock must match exactly");
    assert_eq!(s_page, s_range, "counter snapshot must match exactly");
    // The workload is non-trivial: it really exercised the counters.
    assert!(s_page.pte_updates >= 20);
    assert!(s_page.tlb_flushes >= 8);
}

// ---------------------------------------------------------------------
// Engine exactness goldens. A bare hop is one synchronous RPC and the
// event loop charges nothing of its own, so each workload below has one
// correct (clock, counters) outcome. The goldens were captured from the
// synchronous descent while an event-driven hop path still existed and
// matched it byte for byte. Every counter a golden does not name must
// be zero.
// ---------------------------------------------------------------------

/// A pinned (clock, counter snapshot) pair: the non-zero counters by
/// name; every other counter is asserted zero.
struct Golden {
    clock: Ns,
    counters: &'static [(&'static str, u64)],
}

fn assert_golden(workload: &str, now: Ns, snap: &StatsSnapshot, golden: &Golden) {
    assert_eq!(
        now, golden.clock,
        "{workload}: simulated clock must match exactly"
    );
    let counters = snap.counters();
    for &(name, _) in golden.counters {
        assert!(
            counters.iter().any(|c| c.name == name),
            "{workload}: golden names unknown counter {name}"
        );
    }
    for c in counters {
        let want = golden
            .counters
            .iter()
            .find(|&&(name, _)| name == c.name)
            .map_or(0, |&(_, v)| v);
        assert_eq!(
            c.value, want,
            "{workload}: counter {} must match exactly",
            c.name
        );
    }
}

const CACHED_LOOPBACK: Golden = Golden {
    clock: Ns(5914000),
    counters: &[
        ("pte_updates", 8),
        ("tlb_refills", 8),
        ("pages_cleared", 4),
        ("frames_allocated", 4),
        ("ipc_messages", 12),
        ("piggybacked_notices", 40),
        ("fbuf_cache_hits", 20),
        ("fbuf_cache_misses", 4),
        ("chunks_granted", 1),
        ("fbuf_transfers", 48),
        ("bytes_transferred", 196608),
    ],
};

const UNCACHED_LOOPBACK: Golden = Golden {
    clock: Ns(6414000),
    counters: &[
        ("pte_updates", 96),
        ("tlb_flushes", 48),
        ("tlb_refills", 32),
        ("pages_cleared", 16),
        ("frames_allocated", 16),
        ("frames_freed", 16),
        ("ipc_messages", 8),
        ("piggybacked_notices", 24),
        ("chunks_granted", 1),
        ("fbuf_transfers", 32),
        ("bytes_transferred", 131072),
    ],
};

const OSIRIS_TX: Golden = Golden {
    clock: Ns(5525000),
    counters: &[
        ("pte_updates", 13),
        ("tlb_refills", 13),
        ("pages_cleared", 13),
        ("frames_allocated", 13),
        ("ipc_messages", 3),
        ("piggybacked_notices", 2),
        ("fbuf_cache_hits", 2),
        ("fbuf_cache_misses", 1),
        ("chunks_granted", 1),
        ("fbuf_transfers", 3),
        ("bytes_transferred", 150000),
    ],
};

const OSIRIS_RX: Golden = Golden {
    clock: Ns(7271113),
    counters: &[
        ("pte_updates", 42),
        ("tlb_flushes", 8),
        ("tlb_refills", 17),
        ("frames_allocated", 17),
        ("frames_freed", 4),
        ("ipc_messages", 3),
        ("piggybacked_notices", 8),
        ("fbuf_cache_hits", 7),
        ("fbuf_cache_misses", 4),
        ("chunks_granted", 2),
        ("fbuf_transfers", 12),
        ("pdus_sent", 12),
        ("driver_cached_rx", 11),
        ("driver_uncached_rx", 1),
        ("bytes_transferred", 150000),
    ],
};

const PROXY_CHAIN: Golden = Golden {
    clock: Ns(2670500),
    counters: &[
        ("pte_updates", 67),
        ("tlb_flushes", 36),
        ("tlb_refills", 8),
        ("pages_cleared", 9),
        ("frames_allocated", 9),
        ("frames_freed", 8),
        ("ipc_messages", 8),
        ("piggybacked_notices", 12),
        ("fbuf_cache_hits", 3),
        ("fbuf_cache_misses", 1),
        ("chunks_granted", 2),
        ("fbuf_transfers", 16),
        ("fbufs_secured", 8),
        ("bytes_transferred", 98304),
    ],
};

const INTEGRATED: Golden = Golden {
    clock: Ns(1365000),
    counters: &[
        ("pte_updates", 18),
        ("tlb_refills", 18),
        ("pages_cleared", 9),
        ("frames_allocated", 9),
        ("ipc_messages", 3),
        ("chunks_granted", 1),
        ("fbuf_transfers", 6),
        ("dag_nodes_visited", 9),
        ("bytes_transferred", 25152),
    ],
};

#[test]
fn event_loop_is_counter_exact_on_cached_loopback() {
    let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, true));
    for _ in 0..6 {
        s.send_message(16 << 10, false).unwrap();
    }
    let snap = s.fbs.stats().snapshot();
    assert_golden(
        "cached loopback",
        s.fbs.machine().now(),
        &snap,
        &CACHED_LOOPBACK,
    );
    // Hops are synchronous calls: nothing was queued, nothing was
    // refused.
    assert_eq!(s.fbs.queue_delay().count(), 0, "bare hops bypass the loop");
    assert_eq!(snap.overload_drops, 0);
}

#[test]
fn event_loop_is_counter_exact_on_uncached_loopback() {
    let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, false));
    for _ in 0..4 {
        s.send_message(16 << 10, false).unwrap();
    }
    let snap = s.fbs.stats().snapshot();
    assert_golden(
        "uncached loopback",
        s.fbs.machine().now(),
        &snap,
        &UNCACHED_LOOPBACK,
    );
}

#[test]
fn event_loop_is_counter_exact_on_osiris_end_to_end() {
    let mut cfg = machine();
    cfg.phys_mem = 16 << 20;
    let mut e = EndToEnd::new(cfg, EndToEndConfig::fig5(DomainSetup::User));
    for _ in 0..3 {
        e.send_message(50_000, 1, true).unwrap();
    }
    let (tx, rx) = (e.tx.fbs.stats().snapshot(), e.rx.fbs.stats().snapshot());
    assert_golden("osiris tx", e.tx.fbs.machine().now(), &tx, &OSIRIS_TX);
    assert_golden("osiris rx", e.rx.fbs.machine().now(), &rx, &OSIRIS_RX);
}

#[test]
fn event_loop_is_counter_exact_on_proxy_graph_chain() {
    // The x-kernel proxy path: multi-fbuf messages forwarded down a
    // three-domain protocol chain, secured at the boundary, then freed.
    let mut fbs = FbufSystem::new(machine());
    let producer = fbs.create_domain();
    let middle = fbs.create_domain();
    let consumer = fbs.create_domain();
    let path = fbs.create_path(vec![producer, middle, consumer]).unwrap();
    let mut refs = MsgRefs::new();
    for round in 0..4u8 {
        let a = fbs.alloc(producer, AllocMode::Cached(path), 4096).unwrap();
        let b = fbs.alloc(producer, AllocMode::Uncached, 8192).unwrap();
        fbs.write_fbuf(producer, a, 0, &[round; 16]).unwrap();
        fbs.write_fbuf(producer, b, 0, &[round; 16]).unwrap();
        let msg = Msg::from_fbuf(a, 0, 4096).concat(&Msg::from_fbuf(b, 0, 8192));
        refs.adopt(producer, &msg);
        deliver(
            &mut fbs,
            &mut refs,
            &msg,
            producer,
            middle,
            SendMode::Volatile,
        )
        .unwrap();
        deliver(
            &mut fbs,
            &mut refs,
            &msg,
            middle,
            consumer,
            SendMode::Secure,
        )
        .unwrap();
        refs.release(&mut fbs, consumer, &msg).unwrap();
        refs.release(&mut fbs, middle, &msg).unwrap();
        refs.release(&mut fbs, producer, &msg).unwrap();
    }
    let snap = fbs.stats().snapshot();
    assert_golden("proxy chain", fbs.machine().now(), &snap, &PROXY_CHAIN);
}

#[test]
fn event_loop_is_counter_exact_on_integrated_aggregates() {
    // The integrated-aggregate path: one RPC carries only a root pointer;
    // the kernel walks the DAG and transfers every reachable fbuf.
    let mut fbs = FbufSystem::new(machine());
    integrated::install_null_template(&mut fbs);
    let a = fbs.create_domain();
    let b = fbs.create_domain();
    for _ in 0..3 {
        let data = fbs.alloc(a, AllocMode::Uncached, 8192).unwrap();
        fbs.write_fbuf(a, data, 0, b"hello ").unwrap();
        fbs.write_fbuf(a, data, 4096, b"world").unwrap();
        let va = fbs.fbuf(data).unwrap().va;
        let mut builder = DagBuilder::new(&mut fbs, a, AllocMode::Uncached, 8).unwrap();
        let l1 = builder.leaf(&mut fbs, va, 6).unwrap();
        let l2 = builder.leaf(&mut fbs, va + 4096, 5).unwrap();
        let root = builder.concat(&mut fbs, l1, l2).unwrap();
        let msg = integrated::IntegratedMsg { root };
        deliver_integrated(
            &mut fbs,
            msg,
            a,
            b,
            SendMode::Volatile,
            TraverseLimits::default(),
        )
        .unwrap();
        let got = integrated::gather(&mut fbs, b, msg, TraverseLimits::default()).unwrap();
        assert_eq!(got, b"hello world");
    }
    let snap = fbs.stats().snapshot();
    assert_golden(
        "integrated aggregates",
        fbs.machine().now(),
        &snap,
        &INTEGRATED,
    );
}

#[test]
fn batched_notice_plane_charges_identically_to_per_element() {
    // The coalesced notice plane (NoticeBatch payloads, flushed when the
    // window fills or at the poll boundary) is a *host-plane* change: it
    // moves fewer ring slots, but every simulated charge and counter of
    // the workload must be byte-identical to the one-token-per-slot
    // plane. Pinned over five fleet workload shapes on a single-shard
    // (self-linked, fully deterministic) fleet, at the per-element
    // window (1), two interior windows, and the maximum.
    let shapes: [(&str, u64, u64, usize, u64, usize); 5] = [
        // (name, cycles, cross_every, paths, pages, channel_capacity)
        ("no-cross", 400, 0, 2, 1, 8),
        ("dense-cross", 400, 2, 2, 1, 8),
        ("multi-path", 400, 4, 6, 1, 8),
        ("multi-page", 300, 4, 2, 4, 8),
        ("tight-ring", 400, 2, 2, 1, 2),
    ];
    for (name, cycles, cross_every, paths, pages, channel_capacity) in shapes {
        let mut cfg = machine();
        cfg.phys_mem = 32 << 20;
        let run = |notice_batch: usize| {
            let fleet = FleetConfig {
                paths,
                pages,
                cross_every,
                channel_capacity,
                notice_batch,
                ..FleetConfig::new(1, cfg.clone(), cycles)
            };
            let mut reports = run_fleet(&fleet);
            let r = reports.remove(0);
            (
                (r.sim_elapsed, r.delta, r.life, r.fbuf_ops, r.sent, r.received),
                (r.notice_batches, r.notice_tokens, r.orphan_notices),
            )
        };
        let (base, (base_batches, base_tokens, base_orphans)) = run(1);
        assert_eq!(base_batches, base_tokens, "window 1 is the per-element plane");
        assert_eq!(base_orphans, 0, "{name}: fault-free fleet has no orphans");
        for window in [4, 8, NOTICE_BATCH_MAX] {
            let (batched, (batches, tokens, orphans)) = run(window);
            assert_eq!(
                base, batched,
                "{name}: window {window} moved a simulated charge or counter"
            );
            assert_eq!(tokens, base_tokens, "{name}: same tokens cross the plane");
            assert!(batches <= base_batches, "{name}: coalescing never adds slots");
            assert_eq!(orphans, 0);
        }
    }
}

#[test]
fn overload_is_explicit_counted_and_audited() {
    // A full bounded inbox yields the explicit Overload outcome — never
    // silent growth, never recursion. The drop is counted in the stats
    // and traced, and the trace still audits clean (rule 5: an Overload
    // leaves inbox balance untouched).
    let mut fbs = FbufSystem::new(machine());
    let tracer = fbs.machine().tracer();
    tracer.set_enabled(true);
    fbs.set_inbox_depth(1);
    let a = fbs.create_domain();
    let route = vec![fbufs::vm::KERNEL_DOMAIN, a];
    let path = fbs.create_path(route.clone()).unwrap();

    let b1 = fbs
        .alloc(fbufs::vm::KERNEL_DOMAIN, AllocMode::Cached(path), 4096)
        .unwrap();
    let b2 = fbs
        .alloc(fbufs::vm::KERNEL_DOMAIN, AllocMode::Cached(path), 4096)
        .unwrap();
    assert!(!fbs.submit_transfer(b1, &route).is_overload());
    assert!(
        fbs.submit_transfer(b2, &route).is_overload(),
        "depth-1 inbox refuses the second transfer"
    );
    assert_eq!(fbs.stats().overload_drops(), 1);
    assert_eq!(fbs.engine_overloads(), 1);
    assert_eq!(tracer.count_of(EventKind::Overload), 1);

    fbs.pump();
    assert_eq!(fbs.transfers_completed(), 1);
    // The refused transfer never started: its buffer is still ours.
    fbs.free(b2, fbufs::vm::KERNEL_DOMAIN).unwrap();
    audit_tracer(&tracer).assert_clean();
}

#[test]
fn tracing_is_zero_cost_in_simulated_time() {
    // Enabling the tracer must not move a single simulated nanosecond:
    // recording never charges the clock.
    let run = |traced: bool| {
        let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, true));
        s.fbs.machine().tracer().set_enabled(traced);
        for _ in 0..3 {
            s.send_message(32 << 10, false).unwrap();
        }
        s.fbs.machine().clock().now()
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn observability_is_zero_cost_on_loopback() {
    // Spans, metrics sampling, and the always-on ledger together: with
    // everything switched on, a pinned workload must reach the identical
    // simulated instant with an identical counter snapshot. Observation
    // never perturbs the observed system.
    let run = |on: bool| {
        let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, true));
        s.fbs.machine().tracer().set_enabled(on);
        s.fbs.machine().metrics_ref().set_enabled(on);
        for _ in 0..4 {
            s.send_message(32 << 10, false).unwrap();
        }
        (s.fbs.machine().clock().now(), s.fbs.stats().snapshot())
    };
    let (t_off, s_off) = run(false);
    let (t_on, s_on) = run(true);
    assert_eq!(t_off, t_on, "observability must not move the clock");
    assert_eq!(s_off, s_on, "observability must not touch a counter");
}

#[test]
fn observability_is_zero_cost_on_osiris_end_to_end() {
    // Same pin across the two-machine path, where every datagram mints a
    // TX span and links an RX child span.
    let run = |on: bool| {
        let mut cfg = machine();
        cfg.phys_mem = 16 << 20;
        let mut e = EndToEnd::new(cfg, EndToEndConfig::fig5(DomainSetup::User));
        for fbs in [&mut e.tx.fbs, &mut e.rx.fbs] {
            fbs.machine().tracer().set_enabled(on);
            fbs.machine().metrics_ref().set_enabled(on);
        }
        for _ in 0..3 {
            e.send_message(50_000, 1, true).unwrap();
        }
        (
            e.tx.fbs.machine().now(),
            e.rx.fbs.machine().now(),
            e.tx.fbs.stats().snapshot(),
            e.rx.fbs.stats().snapshot(),
        )
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn armed_containment_is_byte_identical_on_benign_workloads() {
    // DESIGN.md §16: the hostile-tenant containment machinery (quota
    // jail + transfer revocation deadline) armed at its default
    // thresholds must be invisible to every benign workload — not one
    // simulated nanosecond, not one counter. Pinned across the five
    // workload shapes this file already pins to engine goldens.
    use fbufs::fbuf::JailConfig;

    let arm = |fbs: &mut FbufSystem, on: bool| {
        if on {
            fbs.set_jail(Some(JailConfig::default()));
            fbs.set_revoke_timeout(Some(Ns(1_000_000_000))); // 1 s
        }
    };

    // 1. Cached loopback.
    let cached = |on: bool| {
        let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, true));
        arm(&mut s.fbs, on);
        for _ in 0..4 {
            s.send_message(16 << 10, false).unwrap();
        }
        (s.fbs.machine().now(), s.fbs.stats().snapshot())
    };
    // 2. Uncached loopback.
    let uncached = |on: bool| {
        let mut s = LoopbackStack::new(machine(), LoopbackConfig::paper(true, false));
        arm(&mut s.fbs, on);
        for _ in 0..3 {
            s.send_message(16 << 10, false).unwrap();
        }
        (s.fbs.machine().now(), s.fbs.stats().snapshot())
    };
    // 3. Osiris end-to-end.
    let osiris = |on: bool| {
        let mut cfg = machine();
        cfg.phys_mem = 16 << 20;
        let mut e = EndToEnd::new(cfg, EndToEndConfig::fig5(DomainSetup::User));
        arm(&mut e.tx.fbs, on);
        arm(&mut e.rx.fbs, on);
        for _ in 0..2 {
            e.send_message(50_000, 1, true).unwrap();
        }
        (
            e.tx.fbs.machine().now(),
            e.rx.fbs.machine().now(),
            e.tx.fbs.stats().snapshot(),
            e.rx.fbs.stats().snapshot(),
        )
    };
    // 4. Proxy graph chain.
    let proxy = |on: bool| {
        let mut fbs = FbufSystem::new(machine());
        arm(&mut fbs, on);
        let producer = fbs.create_domain();
        let middle = fbs.create_domain();
        let consumer = fbs.create_domain();
        let path = fbs.create_path(vec![producer, middle, consumer]).unwrap();
        let mut refs = MsgRefs::new();
        for round in 0..3u8 {
            let a = fbs.alloc(producer, AllocMode::Cached(path), 4096).unwrap();
            fbs.write_fbuf(producer, a, 0, &[round; 16]).unwrap();
            let msg = Msg::from_fbuf(a, 0, 4096);
            refs.adopt(producer, &msg);
            deliver(&mut fbs, &mut refs, &msg, producer, middle, SendMode::Volatile).unwrap();
            deliver(&mut fbs, &mut refs, &msg, middle, consumer, SendMode::Secure).unwrap();
            refs.release(&mut fbs, consumer, &msg).unwrap();
            refs.release(&mut fbs, middle, &msg).unwrap();
            refs.release(&mut fbs, producer, &msg).unwrap();
        }
        (fbs.machine().now(), fbs.stats().snapshot())
    };
    // 5. Engine offered-load via submit_transfer (deadline-stamped when
    // armed — the stamp itself must be free).
    let engine = |on: bool| {
        let mut fbs = FbufSystem::new(machine());
        arm(&mut fbs, on);
        let a = fbs.create_domain();
        let route = vec![fbufs::vm::KERNEL_DOMAIN, a];
        let path = fbs.create_path(route.clone()).unwrap();
        for _ in 0..8 {
            let b = fbs
                .alloc(fbufs::vm::KERNEL_DOMAIN, AllocMode::Cached(path), 4096)
                .unwrap();
            assert!(!fbs.submit_transfer(b, &route).is_overload());
            fbs.pump();
        }
        (fbs.machine().now(), fbs.stats().snapshot())
    };

    assert_eq!(cached(false), cached(true), "cached loopback moved");
    assert_eq!(uncached(false), uncached(true), "uncached loopback moved");
    assert_eq!(osiris(false), osiris(true), "osiris end-to-end moved");
    assert_eq!(proxy(false), proxy(true), "proxy chain moved");
    assert_eq!(engine(false), engine(true), "engine offered load moved");
    // The armed runs really had the jail on and never tripped it.
    let (_, snap) = cached(true);
    assert_eq!(snap.jail_denials, 0);
    assert_eq!(snap.fbufs_revoked, 0);
}

#[test]
fn injected_domain_crash_never_bills_the_ledger_or_trips_the_jail() {
    // A fault-injected domain teardown reclaims the victim's buffers
    // through the crash path. That reclamation is bookkeeping, not
    // traffic: the tenant ledger's transfer bytes must not move, the
    // armed jail must not count the teardown against any tenant, and
    // the hoard charge of the victim must return to zero.
    use fbufs::fbuf::JailConfig;

    let mut fbs = FbufSystem::new(machine());
    fbs.set_jail(Some(JailConfig::default()));
    let a = fbs.create_domain();
    let b = fbs.create_domain();
    let path = fbs.create_path(vec![a, b]).unwrap();
    for _ in 0..4 {
        let buf = fbs.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        fbs.send(buf, a, b, SendMode::Volatile).unwrap();
        fbs.free(buf, b).unwrap();
        fbs.free(buf, a).unwrap();
    }
    // Leave two buffers live in the victim's hands, then crash it.
    let held1 = fbs.alloc(a, AllocMode::Cached(path), 4096).unwrap();
    let held2 = fbs.alloc(a, AllocMode::Uncached, 4096).unwrap();
    fbs.send(held1, a, b, SendMode::Volatile).unwrap();
    let before = fbs.ledger_snapshot();
    fbs.terminate_domain(b).unwrap();
    let after = fbs.ledger_snapshot();
    assert_eq!(
        before.totals().bytes,
        after.totals().bytes,
        "teardown reclamation billed transfer bytes"
    );
    let snap = fbs.stats().snapshot();
    assert_eq!(snap.jail_denials, 0, "teardown tripped the jail");
    assert_eq!(fbs.charged_bytes(b), 0, "the dead tenant still carries hoard charge");
    assert!(after.conserves(&snap).is_empty(), "ledger must conserve");
    // The survivor keeps working — and its jail history is untouched
    // (the path died with its peer, so the survivor falls back to the
    // default allocator).
    fbs.free(held2, a).unwrap();
    fbs.free(held1, a).unwrap();
    fbs.alloc(a, AllocMode::Uncached, 4096).unwrap();
    assert_eq!(fbs.stats().snapshot().jail_denials, 0);
}

#[test]
fn injected_ring_full_faults_keep_the_fleet_ledger_conserving() {
    // FaultSite::RingFull on the cross-shard data plane: pushes refused
    // by the injected backpressure must surface as survivable aborts,
    // never as phantom ledger billing. And merely *arming* a zero-rate
    // plan must not move a byte anywhere — the same counter-exactness
    // discipline every other plane in this file obeys.
    use fbufs::fbuf::{fleet_ledger, fleet_snapshot};
    use fbufs::sim::{FaultSite, FaultSpec};

    let mut cfg = machine();
    cfg.phys_mem = 32 << 20;
    let base = FleetConfig {
        paths: 2,
        pages: 1,
        cross_every: 2,
        channel_capacity: 4,
        ..FleetConfig::new(1, cfg, 300)
    };
    let run = |fault: Option<FaultSpec>| {
        let mut f = base.clone();
        f.fault = fault;
        run_fleet(&f)
    };

    let clean = run(None);
    let armed_zero = run(Some(FaultSpec::new(11)));
    assert_eq!(
        fleet_snapshot(&clean),
        fleet_snapshot(&armed_zero),
        "arming a zero-rate plan moved a counter"
    );

    let faulted = run(Some(FaultSpec::new(11).rate(FaultSite::RingFull, 20_000)));
    let injected: u64 = faulted.iter().map(|r| r.faults_injected).sum();
    assert!(injected > 0, "the plan never fired");
    // Conservation is a whole-life invariant (the ledger is cumulative;
    // the windowed delta excludes warm-up — see tests/observability.rs).
    let life = fbufs::sim::StatsSnapshot::merge_all(faulted.iter().map(|r| &r.life));
    assert_eq!(life.jail_denials, 0, "backpressure faults are not tenant hoarding");
    assert_eq!(life.tokens_rejected, 0, "backpressure faults are not forgeries");
    let violations = fleet_ledger(&faulted).conserves(&life);
    assert!(
        violations.is_empty(),
        "injected ring-full unbalanced the ledger: {violations:?}"
    );
}

#[test]
fn static_policy_is_bit_identical_to_the_fixed_quota() {
    // The pluggable admission layer must leave the default behaviour
    // untouched: a system with `QuotaPolicy::Static` set explicitly and
    // one that never heard of policies run the same allocation storm to
    // the identical simulated instant with identical counters, and both
    // deny exactly at the configured chunk quota.
    use fbufs::fbuf::{FbufError, QuotaPolicy};
    use fbufs::sim::MachineConfig as MC;

    let storm = |set_policy: bool| {
        let mut fbs = FbufSystem::new(MC::tiny());
        if set_policy {
            fbs.set_quota_policy(QuotaPolicy::Static);
        }
        let a = fbs.create_domain();
        let b = fbs.create_domain();
        let path = fbs.create_path(vec![a, b]).unwrap();
        let quota = fbs.machine().config().max_chunks_per_path;
        // Chunk-sized buffers, all held live: every allocation needs a
        // fresh chunk, so the quota is the exact admission boundary.
        let chunk = fbs.machine().config().chunk_size;
        for _ in 0..quota {
            fbs.alloc(a, AllocMode::Cached(path), chunk).unwrap();
        }
        let denied = fbs.alloc(a, AllocMode::Cached(path), chunk);
        assert_eq!(denied, Err(FbufError::QuotaExceeded { path: Some(path) }));
        (fbs.machine().clock().now(), fbs.stats().snapshot())
    };
    let (t_default, s_default) = storm(false);
    let (t_static, s_static) = storm(true);
    assert_eq!(t_default, t_static, "Static must not move the clock");
    assert_eq!(s_default, s_static, "Static must not touch a counter");
    assert_eq!(s_static.chunk_quota_denials, 1, "exactly the one organic denial");
}

#[test]
fn injected_quota_denials_never_count_as_organic() {
    // The `chunk_quota_denials` counter tallies *policy* refusals only.
    // A fault-plan `QuotaExhausted` injection produces the same error at
    // the same site but is the plan's statistic, not the counter's —
    // the split the oracle pins from its side in
    // `fbuf-model::oracle` (injected_quota_and_chunk_grant_decisions).
    use fbufs::fbuf::{FbufError, QuotaPolicy};
    use fbufs::sim::{FaultSite, FaultSpec, MachineConfig as MC};
    use std::rc::Rc;

    let mut fbs = FbufSystem::new(MC::tiny());
    fbs.set_quota_policy(QuotaPolicy::Static);
    let a = fbs.create_domain();
    let b = fbs.create_domain();
    let path = fbs.create_path(vec![a, b]).unwrap();
    let chunk = fbs.machine().config().chunk_size;

    // Rate 65535/65536 with a fixed seed: the first consult fires
    // (deterministic — the plan's stream is a pure function of the
    // seed; the assertion below would catch a seed that rolls a miss).
    let plan = Rc::new(FaultSpec::new(7).rate(FaultSite::QuotaExhausted, u16::MAX).arm());
    fbs.arm_faults(Rc::clone(&plan));
    let denied = fbs.alloc(a, AllocMode::Cached(path), chunk);
    assert_eq!(denied, Err(FbufError::QuotaExceeded { path: Some(path) }));
    assert_eq!(plan.injected(FaultSite::QuotaExhausted), 1, "the plan fired");
    assert_eq!(
        fbs.stats().snapshot().chunk_quota_denials,
        0,
        "an injected denial is the fault plan's tally, not the organic counter's"
    );

    // Disarmed, the same system fills to quota and overflows: only now
    // does the organic counter move.
    fbs.disarm_faults();
    let quota = fbs.machine().config().max_chunks_per_path;
    for _ in 0..quota {
        fbs.alloc(a, AllocMode::Cached(path), chunk).unwrap();
    }
    let denied = fbs.alloc(a, AllocMode::Cached(path), chunk);
    assert_eq!(denied, Err(FbufError::QuotaExceeded { path: Some(path) }));
    assert_eq!(fbs.stats().snapshot().chunk_quota_denials, 1);
}
