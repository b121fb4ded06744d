//! Integration pins for the observability stack (DESIGN.md §13):
//! merged fleet traces, the Chrome export schema, causal span
//! propagation across shard rings, and per-tenant ledger conservation.

use fbufs::fbuf::shard::{
    fleet_ledger, fleet_telemetry, fleet_trace, run_fleet, FleetConfig, Links, Shard,
};
use fbufs::fbuf::{run_offered_load, AllocMode, FbufSystem, QueueConfig, SendMode};
use fbufs::net::{LoopbackConfig, LoopbackStack};
use fbufs::sim::metrics::{telemetry_json, DEFAULT_CADENCE_NS};
use fbufs::sim::spans::reconstruct;
use fbufs::sim::{EventKind, Json, MachineConfig, StatsSnapshot};

fn fleet_machine() -> MachineConfig {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 32 << 20;
    cfg.chunk_size = 1 << 20;
    cfg
}

fn traced_fleet(shards: usize, cycles: u64) -> FleetConfig {
    FleetConfig {
        trace: true,
        metrics: true,
        cross_every: 2,
        ..FleetConfig::new(shards, fleet_machine(), cycles)
    }
}

#[test]
fn merged_fleet_trace_is_lossless_and_time_ordered() {
    let reports = run_fleet(&traced_fleet(2, 400));
    let merged = fleet_trace(&reports);

    // Lossless: every shard event survives the merge (ring overflow
    // would show up in `events_dropped`, not as silent loss here).
    let per_shard: usize = reports.iter().map(|r| r.events.len()).sum();
    assert!(per_shard > 0, "traced fleet produced events");
    assert_eq!(merged.len(), per_shard, "merge drops nothing");

    // Time-ordered and re-sequenced 0..n.
    assert!(
        merged.windows(2).all(|w| w[0].at <= w[1].at),
        "merged events sorted by simulated time"
    );
    for (i, e) in merged.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "merge re-sequences densely");
    }

    // Domain offsetting: shard 1's events must not collide with shard
    // 0's domain ids (shard 0 created `reports[0].domains` domains).
    let base = reports[0].domains;
    assert!(
        merged.iter().any(|e| e.dom >= base),
        "second shard's events landed past the first shard's domain base"
    );
}

#[test]
fn chrome_trace_export_has_the_documented_schema() {
    let mut s = FbufSystem::new(fleet_machine());
    let tracer = s.machine().tracer();
    tracer.set_enabled(true);
    let a = s.create_domain();
    let b = s.create_domain();
    let path = s.create_path(vec![a, b]).unwrap();
    for _ in 0..4 {
        let id = s.alloc(a, AllocMode::Cached(path), 4096).unwrap();
        s.hop(a, b);
        s.send(id, a, b, SendMode::Volatile).unwrap();
        s.free(id, b).unwrap();
        s.free(id, a).unwrap();
    }

    let doc = tracer.chrome_trace();
    let rendered = doc.render();
    let parsed = Json::parse(&rendered).expect("chrome trace renders valid JSON");

    assert!(parsed.get("displayTimeUnit").is_some());
    assert_eq!(
        parsed.get("dropped_events").and_then(Json::as_f64),
        Some(0.0),
        "an un-wrapped ring reports zero drops"
    );
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("ph").and_then(Json::as_str).is_some());
        assert!(e.get("pid").and_then(Json::as_f64).is_some());
        // Span events use their *start* instant as ts, so the stream is
        // not globally sorted — but no event starts before time zero.
        let ts = e.get("ts").and_then(Json::as_f64).expect("ts present");
        assert!(ts >= 0.0);
    }
}

#[test]
fn cross_shard_transfers_reconstruct_as_connected_span_trees() {
    let reports = run_fleet(&traced_fleet(2, 400));
    let merged = fleet_trace(&reports);
    let crossings = merged
        .iter()
        .filter(|e| e.kind == EventKind::RingCross)
        .count();
    assert!(crossings > 0, "cross traffic actually crossed rings");

    let trees = reconstruct(&merged);
    assert!(!trees.is_empty());
    let mut crossing_trees = 0;
    for tree in &trees {
        let has_crossing = tree
            .nodes
            .iter()
            .flat_map(|n| n.events.iter())
            .any(|e| e.kind == EventKind::RingCross);
        if !has_crossing {
            continue;
        }
        crossing_trees += 1;
        // The sender's token span and the receiver's child span must have
        // folded into ONE tree — a disconnected forest means the span id
        // broke somewhere across the SPSC ring.
        assert!(
            tree.is_connected(),
            "span tree {:#x} reconstructs connected",
            tree.root
        );
        assert!(
            tree.nodes.len() >= 2,
            "a ring crossing spans both sides (tree {:#x})",
            tree.root
        );
    }
    assert!(
        crossing_trees > 0,
        "at least one reconstructed tree covers a ring crossing"
    );
}

#[test]
fn ledger_conserves_on_a_single_system_workload() {
    // Mixed cached/uncached traffic across two tenants; the always-on
    // ledger's totals must reproduce the system's own counters exactly.
    let mut s = FbufSystem::new(fleet_machine());
    let a = s.create_domain();
    let b = s.create_domain();
    let path = s.create_path(vec![a, b]).unwrap();
    for round in 0..6u64 {
        let mode = if round % 2 == 0 {
            AllocMode::Cached(path)
        } else {
            AllocMode::Uncached
        };
        let id = s.alloc(a, mode, 8192).unwrap();
        s.write_fbuf(a, id, 0, &[round as u8]).unwrap();
        s.hop(a, b);
        s.send(id, a, b, SendMode::Volatile).unwrap();
        s.free(id, b).unwrap();
        s.free(id, a).unwrap();
    }

    let ledger = s.ledger_snapshot();
    let violations = ledger.conserves(&s.stats().snapshot());
    assert!(violations.is_empty(), "conservation violated: {violations:?}");

    let totals = ledger.totals();
    assert!(totals.bytes > 0, "tenants were charged for bytes");
    assert!(totals.transfers > 0);
    assert!(totals.hold_ns > 0, "freed buffers accumulated hold time");
    // Attribution went to the tenants that did the work.
    assert!(ledger.domains[a.0 as usize].transfers > 0);
    assert!(ledger.paths[path.0 as usize].bytes > 0);
}

#[test]
fn fleet_ledger_conserves_against_whole_life_counters() {
    let reports = run_fleet(&traced_fleet(2, 400));
    let ledger = fleet_ledger(&reports);
    let life = StatsSnapshot::merge_all(reports.iter().map(|r| &r.life));
    let violations = ledger.conserves(&life);
    assert!(violations.is_empty(), "fleet conservation violated: {violations:?}");
    assert!(ledger.totals().bytes > 0);
    // Telemetry rode along: the metrics flag filled per-shard series.
    assert!(reports.iter().all(|r| !r.telemetry.is_empty()));
}

/// A rendered telemetry block reduced to a pinnable fingerprint: its
/// length, its FNV-1a 64 hash, and its series names in order.
fn fingerprint(rendered: &str, names: Vec<String>) -> (usize, u64, usize) {
    let hash = rendered.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (rendered.len(), hash, names.len())
}

/// The telemetry block of a telemetry-on cached three-domain loopback
/// run: system gauges only, one path, three domains.
fn loopback_telemetry() -> (usize, u64, usize) {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 24 << 20;
    let mut s = LoopbackStack::new(cfg, LoopbackConfig::paper(true, true));
    s.fbs.machine().metrics_ref().set_enabled(true);
    for _ in 0..8 {
        s.send_message(32 << 10, false).unwrap();
    }
    let m = s.fbs.machine().metrics_ref();
    let names = m.series().into_iter().map(|s| s.name).collect();
    fingerprint(&m.to_json().render(), names)
}

/// The merged telemetry block of a 2-shard fleet at 2 paths per shard
/// (under the series cap), with `cross_every` cycles between payloads.
/// Cross-shard traffic makes ring occupancy depend on thread timing, so
/// a multi-shard pin runs without it; a 1-shard fleet feeds itself
/// deterministically and pins the ring gauges too.
fn fleet_telemetry_block(shards: usize, cross_every: u64) -> (usize, u64, usize) {
    let reports = run_fleet(&FleetConfig {
        metrics: true,
        cross_every,
        paths: 2 * shards,
        ..FleetConfig::new(shards, fleet_machine(), 600)
    });
    let merged = fleet_telemetry(&reports);
    let names = merged.iter().map(|s| s.name.clone()).collect();
    fingerprint(&telemetry_json(DEFAULT_CADENCE_NS, &merged).render(), names)
}

/// The telemetry block of one shard driven by hand (no rings) for
/// `cycles` local cycles, sampling after each, with the series rings
/// resized to `cap` points after `resize_after` cycles, and the
/// shard's `refused_names` count.
fn shard_telemetry(
    paths: usize,
    cycles: u64,
    resize_after: u64,
    cap: usize,
) -> ((usize, u64, usize), u64) {
    let mut sh = Shard::new(0, fleet_machine(), paths, 1);
    let m = sh.sys.machine().metrics();
    m.set_enabled(true);
    sh.warm_local();
    let links = Links::default();
    for i in 0..cycles {
        if i == resize_after {
            m.set_capacity(cap);
        }
        sh.local_cycle();
        sh.sample_telemetry(&links);
    }
    let names = m.series().into_iter().map(|s| s.name).collect();
    (fingerprint(&m.to_json().render(), names), m.refused_names())
}

/// The telemetry block of an engine-driven offered-load run: samples
/// taken inside a hop handler (the loop is out of place) carry no
/// `inbox<d>` gauges, samples taken between drains do.
fn offered_load_telemetry() -> (usize, u64, usize) {
    let report = run_offered_load(&QueueConfig {
        transfers: 96,
        burst: 6,
        hops: 3,
        ..QueueConfig::default()
    })
    .unwrap();
    let names = report.telemetry.iter().map(|s| s.name.clone()).collect();
    fingerprint(&telemetry_json(DEFAULT_CADENCE_NS, &report.telemetry).render(), names)
}

#[test]
fn telemetry_blocks_match_their_golden_fingerprints() {
    // Golden values captured before gauges were registered behind
    // handles: (rendered length, FNV-1a 64, series count). A change to
    // the sampler must leave every point, name, and order unmoved.
    assert_eq!(loopback_telemetry(), (3883, 8571366519680822611, 12));
    assert_eq!(
        fleet_telemetry_block(2, 0),
        (256631, 14841840978550178102, 64)
    );
    assert_eq!(
        fleet_telemetry_block(1, 4),
        (344764, 14698316931145641937, 34)
    );

    // Golden values captured before samples were recorded as rows.
    // Every ring wraps: a shrink to 37 points, with samples pending,
    // after 300 cycles at the default capacity.
    assert_eq!(
        shard_telemetry(4, 900, 300, 37),
        ((25179, 1588051402618127169, 44), 0)
    );
    // 16 paths exceed the 64-series cap: refused names are counted.
    assert_eq!(
        shard_telemetry(16, 300, u64::MAX, 0),
        ((317992, 17245995890010452209, 72), 14608)
    );
    // In-handler samples of an offered-load run carry no inbox gauges.
    assert_eq!(offered_load_telemetry(), (31907, 1715486646623416165, 12));
}
