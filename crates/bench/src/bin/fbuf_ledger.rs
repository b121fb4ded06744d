//! `fbuf-ledger`: the per-tenant accounting view of a fleet run.
//!
//! Every counter the engine keeps ([`fbuf_sim::Stats`]) answers *how
//! much work happened*; the ledger answers *on whose behalf*. This
//! target runs a sharded fleet (the same workload shape `fbuf-stress`
//! measures), folds each shard's always-on [`fbuf::Ledger`] into one
//! fleet table with [`fbuf::fleet_ledger`], and renders it two ways:
//!
//! * a top-style table on stdout — one row per tenant (protection
//!   domains, then I/O data paths), sorted by bytes carried, with
//!   transfer/alloc counts, buffer-hold time, queueing delay, IPC calls
//!   originated, and faults absorbed;
//! * `LEDGER_fleet.json` in the report directory — the full tables plus
//!   the fleet counter snapshot, a `notice_plane` summary (batches,
//!   tokens, orphans from the coalesced cross-shard notice rings), and
//!   the **conservation** verdict.
//!
//! Conservation is the whole point: summed over every tenant, the
//! ledger's bytes / transfers / IPC-call columns must reproduce the
//! fleet's whole-life counter totals exactly (the ledger is updated
//! inline on the same operations that bump the counters). This binary
//! exits non-zero if conservation fails, and `fbuf-stress --check`
//! re-validates the written artifact.
//!
//! Environment knobs:
//!
//! * `FBUF_LEDGER_SHARDS` — fleet width (default 2);
//! * `FBUF_LEDGER_CYCLES` — total local cycles across the fleet
//!   (default 4000);
//! * `FBUF_BENCH_DIR`     — report directory (default
//!   `target/bench-reports`).

use std::process::ExitCode;

use fbuf::shard::{fleet_ledger, run_fleet, FleetConfig};
use fbuf::{Ledger, TenantRow};
use fbuf_bench::knobs;
use fbuf_sim::bench::report_dir;
use fbuf_sim::{Json, MachineConfig, StatsSnapshot, ToJson};

/// One formatted table row; `tenant` is e.g. `dom 3` or `path 1`.
fn print_row(tenant: &str, r: &TenantRow) {
    println!(
        "{tenant:>8} {:>12} {:>10} {:>8} {:>12} {:>12} {:>8} {:>7}",
        r.bytes, r.transfers, r.allocs, r.hold_ns, r.queue_ns, r.ipc_calls, r.faults
    );
}

/// Renders the ledger as a top-style table: domains then paths, each
/// sorted by bytes carried (busiest tenant first), empty rows skipped.
fn print_table(ledger: &Ledger) {
    println!(
        "{:>8} {:>12} {:>10} {:>8} {:>12} {:>12} {:>8} {:>7}",
        "tenant", "bytes", "transfers", "allocs", "hold_ns", "queue_ns", "ipc", "faults"
    );
    let sorted = |rows: &[TenantRow], label: &str| {
        let mut v: Vec<(usize, TenantRow)> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .map(|(i, r)| (i, *r))
            .collect();
        v.sort_by(|a, b| b.1.bytes.cmp(&a.1.bytes).then(a.0.cmp(&b.0)));
        for (i, r) in v {
            print_row(&format!("{label} {i}"), &r);
        }
    };
    sorted(&ledger.domains, "dom");
    sorted(&ledger.paths, "path");
    print_row("total", &ledger.totals());
}

fn main() -> ExitCode {
    let shards = knobs::count("FBUF_LEDGER_SHARDS", 2) as usize;
    let cycles = knobs::count("FBUF_LEDGER_CYCLES", 4_000);

    let mut machine = MachineConfig::decstation_5000_200();
    machine.phys_mem = 64 << 20;
    machine.chunk_size = 1 << 20;
    let cfg = FleetConfig {
        metrics: true,
        ..FleetConfig::new(shards, machine, cycles)
    };
    println!("== fbuf-ledger: {shards} shard(s), {cycles} cycles ==");
    let reports = run_fleet(&cfg);

    let ledger = fleet_ledger(&reports);
    let life = StatsSnapshot::merge_all(reports.iter().map(|r| &r.life));
    print_table(&ledger);

    // The batched notice plane, summed across shards. The coalescing
    // factor (tokens per batch) is the realized win of batch-boundary
    // flushing; orphans are protocol violations and fail the run.
    let batches: u64 = reports.iter().map(|r| r.notice_batches).sum();
    let tokens: u64 = reports.iter().map(|r| r.notice_tokens).sum();
    let orphans: u64 = reports.iter().map(|r| r.orphan_notices).sum();
    #[allow(clippy::cast_precision_loss)]
    let coalesce = if batches > 0 {
        tokens as f64 / batches as f64
    } else {
        0.0
    };
    println!(
        "notice plane: {tokens} token(s) in {batches} batch(es), coalesce x{coalesce:.2}, {orphans} orphan(s)"
    );

    let violations = ledger.conserves(&life);
    let doc = Json::obj(vec![
        ("name", "ledger_fleet".to_json()),
        ("shards", (shards as u64).to_json()),
        ("cycles", cycles.to_json()),
        ("ledger", ledger.to_json()),
        ("counters", life.to_json()),
        (
            "notice_plane",
            Json::obj(vec![
                ("batches", batches.to_json()),
                ("tokens", tokens.to_json()),
                ("orphans", orphans.to_json()),
            ]),
        ),
        (
            "conservation",
            Json::obj(vec![(
                "violations",
                Json::Arr(violations.iter().map(|v| v.as_str().to_json()).collect()),
            )]),
        ),
    ]);

    let dir = report_dir();
    let path = dir.join("LEDGER_fleet.json");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.render()))
    {
        eprintln!(
            "fbuf-ledger FAILED: could not write {}: {e}",
            path.display()
        );
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());

    if !violations.is_empty() {
        eprintln!("fbuf-ledger FAILED: conservation violated:");
        for v in &violations {
            eprintln!("  {v}");
        }
        return ExitCode::FAILURE;
    }
    if orphans > 0 {
        eprintln!("fbuf-ledger FAILED: {orphans} notice token(s) arrived without a pending send");
        return ExitCode::FAILURE;
    }
    println!(
        "conservation: {} tenant bytes == fleet bytes_transferred; transfers and ipc_calls conserved",
        ledger.totals().bytes
    );
    ExitCode::SUCCESS
}
