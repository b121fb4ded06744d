//! Bench target for the optimization-stack and policy ablations,
//! reporting **simulated** per-page cost and throughput.

use fbuf::SendMode;
use fbuf_bench::report::print_cost_rows;
use fbuf_bench::{ablations, observe};
use fbuf_sim::bench::{BenchRunner, Unit};
use fbuf_sim::{Json, ToJson};

fn main() {
    let stack = ablations::optimization_stack();
    print_cost_rows("Ablation: the §3.2 optimization stack, cumulatively", &stack);
    let lifo = ablations::lifo_vs_fifo(12);
    println!("\n== Ablation: LIFO vs FIFO under memory pressure ==");
    for row in &lifo {
        println!(
            "{:<6} resident hits {:>3}, rematerializations {:>3}",
            row.policy, row.resident_hits, row.rematerializations
        );
    }
    let paths = ablations::path_cache(&[8, 16, 24], 48);
    println!("\n== Ablation: driver VCI cache ==");
    for row in &paths {
        println!(
            "{:>2} VCIs: cached {:>4.0}%  {:>6.0} Mb/s",
            row.active_vcis,
            row.cached_fraction * 100.0,
            row.throughput_mbps
        );
    }
    let bus = ablations::bus_contention();

    let mut r = BenchRunner::new("optstack");
    // Which chunk-admission policy the run executed under (the system
    // default here; `BenchRunner::finish` requires the field).
    r.param("policy", fbuf::QuotaPolicy::default().name().to_json());
    r.param("observe_size", 64u64 << 10);
    r.param("observe_iters", 4u64);
    r.param("lifo_rounds", 12u64);
    r.artifact("optimization_stack", stack.to_json());
    r.artifact("lifo_vs_fifo", lifo.to_json());
    r.artifact("path_cache", paths.to_json());
    r.artifact(
        "bus_contention",
        Json::Arr(
            bus.iter()
                .map(|(label, mbps)| {
                    Json::obj(vec![
                        ("label", label.to_json()),
                        ("throughput_mbps", mbps.to_json()),
                    ])
                })
                .collect(),
        ),
    );
    r.measure("base_remap_full_clearing", Unit::SimUs, || {
        ablations::optimization_stack()[0].per_page_us
    });
    r.measure("full_design_cached_volatile", Unit::SimUs, || {
        ablations::optimization_stack()
            .last()
            .expect("rows")
            .per_page_us
    });
    r.measure("bus_contended_throughput", Unit::Mbps, || {
        ablations::bus_contention()[0].1
    });
    r.measure("bus_uncontended_ceiling", Unit::Mbps, || {
        ablations::bus_contention()[1].1
    });
    for (label, send) in [
        ("volatile", SendMode::Volatile),
        ("secured", SendMode::Secure),
    ] {
        let obs = observe::crossing(true, send, 64 << 10, 4);
        observe::attach(&mut r, &format!("cached_{label}_64k"), &obs);
    }
    r.finish().expect("write bench report");
}
