//! Bench target regenerating Figure 3 (single boundary crossing),
//! reporting **simulated** throughput in Mb/s.

use fbuf::SendMode;
use fbuf_bench::report::print_curves;
use fbuf_bench::{fig3, observe};
use fbuf_sim::bench::{BenchRunner, Unit};
use fbuf_sim::ToJson;

fn main() {
    let curves = fig3::run(&fig3::default_sizes(), 3);
    print_curves(
        "Figure 3: throughput of a single domain boundary crossing",
        &curves,
    );
    let mut r = BenchRunner::new("fig3_single_crossing");
    // Which chunk-admission policy the run executed under (the system
    // default here; `BenchRunner::finish` requires the field).
    r.param("policy", fbuf::QuotaPolicy::default().name().to_json());
    r.param("size", 64u64 << 10);
    r.param("rounds", 3u64);
    r.param("observe_iters", 4u64);
    r.artifact("fig3_curves", curves.to_json());
    r.measure("fbuf_cached_volatile_64k", Unit::Mbps, || {
        fig3::fbuf_throughput(true, SendMode::Volatile, 64 << 10, 3)
    });
    r.measure("fbuf_uncached_volatile_64k", Unit::Mbps, || {
        fig3::fbuf_throughput(false, SendMode::Volatile, 64 << 10, 3)
    });
    r.measure("mach_native_64k", Unit::Mbps, || {
        fig3::mach_throughput(64 << 10, 3)
    });
    for (label, cached) in [("cached", true), ("uncached", false)] {
        let obs = observe::crossing(cached, SendMode::Volatile, 64 << 10, 4);
        observe::attach(&mut r, &format!("{label}_volatile_64k"), &obs);
    }
    r.finish().expect("write bench report");
}
