//! Bench target regenerating Figure 4 (UDP/IP local loopback),
//! reporting **simulated** throughput in Mb/s.

use fbuf_bench::report::print_curves;
use fbuf_bench::{fig4, observe};
use fbuf_net::{LoopbackConfig, LoopbackStack};
use fbuf_sim::bench::{BenchRunner, Unit};
use fbuf_sim::{MachineConfig, ToJson};

fn main() {
    let curves = fig4::run(&fig4::default_sizes(), 3);
    print_curves(
        "Figure 4: throughput of a UDP/IP local loopback test",
        &curves,
    );
    let mut r = BenchRunner::new("fig4_loopback");
    // Which chunk-admission policy the run executed under (the system
    // default here; `BenchRunner::finish` requires the field).
    r.param("policy", fbuf::QuotaPolicy::default().name().to_json());
    r.param("size", 64u64 << 10);
    r.param("rounds", 3u64);
    r.param("observe_msgs", 8u64);
    r.artifact("fig4_curves", curves.to_json());
    for (label, three, cached) in [
        ("single_domain_64k", false, true),
        ("three_domains_cached_64k", true, true),
        ("three_domains_uncached_64k", true, false),
    ] {
        r.measure(label, Unit::Mbps, || {
            let mut cfg = MachineConfig::decstation_5000_200();
            cfg.phys_mem = 24 << 20;
            let mut s = LoopbackStack::new(cfg, LoopbackConfig::paper(three, cached));
            s.throughput(64 << 10, 3).expect("loopback")
        });
    }
    let obs = observe::loopback(LoopbackConfig::paper(true, true), 64 << 10, 8);
    observe::attach(&mut r, "three_domains_cached_64k", &obs);
    r.finish().expect("write bench report");
}
