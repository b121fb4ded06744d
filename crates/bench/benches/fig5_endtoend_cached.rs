//! Bench target regenerating Figure 5 (end-to-end, cached/volatile),
//! reporting **simulated** throughput in Mb/s per domain placement.

use fbuf_bench::report::print_curves;
use fbuf_bench::{fig5, observe};
use fbuf_net::{DomainSetup, EndToEndConfig};
use fbuf_sim::bench::{BenchRunner, Unit};
use fbuf_sim::ToJson;

fn main() {
    let curves = fig5::run(true, &fig5::default_sizes(), 3);
    print_curves(
        "Figure 5: UDP/IP end-to-end throughput, cached/volatile fbufs",
        &curves,
    );
    let mut r = BenchRunner::new("fig5_endtoend_cached");
    // Which chunk-admission policy the run executed under (the system
    // default here; `BenchRunner::finish` requires the field).
    r.param("policy", fbuf::QuotaPolicy::default().name().to_json());
    r.param("size", 1u64 << 20);
    r.param("rounds", 3u64);
    r.param("observe_size", 256u64 << 10);
    r.param("observe_msgs", 4u64);
    r.artifact("fig5_curves", curves.to_json());
    for (label, setup) in [
        ("kernel_kernel_1m", DomainSetup::KernelOnly),
        ("user_user_1m", DomainSetup::User),
        ("user_netserver_user_1m", DomainSetup::UserNetserver),
    ] {
        r.measure(label, Unit::Mbps, || {
            fig5::throughput(EndToEndConfig::fig5(setup), 1 << 20, 3)
        });
    }
    let obs = observe::endtoend(
        EndToEndConfig::fig5(DomainSetup::UserNetserver),
        256 << 10,
        4,
    );
    observe::attach(&mut r, "user_netserver_user_256k", &obs);
    r.finish().expect("write bench report");
}
