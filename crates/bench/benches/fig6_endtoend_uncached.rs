//! Bench target regenerating Figure 6 (end-to-end, uncached/
//! non-volatile) and the §4 CPU-load experiment, reporting **simulated**
//! Mb/s and receive-host CPU-load fractions.

use fbuf_bench::report::print_curves;
use fbuf_bench::{cpuload, fig5, observe};
use fbuf_net::{DomainSetup, EndToEndConfig};
use fbuf_sim::bench::{BenchRunner, Unit};
use fbuf_sim::ToJson;

fn main() {
    let curves = fig5::run(false, &fig5::default_sizes(), 3);
    print_curves(
        "Figure 6: UDP/IP end-to-end throughput, uncached/non-volatile fbufs",
        &curves,
    );
    let cpu_rows = cpuload::run();
    println!("\n== §4: receive-host CPU load, 1 MB messages (user-user) ==");
    for row in &cpu_rows {
        println!(
            "{:<10} {:>6}KB PDU  load {:>4.0}%  {:>6.0} Mb/s",
            row.regime,
            row.pdu >> 10,
            row.rx_cpu * 100.0,
            row.throughput_mbps
        );
    }
    let mut r = BenchRunner::new("fig6_endtoend_uncached");
    // Which chunk-admission policy the run executed under (the system
    // default here; `BenchRunner::finish` requires the field).
    r.param("policy", fbuf::QuotaPolicy::default().name().to_json());
    r.param("size", 1u64 << 20);
    r.param("rounds", 3u64);
    r.param("observe_size", 256u64 << 10);
    r.param("observe_msgs", 4u64);
    r.artifact("fig6_curves", curves.to_json());
    r.artifact("cpuload_rows", cpu_rows.to_json());
    r.measure("user_user_uncached_1m", Unit::Mbps, || {
        fig5::throughput(EndToEndConfig::fig6(DomainSetup::User), 1 << 20, 3)
    });
    r.measure("rx_cpu_cached_16k_pdu", Unit::Fraction, || {
        cpuload::run()
            .iter()
            .find(|row| row.regime == "cached" && row.pdu == 16 << 10)
            .expect("cell present")
            .rx_cpu
    });
    r.measure("rx_cpu_uncached_16k_pdu", Unit::Fraction, || {
        cpuload::run()
            .iter()
            .find(|row| row.regime == "uncached" && row.pdu == 16 << 10)
            .expect("cell present")
            .rx_cpu
    });
    let obs = observe::endtoend(EndToEndConfig::fig6(DomainSetup::User), 256 << 10, 4);
    observe::attach(&mut r, "user_user_uncached_256k", &obs);
    r.finish().expect("write bench report");
}
