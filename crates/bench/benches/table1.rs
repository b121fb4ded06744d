//! Bench target regenerating Table 1, reporting **simulated** per-page
//! cost (µs/page) for each fbuf regime — directly comparable against the
//! paper's table, unlike wall-clock timing of the simulator.

use fbuf::SendMode;
use fbuf_bench::report::print_cost_rows;
use fbuf_bench::{observe, table1};
use fbuf_sim::bench::{BenchRunner, Unit};
use fbuf_sim::ToJson;

fn main() {
    let rows = table1::run();
    print_cost_rows(
        "Table 1: incremental per-page costs and asymptotic throughput",
        &rows,
    );
    let mut r = BenchRunner::new("table1");
    // Which chunk-admission policy the run executed under (the system
    // default here; `BenchRunner::finish` requires the field).
    r.param("policy", fbuf::QuotaPolicy::default().name().to_json());
    r.param("observe_size", 64u64 << 10);
    r.param("observe_iters", 4u64);
    r.artifact("table1_rows", rows.to_json());
    r.measure("cached_volatile_slope", Unit::SimUs, || {
        table1::fbuf_slope(true, SendMode::Volatile)
    });
    r.measure("uncached_volatile_slope", Unit::SimUs, || {
        table1::fbuf_slope(false, SendMode::Volatile)
    });
    r.measure("cached_secured_slope", Unit::SimUs, || {
        table1::fbuf_slope(true, SendMode::Secure)
    });
    r.measure("uncached_secured_slope", Unit::SimUs, || {
        table1::fbuf_slope(false, SendMode::Secure)
    });
    let obs = observe::crossing(true, SendMode::Volatile, 64 << 10, 4);
    observe::attach(&mut r, "cached_volatile_64k", &obs);
    r.finish().expect("write bench report");
}
