//! Bench target regenerating the §2.2.1 remap measurements, reporting
//! **simulated** per-page cost (µs/page).

use fbuf_bench::{observe, remap};
use fbuf_sim::bench::{BenchRunner, Unit};
use fbuf_sim::ToJson;
use fbuf_vm::facility::RemapFacility;

fn main() {
    let rows = remap::run();
    println!("\n== §2.2.1: DASH-style page remapping, re-measured ==");
    for row in &rows {
        println!(
            "{:<12} cleared {:>4.0}%  {:>7.2} us/page",
            row.mode,
            row.clear_fraction * 100.0,
            row.per_page_us
        );
    }
    let mut r = BenchRunner::new("remap");
    // Which chunk-admission policy the run executed under (the system
    // default here; `BenchRunner::finish` requires the field).
    r.param("policy", fbuf::QuotaPolicy::default().name().to_json());
    r.param("pages", 8u64);
    r.param("rounds", 8u64);
    r.artifact("remap_rows", rows.to_json());
    r.measure("pingpong", Unit::SimUs, || remap::pingpong(8, 8));
    r.measure("streaming_no_clear", Unit::SimUs, || {
        remap::streaming(0.0, 8, 8)
    });
    r.measure("streaming_half_clear", Unit::SimUs, || {
        remap::streaming(0.5, 8, 8)
    });
    r.measure("streaming_full_clear", Unit::SimUs, || {
        remap::streaming(1.0, 8, 8)
    });
    let obs = observe::facility(&mut RemapFacility::new(1.0), 8, 8);
    observe::attach(&mut r, "remap_full_clear", &obs);
    r.finish().expect("write bench report");
}
