//! Bench target for the aggregate-object machinery. Message editing and
//! IP fragmentation are pure metadata operations that charge no simulated
//! time, so they are reported as structural artifacts (extent/fragment
//! counts); the integrated-DAG build and traverse go through the VM and
//! are measured in **simulated** µs under DECstation costs.

use fbuf::{AllocMode, FbufId, FbufSystem};
use fbuf_net::ip;
use fbuf_sim::bench::{BenchRunner, Unit};
use fbuf_sim::{Json, MachineConfig, ToJson};
use fbuf_xkernel::integrated::{self, DagBuilder, TraverseLimits};
use fbuf_xkernel::{Extent, Msg};

fn big_msg() -> Msg {
    // 64 extents over 16 fbufs, 1 MB total.
    Msg::from_extents(
        (0..64u64)
            .map(|i| Extent {
                fbuf: FbufId(i % 16),
                off: (i / 16) * 16_384,
                len: 16_384,
            })
            .collect(),
    )
}

/// Builds a 127-node integrated DAG on a DECstation-cost machine and
/// returns (system, domain, root): simulated time then accrues on the
/// system clock as the DAG is traversed.
fn build_dag() -> (FbufSystem, fbuf_vm::DomainId, u64) {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 8 << 20;
    let mut fbs = FbufSystem::new(cfg);
    integrated::install_null_template(&mut fbs);
    let dom = fbs.create_domain();
    let data = fbs
        .alloc(dom, AllocMode::Uncached, 16 << 10)
        .expect("alloc");
    let data_va = fbs.fbuf(data).expect("fbuf").va;
    let mut builder = DagBuilder::new(&mut fbs, dom, AllocMode::Uncached, 128).expect("builder");
    let mut node = builder.leaf(&mut fbs, data_va, 1024).expect("leaf");
    for i in 0..63u64 {
        let l = builder
            .leaf(&mut fbs, data_va + (i % 16) * 1024, 1024)
            .expect("leaf");
        node = builder.concat(&mut fbs, node, l).expect("concat");
    }
    (fbs, dom, node)
}

fn main() {
    let msg = big_msg();
    let (head, tail) = msg.split(512 << 10);
    let joined = msg.concat(&big_msg());
    let frags = ip::fragment(&msg, 1, 4096);
    let mut reasm = ip::Reassembler::new(0);
    let mut done = None;
    for (h, m) in frags.clone() {
        if let Some(d) = reasm.add(h, m) {
            done = Some(d);
        }
    }
    let done = done.expect("complete");

    println!("\n== Aggregate-object machinery: structural checks ==");
    println!(
        "split 1MB at 512KB: {} + {} extents; concat: {} extents",
        head.extents().len(),
        tail.extents().len(),
        joined.extents().len()
    );
    println!(
        "fragment 1MB into 4KB PDUs: {} fragments, reassembled to {} bytes",
        frags.len(),
        done.len()
    );

    let mut r = BenchRunner::new("aggregate_ops");
    // Which chunk-admission policy the run executed under (the system
    // default here; `BenchRunner::finish` requires the field).
    r.param("policy", fbuf::QuotaPolicy::default().name().to_json());
    r.param("msg_extents", 64u64);
    r.param("msg_fbufs", 16u64);
    r.param("dag_nodes", 127u64);
    r.artifact(
        "editing",
        Json::obj(vec![
            ("msg_extents", msg.extents().len().to_json()),
            ("split_head_extents", head.extents().len().to_json()),
            ("split_tail_extents", tail.extents().len().to_json()),
            ("concat_extents", joined.extents().len().to_json()),
            ("fragments_4k", frags.len().to_json()),
            ("reassembled_len", done.len().to_json()),
        ]),
    );
    r.measure("dag_build_127_nodes", Unit::SimUs, || {
        let (fbs, _, _) = build_dag();
        fbs.machine().clock().now().as_us_f64()
    });
    r.measure("dag_traverse_127_nodes", Unit::SimUs, || {
        let (mut fbs, dom, node) = build_dag();
        let t0 = fbs.machine().clock().now();
        integrated::traverse(&mut fbs, dom, node, TraverseLimits::default()).expect("traverse");
        (fbs.machine().clock().now() - t0).as_us_f64()
    });
    // Observability blocks: a traced build+traverse, counters over the
    // whole run (DagVisit-heavy) and alloc service latency of the node
    // allocations.
    {
        let (mut fbs, dom, node) = build_dag();
        let tracer = fbs.machine().tracer();
        tracer.set_enabled(true);
        let mark = fbs.stats().snapshot();
        integrated::traverse(&mut fbs, dom, node, TraverseLimits::default()).expect("traverse");
        r.counters(&fbs.stats().snapshot().delta(&mark));
        let extra = fbs.alloc(dom, AllocMode::Uncached, 4096).expect("alloc");
        fbs.free(extra, dom).expect("free");
        r.latency("alloc_uncached_4k", &tracer.merged_alloc_latency());
    }
    r.finish().expect("write bench report");
}
