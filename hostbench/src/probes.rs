//! Probes: direct timings of public functions the workloads only reach
//! from inside the program, called with the workloads' own sizes.

use std::hint::black_box;
use std::time::Instant;

use fbuf::{FbufId, FbufSystem};
use fbuf_sim::{MachineConfig, Ns};
use fbuf_vm::{Machine, Prot};
use fbuf_xkernel::Msg;

use crate::median;

/// Median host ns of `f` over `reps` calls.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_nanos() as f64);
    }
    median(&v)
}

/// `FbufSystem::sample_gauges_at` with telemetry on, on a system whose
/// paths cross `shape[i]` fresh domains each — the sampler's cost grows
/// with paths and domains, so a probe uses the workload's own shape.
pub fn sample_gauges_ns(shape: &[usize]) -> f64 {
    let mut sys = FbufSystem::new(MachineConfig::decstation_5000_200());
    for &doms in shape {
        let d: Vec<_> = (0..doms).map(|_| sys.create_domain()).collect();
        sys.create_path(d).expect("fresh domains make a path");
    }
    sys.machine().metrics_ref().set_enabled(true);
    let mut t = 0u64;
    time_median(400, || {
        t += 10_000;
        sys.sample_gauges_at(Ns(t));
    })
}

/// The `vm` range-op probes at 1, 16 and 256 pages, and the `xkernel`
/// message probes at a 1 MB message's count of 4 KB fragments.
pub fn vm_and_xkernel() -> Vec<(&'static str, f64)> {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 8 << 20;
    let mut m = Machine::new(cfg);
    let dom = m.create_domain();
    let frames: Vec<_> = (0..256)
        .map(|_| m.alloc_frame().expect("probe frames fit"))
        .collect();
    let va = 0x1000_0000u64;
    let mut out = Vec::new();
    for (pages, [map, protect, unmap]) in [
        (
            1usize,
            [
                "vm.map_range.ns_per_page_1",
                "vm.protect_range.ns_per_page_1",
                "vm.unmap_range.ns_per_page_1",
            ],
        ),
        (
            16,
            [
                "vm.map_range.ns_per_page_16",
                "vm.protect_range.ns_per_page_16",
                "vm.unmap_range.ns_per_page_16",
            ],
        ),
        (
            256,
            [
                "vm.map_range.ns_per_page_256",
                "vm.protect_range.ns_per_page_256",
                "vm.unmap_range.ns_per_page_256",
            ],
        ),
    ] {
        let (mut tm, mut tp, mut tu) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..200 {
            let t0 = Instant::now();
            m.map_range(dom, va, &frames[..pages], Prot::ReadWrite)
                .expect("map probe range");
            let t1 = Instant::now();
            m.protect_range(dom, va, pages as u64, Prot::Read)
                .expect("protect probe range");
            let t2 = Instant::now();
            m.unmap_range(dom, va, pages as u64)
                .expect("unmap probe range");
            let t3 = Instant::now();
            tm.push((t1 - t0).as_nanos() as f64);
            tp.push((t2 - t1).as_nanos() as f64);
            tu.push((t3 - t2).as_nanos() as f64);
        }
        let per_page = |v: &[f64]| median(v) / pages as f64;
        out.extend([
            (map, per_page(&tm)),
            (protect, per_page(&tp)),
            (unmap, per_page(&tu)),
        ]);
    }

    const FRAGS: u64 = (1 << 20) / 4096;
    let parts: Vec<Msg> = (0..FRAGS)
        .map(|i| Msg::from_fbuf(FbufId(i), 0, 4096))
        .collect();
    let concat = time_median(100, || {
        let msg = parts.iter().fold(Msg::empty(), |acc, p| acc.concat(p));
        black_box(msg);
    });
    let whole = parts.iter().fold(Msg::empty(), |acc, p| acc.concat(p));
    let split = time_median(100, || {
        let mut rest = whole.clone();
        while !rest.is_empty() {
            let (head, tail) = rest.split(4096);
            black_box(head);
            rest = tail;
        }
    });
    out.extend([
        ("xkernel.msg.concat_ns", concat),
        ("xkernel.msg.split_ns", split),
    ]);
    out
}
