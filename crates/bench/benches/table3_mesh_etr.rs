//! Table 3 — execution-time ratios vs BASIC on wormhole meshes of 64-, 32-
//! and 16-bit links (the network-contention experiment of Section 5.3).

use criterion::{criterion_group, criterion_main, Criterion};
use dirext_bench::{suite, workload};
use dirext_core::sharer::DirOrg;
use dirext_core::{Consistency, ProtocolKind};
use dirext_sim::{experiments, NetworkKind};
use dirext_workloads::App;

fn bench(c: &mut Criterion) {
    let table = experiments::table3(&suite()).expect("table3 sweep");
    eprintln!("\n{table}\n");
    for row in &table.rows {
        let (pcw, pm) = row.degradation();
        eprintln!(
            "  {:9} degradation 64b -> 16b: P+CW {pcw:+.2}, P+M {pm:+.2}",
            row.app
        );
    }

    let mut group = c.benchmark_group("table3_mesh_etr");
    group.sample_size(10);
    let w = workload(App::Mp3d);
    for bits in [64u32, 16] {
        group.bench_function(format!("MP3D/P+CW/mesh{bits}"), |b| {
            b.iter(|| {
                experiments::run_protocol_full(
                    &w,
                    ProtocolKind::PCw,
                    Consistency::Rc,
                    NetworkKind::Mesh { link_bits: bits },
                    DirOrg::FullMap,
                    None,
                    None,
                    None,
                )
                .expect("run")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
