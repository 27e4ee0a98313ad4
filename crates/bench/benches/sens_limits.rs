//! Section 5.4 — sensitivity to buffer depth (FLWB4/SLWB4) and to a
//! limited 16-KB second-level cache.

use criterion::{criterion_group, criterion_main, Criterion};
use dirext_bench::{suite, workload};
use dirext_core::sharer::DirOrg;
use dirext_core::{Consistency, ProtocolKind};
use dirext_memsys::Timing;
use dirext_sim::experiments::{self, sens::Constraint};
use dirext_sim::NetworkKind;
use dirext_workloads::App;

fn bench(c: &mut Criterion) {
    for constraint in [Constraint::SmallBuffers, Constraint::SmallSlc] {
        let s = experiments::sensitivity(&suite(), constraint).expect("sensitivity sweep");
        eprintln!("\n{s}");
    }
    eprintln!();

    let mut group = c.benchmark_group("sens_limits");
    group.sample_size(10);
    let w = workload(App::Lu);
    group.bench_function("LU/P/slc16k", |b| {
        b.iter(|| {
            experiments::run_protocol_full(
                &w,
                ProtocolKind::P,
                Consistency::Rc,
                NetworkKind::Uniform,
                DirOrg::FullMap,
                Some(Timing::paper_default().with_limited_slc()),
                None,
                None,
            )
            .expect("run")
        })
    });
    group.bench_function("LU/BASIC/buffers4", |b| {
        b.iter(|| {
            experiments::run_protocol_full(
                &w,
                ProtocolKind::Basic,
                Consistency::Rc,
                NetworkKind::Uniform,
                DirOrg::FullMap,
                Some(Timing::paper_default().with_small_buffers()),
                None,
                None,
            )
            .expect("run")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
