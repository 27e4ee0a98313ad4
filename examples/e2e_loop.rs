//! End-to-end throughput loop: repeatedly runs the MP3D/BASIC/RC
//! experiment cell and reports aggregate sim-cycles/sec on stderr.
//!
//! This is the workload `scripts/ab.sh` times in its same-host A/B against
//! a reference commit, and the one to attach a profiler to:
//!
//! ```text
//! cargo build --release --example e2e_loop
//! target/release/examples/e2e_loop 300
//! ```

use dirext_core::{Consistency, ProtocolKind};
use dirext_sim::experiments;
use dirext_workloads::{App, Scale};

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    let w = App::Mp3d.workload(16, Scale::Small);
    let t0 = std::time::Instant::now();
    let mut cycles = 0u64;
    for _ in 0..reps {
        let metrics =
            experiments::run_protocol(&w, ProtocolKind::Basic, Consistency::Rc).expect("MP3D run");
        cycles += metrics.exec_cycles;
    }
    let secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "{reps} reps in {secs:.3}s: {:.0} sim-cycles/sec",
        cycles as f64 / secs
    );
}
