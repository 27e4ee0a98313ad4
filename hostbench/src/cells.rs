//! Timing of single simulated configurations ("cells") and the metrics
//! every workload derives from them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use dirext_sim::core::DirOrg;
use dirext_sim::stats::Metrics;
use dirext_sim::trace::Workload;
use dirext_sim::{Machine, MachineConfig, NetworkKind};

use crate::key::{self, Cell, Inputs};
use crate::micro;
use crate::report::{digest48, median, quantile, Outcome};
use crate::span::Tracer;

/// Set-up is timed in batches of back-to-back generations, each batch
/// lasting at least `SETUP_BATCH_S`, so no sample is a sub-millisecond
/// reading. At least `SETUP_MIN_BATCHES` batches run, and until
/// `SETUP_MIN_S` of generation has passed.
const SETUP_BATCH_S: f64 = 0.05;
const SETUP_MIN_BATCHES: usize = 9;
const SETUP_MIN_S: f64 = 1.0;

/// Generates the inputs repeatedly, keeping the first copy; returns it
/// with the median over batches of the mean seconds one generation took.
pub fn setup<T>(tracer: &mut Tracer, mut generate: impl FnMut() -> T) -> (T, f64) {
    let mut batches = Vec::new();
    let mut total_s = 0.0;
    let mut first = None;
    while batches.len() < SETUP_MIN_BATCHES || total_s < SETUP_MIN_S {
        let (mut reps, mut batch_s) = (0, 0.0);
        while reps == 0 || batch_s < SETUP_BATCH_S {
            let t = Instant::now();
            let inputs = tracer.span("workloads.generate", None, |_| generate());
            batch_s += t.elapsed().as_secs_f64();
            reps += 1;
            first.get_or_insert(inputs);
        }
        total_s += batch_s;
        batches.push(batch_s / reps as f64);
    }
    (first.expect("set-up ran at least once"), median(&batches))
}

/// Per-cell host times of the measured passes.
#[derive(Default)]
pub struct Samples {
    /// `Machine::new` plus `Machine::run`, per cell, in ms.
    pub cell_ms: Vec<f64>,
    /// `Machine::new` alone, per cell, in ms.
    pub new_ms: Vec<f64>,
    /// Summed `Machine::run` time, in s.
    pub run_s: f64,
    /// Summed processor trace events of the cells timed.
    pub events: u64,
    /// Summed simulated cycles of the cells timed.
    pub cycles: u64,
    /// The same sums over traced passes only (per-layer numbers).
    pub traced_run_s: f64,
    pub traced_events: u64,
}

/// Builds and runs one machine, timing each half. The configuration is
/// built before the clock starts. A simulator error or a panic is the
/// cell's failure.
fn time_cell(
    tracer: &mut Tracer,
    cell: usize,
    cfg: MachineConfig,
    workload: &Workload,
    samples: &mut Samples,
) -> Result<Metrics, String> {
    let traced = tracer.enabled();
    tracer.span("bench.cell", Some(cell), |tr| {
        let t0 = Instant::now();
        let depth = tr.depth();
        let simulate = AssertUnwindSafe(|| {
            let machine = tr.span("sim.new", Some(cell), |_| Machine::new(cfg));
            let t1 = Instant::now();
            let result = tr.span("sim.run", Some(cell), |_| machine.run(workload));
            (t1, result.map_err(|e| e.to_string()))
        });
        let (t1, result) = catch_unwind(simulate).unwrap_or_else(|_| {
            tr.close_to(depth);
            (Instant::now(), Err("the simulator panicked".to_owned()))
        });
        let t2 = Instant::now();
        let run_s = (t2 - t1).as_secs_f64();
        let events = workload.total_events() as u64;
        samples.cell_ms.push((t2 - t0).as_secs_f64() * 1e3);
        samples.new_ms.push((t1 - t0).as_secs_f64() * 1e3);
        samples.run_s += run_s;
        samples.events += events;
        if traced {
            samples.traced_run_s += run_s;
            samples.traced_events += events;
        }
        if let Ok(m) = &result {
            samples.cycles += m.exec_cycles;
        }
        result
    })
}

/// Wall times of the timed passes over a workload's cells.
#[derive(Default)]
pub struct Passes {
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
}

impl Passes {
    pub fn len(&self) -> usize {
        self.untraced_s.len() + self.traced_s.len()
    }
}

/// Times whole passes over `cells`, checking every cell's statistics
/// against `expected`, while `more(passes so far, samples)` holds. A
/// traced run makes at least two passes and alternates untraced and
/// traced ones, so it can report the tracing overhead.
pub fn time_passes(
    tracer: &mut Tracer,
    trace: bool,
    cells: &[Cell],
    expected: &[Metrics],
    samples: &mut Samples,
    out: &mut Outcome,
    mut more: impl FnMut(usize, &Samples) -> bool,
) -> Passes {
    let mut passes = Passes::default();
    let min_passes = if trace { 2 } else { 1 };
    while passes.len() < min_passes || more(passes.len(), samples) {
        let traced = trace && passes.len() % 2 == 1;
        tracer.set_enabled(traced);
        let t = Instant::now();
        tracer.span("bench.pass", None, |tr| {
            for (i, (c, want)) in cells.iter().zip(expected).enumerate() {
                out.attempted += 1;
                match time_cell(tr, i, c.cfg.clone(), c.workload, samples) {
                    Ok(m) if m == *want => {}
                    Ok(_) => out.fail(format!("{}: statistics differ from the journal's", c.key)),
                    Err(e) => out.fail(format!("{}: {e}", c.key)),
                }
            }
        });
        let wall = t.elapsed().as_secs_f64();
        if traced {
            passes.traced_s.push(wall);
        } else {
            passes.untraced_s.push(wall);
        }
    }
    tracer.set_enabled(trace);
    passes
}

/// Digest of the simulated statistics of every cell, in cell order.
pub fn metrics_digest(tracer: &mut Tracer, metrics: &[Metrics]) -> u64 {
    tracer.span("stats.digest", None, |_| {
        let text: String = metrics.iter().map(|m| format!("{m:?}\n")).collect();
        digest48(&text)
    })
}

/// Host-time samples of the sweep-level measurements.
pub struct Sweeps<'a> {
    pub setup_s: f64,
    pub sweep_s: &'a [f64],
    pub resume_s: &'a [f64],
    pub fleet_s: &'a [f64],
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(out: &mut Outcome, samples: &Samples, sweeps: &Sweeps) {
    out.metric("setup_s", sweeps.setup_s, "s");
    out.metric(
        "events_per_s",
        samples.events as f64 / samples.run_s,
        "events/s",
    );
    out.metric("cell_ms_p50", quantile(&samples.cell_ms, 0.5), "ms");
    out.metric("cell_ms_p90", quantile(&samples.cell_ms, 0.9), "ms");
    out.metric("sweep_s", median(sweeps.sweep_s), "s");
    out.metric("peak_rss_mb", sweeps.peak_rss_mb, "MB");
}

/// Rebuild times from the completed journal. Reported beside the
/// end-to-end metrics but not gated: on this kind of host their
/// run-to-run spread exceeds any usable bound.
pub fn rebuilds(out: &mut Outcome, sweeps: &Sweeps) {
    out.metric("experiments.resume_s", median(sweeps.resume_s), "s");
    out.metric("experiments.fleet_s", median(sweeps.fleet_s), "s");
}

/// Simulated counts of one pass, summed over its cells.
pub fn counts(out: &mut Outcome, metrics: &[Metrics]) {
    let sum = |f: fn(&Metrics) -> u64| metrics.iter().map(f).sum::<u64>() as f64;
    out.metric("sim.exec_cycles", sum(|m| m.exec_cycles), "cycles");
    out.metric("sim.node_crashes", sum(|m| m.node_crashes), "count");
    out.metric(
        "sim.stale_epoch_drops",
        sum(|m| m.stale_epoch_drops),
        "count",
    );
    out.metric("sim.dir_purge_sweeps", sum(|m| m.dir_purge_sweeps), "count");
    let refs = sum(|m| m.shared_refs());
    out.metric(
        "memsys.flc_hit_ratio",
        sum(|m| m.flc_hits) / refs.max(1.0),
        "ratio",
    );
    out.metric("network.msgs", sum(|m| m.net_msgs), "count");
    out.metric("network.bytes", sum(|m| m.net_bytes), "bytes");
    out.metric("core.invals_sent", sum(|m| m.invals_sent), "count");
    out.metric("core.dir_broadcasts", sum(|m| m.dir_broadcasts), "count");
    out.metric("core.dir_overflows", sum(|m| m.dir_overflows), "count");
    out.metric("core.nacks_sent", sum(|m| m.nacks_sent), "count");
    let issued = sum(|m| m.prefetches_issued);
    let useful = sum(|m| m.prefetches_useful);
    out.metric(
        "core.prefetch_useful_ratio",
        useful / issued.max(1.0),
        "ratio",
    );
}

/// The per-layer ns/op ledger, measured by the micro-drivers on this
/// workload's inputs and traffic mix.
pub struct Ledger {
    pub flc_ns: f64,
    pub slc_ns: f64,
    pub send_ns: Vec<(&'static str, f64)>,
    pub dir_ns: Vec<(String, f64)>,
}

impl Ledger {
    pub fn send(&self, net: &str) -> Option<f64> {
        self.send_ns
            .iter()
            .find(|(n, _)| *n == net)
            .map(|&(_, v)| v)
    }

    pub fn dir(&self, org: &str) -> Option<f64> {
        self.dir_ns.iter().find(|(n, _)| n == org).map(|&(_, v)| v)
    }
}

/// Runs every micro-driver on this workload's inputs and the traffic of
/// its cells, and records its metric.
pub fn ledger(
    out: &mut Outcome,
    tracer: &mut Tracer,
    inputs: &Inputs,
    metrics: &[Metrics],
    work: &Path,
    journal: &Path,
    seed: u64,
) -> Ledger {
    let inputs = key::sorted(inputs);
    let mix = micro::queue_mix(metrics);
    let mut derived = format!(
        "micro-driver traffic derived from the cells: {:.3} live events per node, \
         delay mix (weight, cycles) {:?}\n",
        mix.per_node, mix.delays
    );
    for (label, nodes) in [("n16", 16), ("n1024", 1024)] {
        let ns = micro::queue_ns_per_op(tracer, &mix, mix.depth(nodes), seed);
        out.metric(format!("kernel.queue_ns_per_op.{label}"), ns, "ns");
    }
    let (flc_ns, slc_ns) = micro::memsys_ns(tracer, &inputs);
    out.metric("memsys.flc_ns_per_access", flc_ns, "ns");
    out.metric("memsys.slc_ns_per_op", slc_ns, "ns");
    let traffic = micro::traffic(metrics);
    derived.push_str(&format!(
        "  network: data share {:.3}, {:.5} messages per node-cycle\n",
        traffic.data_share, traffic.per_node_rate
    ));
    let mut send_ns = Vec::new();
    for (name, nodes) in micro::NETWORKS {
        let ns = micro::network_send_ns(tracer, name, nodes, &traffic, seed);
        out.metric(format!("network.send_ns.{name}"), ns, "ns");
        send_ns.push((name, ns));
    }
    let mut dir_ns = Vec::new();
    for org in DirOrg::ALL {
        let name = org.cli_name();
        let Some(w) = micro::dir_input(org, &inputs) else {
            out.fail(format!("no input supports directory organization {name}"));
            continue;
        };
        derived.push_str(&format!(
            "  directory {name}: {}@{} references\n",
            w.name(),
            w.procs()
        ));
        match micro::dir_replay(tracer, org, w) {
            Ok(r) => {
                out.metric(format!("core.dir_ns_per_msg.{name}"), r.ns_per_msg, "ns");
                let (add, iter, may) = micro::sharer_ns(tracer, org, w.procs(), &r.sharers, seed);
                out.metric(format!("core.sharer_add_ns.{name}"), add, "ns");
                out.metric(format!("core.sharer_iter_ns.{name}"), iter, "ns");
                out.metric(format!("core.sharer_may_contain_ns.{name}"), may, "ns");
                dir_ns.push((name, r.ns_per_msg));
            }
            Err(e) => out.fail(format!("directory driver: {e}")),
        }
    }
    out.notes.push(derived);
    match micro::journal_append_us(tracer, work, &metrics[0]) {
        Ok(us) => out.metric("experiments.journal_append_us", us, "us"),
        Err(e) => out.fail(format!("journal append: {e}")),
    }
    match micro::journal_load_ms(tracer, journal) {
        Ok(ms) => out.metric("experiments.journal_load_ms", ms, "ms"),
        Err(e) => out.fail(format!("journal load: {e}")),
    }
    Ledger {
        flc_ns,
        slc_ns,
        send_ns,
        dir_ns,
    }
}

/// Self time per layer, the tracing overhead, and the simulator-layer
/// numbers every traced run reports.
pub fn trace_report(
    out: &mut Outcome,
    tracer: &Tracer,
    samples: &Samples,
    gen_s: f64,
    passes: &Passes,
) {
    out.metric("workloads.gen_ms", gen_s * 1e3, "ms");
    out.metric("sim.new_ms", median(&samples.new_ms), "ms");
    out.metric(
        "sim.run_ns_per_event",
        samples.traced_run_s * 1e9 / samples.traced_events.max(1) as f64,
        "ns",
    );
    out.metric(
        "sim.sim_cycles_per_s",
        samples.cycles as f64 / samples.run_s,
        "cycles/s",
    );
    out.metric("sim.cell_samples", samples.cell_ms.len() as f64, "count");
    let untraced = median(&passes.untraced_s);
    let overhead_pct = (median(&passes.traced_s) - untraced) / untraced * 100.0;
    out.metric("bench.trace_overhead_pct", overhead_pct, "%");
    let layers = tracer.self_ns_by_layer();
    let total: u64 = layers.values().sum();
    let mut text = format!(
        "self time per layer ({} spans; tracing overhead {overhead_pct:+.2}% of an untraced pass):\n",
        tracer.len(),
    );
    for (layer, ns) in &layers {
        text.push_str(&format!(
            "  {layer:<12} {:>10.1} ms  {:>5.1}%\n",
            *ns as f64 / 1e6,
            *ns as f64 * 100.0 / total.max(1) as f64
        ));
    }
    out.notes.push(text);
}

/// What `Machine::run` time the ledger explains: each layer's ns/op times
/// the op count the simulator reports in `Metrics`, summed over cells.
pub fn attribution(
    out: &mut Outcome,
    ledger: &Ledger,
    cells: &[Cell],
    metrics: &[Metrics],
    run_ns_per_pass: f64,
) {
    let (mut flc, mut slc, mut net, mut dir) = (0.0, 0.0, 0.0, 0.0);
    for (c, m) in cells.iter().zip(metrics) {
        // Every FLC hit, read miss and write-through probes the FLC; read
        // misses and writes reach the SLC.
        let slc_ops = (m.read_miss_count + m.shared_writes) as f64;
        flc += (m.flc_hits as f64 + slc_ops) * ledger.flc_ns;
        slc += slc_ops * ledger.slc_ns;
        net += m.net_msgs as f64 * ledger.send(net_label(c.network)).unwrap_or(0.0);
        // Requests the homes served plus the acknowledgments their
        // invalidations drew.
        let dir_msgs =
            m.read_miss_count + m.ownership_reqs + m.update_reqs + m.writebacks + 2 * m.invals_sent;
        dir += dir_msgs as f64 * ledger.dir(&c.dir.cli_name()).unwrap_or(0.0);
    }
    let explained = flc + slc + net + dir;
    let residue = run_ns_per_pass - explained;
    let pct = |x: f64| x * 100.0 / run_ns_per_pass;
    out.metric("bench.attribution_residue_pct", pct(residue), "%");
    out.notes.push(format!(
        "attribution of Machine::run time per pass ({:.1} ms):\n\
         \x20 memsys FLC  (FLC probes x flc ns)         {:>9.1} ms {:>6.1}%\n\
         \x20 memsys SLC  (read misses+writes x slc ns) {:>9.1} ms {:>6.1}%\n\
         \x20 network     (msgs x send ns)              {:>9.1} ms {:>6.1}%\n\
         \x20 core dir    (home msgs x dir ns)          {:>9.1} ms {:>6.1}%\n\
         \x20 residue     (unexplained)                 {:>9.1} ms {:>6.1}%\n\
         \x20 left out of the sum, carried by the residue: event-queue operations per event,\n\
         \x20 bus and buffer modelling, and dispatch, whose op counts Metrics does not expose.\n",
        run_ns_per_pass / 1e6,
        flc / 1e6,
        pct(flc),
        slc / 1e6,
        pct(slc),
        net / 1e6,
        pct(net),
        dir / 1e6,
        pct(dir),
        residue / 1e6,
        pct(residue),
    ));
}

/// The ledger's name for a cell's interconnect.
fn net_label(n: NetworkKind) -> &'static str {
    match n {
        NetworkKind::Uniform => "uniform",
        NetworkKind::Mesh { link_bits: 64 } => "mesh64",
        NetworkKind::Mesh { link_bits: 32 } => "mesh32",
        NetworkKind::Mesh { .. } => "mesh16",
        NetworkKind::HierMesh { .. } => "hmesh64",
        NetworkKind::Ring { .. } => "ring32",
    }
}
