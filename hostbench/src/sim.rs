//! The `scale_fault` workload: `dirscale` and `degrade` on Water at small
//! scale.
//!
//! Each run generates the inputs, makes one untimed warm pass through the
//! public sweep drivers with a journal (which also yields the reference
//! artifact and the reference statistics of every cell), rebuilds every
//! journaled cell from its key, then times passes of `Machine::new` +
//! `Machine::run` over those cells, checking every cell's statistics
//! against the journal's. The artifact is then rebuilt twice from the
//! completed journal: resumed, and through a single-worker fleet.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dirext_sim::experiments::{
    self, journal, DegradeParams, Fleet, FleetConfig, Journal, SweepError, SweepOpts,
    DIRSCALE_PROCS,
};
use dirext_workloads::{App, Scale};

use crate::cells::{self, Samples, Sweeps};
use crate::key::{self, Inputs};
use crate::report::{median, Outcome};
use crate::span::Tracer;
use crate::Ctx;

/// The machine size `degrade` runs on.
const DEGRADE_PROCS: usize = 256;

fn generate() -> Inputs {
    DIRSCALE_PROCS
        .into_iter()
        .map(|p| {
            let w = App::Water.workload(p, Scale::Small);
            ((w.name().to_owned(), p), w)
        })
        .collect()
}

/// Renders the workload's artifact through the public sweep drivers.
fn drivers(inputs: &Inputs, seed: u64, opts: &SweepOpts) -> Result<String, SweepError> {
    let water = |p: usize| inputs[&(App::Water.name().to_owned(), p)].clone();
    let ds = experiments::dirscale_with(App::Water.name(), water, opts)?;
    let params = DegradeParams {
        seed,
        ..DegradeParams::default()
    };
    let dg = experiments::degrade_with(App::Water.name(), &water(DEGRADE_PROCS), params, opts)?;
    Ok(format!("{ds}\n{dg}"))
}

/// Minimum cells per run, so at least ten lie beyond the 90th percentile.
const MIN_CELLS: usize = 100;
const RESUME_REPS: usize = 15;
const FLEET_REPS: usize = 9;

pub fn run(ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome) {
    let work = ctx.work.as_path();
    let (inputs, gen_s) = cells::setup(tracer, generate);

    // Warm pass, untimed: the drivers, serially, journaling every cell.
    let jpath = work.join("warm.jsonl");
    let t_warm = Instant::now();
    out.attempted += 1;
    let warm = tracer.span("experiments.drivers", None, |_| {
        let journal = Arc::new(Journal::create(&jpath).map_err(|e| e.to_string())?);
        let opts = SweepOpts::default().with_journal(journal);
        drivers(&inputs, ctx.seed, &opts).map_err(|e| e.to_string())
    });
    let warm_s = t_warm.elapsed().as_secs_f64();
    let artifact = match warm {
        Ok(text) => text,
        Err(e) => {
            out.fail(format!("warm pass: {e}"));
            return;
        }
    };
    let scan = match journal::scan(&jpath) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("warm journal: {e}"));
            return;
        }
    };
    let (cells, expected) = match key::journal_cells(&scan, &inputs) {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("warm journal: {e}"));
            return;
        }
    };

    // Timed passes: whole passes until the run has lasted `seconds` and
    // holds enough cells.
    let mut samples = Samples::default();
    let t_measure = Instant::now();
    let until = Duration::from_secs_f64(ctx.seconds);
    let passes = cells::time_passes(
        tracer,
        ctx.trace,
        &cells,
        &expected,
        &mut samples,
        out,
        |_, s| t_measure.elapsed() < until || s.cell_ms.len() < MIN_CELLS,
    );
    // Memory high-water mark of the simulation: set-up, warm pass and
    // timed passes. The journal rebuilds below only add allocator noise
    // from their worker threads.
    let peak_rss_mb = crate::report::peak_rss_mb();

    // The artifact from the completed journal: resumed, then as a fleet
    // of one whose worker journal already holds every cell.
    let mut resume_s = Vec::new();
    for _ in 0..RESUME_REPS {
        let t = Instant::now();
        let text = tracer.span("experiments.resume", None, |_| {
            let journal = Arc::new(Journal::resume(&jpath).map_err(|e| e.to_string())?);
            let opts = SweepOpts::default().with_journal(journal).replay_only();
            drivers(&inputs, ctx.seed, &opts).map_err(|e| e.to_string())
        });
        resume_s.push(t.elapsed().as_secs_f64());
        check_artifact(out, "resumed", &artifact, text);
    }
    let mut fleet_s = Vec::new();
    for rep in 0..FLEET_REPS {
        let dir = work.join(format!("fleet-{rep}"));
        let seeded = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::copy(&jpath, dir.join("worker-bench.jsonl")));
        if let Err(e) = seeded {
            out.fail(format!("fleet dir {}: {e}", dir.display()));
            continue;
        }
        let t = Instant::now();
        let text = tracer.span("experiments.fleet", None, |_| {
            let fleet = Fleet::new(FleetConfig::new(&dir, "bench")).map_err(|e| e.to_string())?;
            let opts = SweepOpts::default().with_fleet(Arc::new(fleet));
            drivers(&inputs, ctx.seed, &opts).map_err(|e| e.to_string())
        });
        fleet_s.push(t.elapsed().as_secs_f64());
        check_artifact(out, "fleet", &artifact, text);
    }

    let digest = cells::metrics_digest(tracer, &expected);
    let n_cells = expected.len() as f64;
    out.notes.push(format!(
        "{} cells x {} timed passes = {} cell samples; warm driver pass {:.2} s\n\
         pass wall times (s): untraced {:.3?} traced {:.3?}\n\
         sim.metrics_digest {digest}",
        cells.len(),
        passes.len(),
        samples.cell_ms.len(),
        warm_s,
        passes.untraced_s,
        passes.traced_s,
    ));
    out.cell_ms = samples.cell_ms.clone();
    let sweeps = Sweeps {
        setup_s: gen_s,
        sweep_s: &passes.untraced_s,
        resume_s: &resume_s,
        fleet_s: &fleet_s,
        peak_rss_mb,
    };
    cells::rebuilds(out, &sweeps);
    if !ctx.trace {
        cells::end_to_end(out, &samples, &sweeps);
        return;
    }

    out.metric("sim.metrics_digest", digest as f64, "digest");
    cells::counts(out, &expected);
    let summed_cells_s: f64 = samples.cell_ms.iter().sum::<f64>() / 1e3 / passes.len() as f64;
    out.metric(
        "experiments.runner_ms_per_cell",
        (warm_s - summed_cells_s) * 1e3 / n_cells,
        "ms",
    );
    out.metric(
        "experiments.fleet_ms_per_cell",
        (median(&fleet_s) - median(&resume_s)) * 1e3 / n_cells,
        "ms",
    );
    let ledger = cells::ledger(out, tracer, &inputs, &expected, work, &jpath, ctx.seed);
    cells::trace_report(out, tracer, &samples, gen_s, &passes);
    let run_ns_per_pass = samples.run_s * 1e9 / passes.len() as f64;
    cells::attribution(out, &ledger, &cells, &expected, run_ns_per_pass);
}

pub fn check_artifact(out: &mut Outcome, what: &str, reference: &str, got: Result<String, String>) {
    out.attempted += 1;
    match got {
        Ok(text) if text == reference => {}
        Ok(_) => out.fail(format!("{what} artifact differs from the serial pass")),
        Err(e) => out.fail(format!("{what} artifact: {e}")),
    }
}
