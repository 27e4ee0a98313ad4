//! The `sweep_journal` workload: `dirext run-all --scale small` as a user
//! runs it, fresh with a journal, resumed from that journal, and as a
//! single-worker fleet, each at `--jobs 2`.
//!
//! The runner, pool, journal and lease log live inside the `dirext`
//! process, so per-cell host time comes from replaying every journaled
//! cell in this process through `Machine::new` + `Machine::run`, which
//! also checks the journaled statistics against a direct run.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use dirext_sim::experiments::{journal, SCALING_PROCS};
use dirext_workloads::{App, Scale};

use crate::cells::{self, Samples, Sweeps};
use crate::key::{self, Inputs};
use crate::report::{median, Outcome};
use crate::span::Tracer;
use crate::Ctx;

/// Worker threads per sweep process: the host's two CPUs.
const JOBS: &str = "2";
const RESUME_REPS: usize = 15;
/// Fresh journaled sweeps per run, so `sweep_s` is a median.
const FRESH_REPS: usize = 3;
/// In-process replays of the journaled cells per run.
const REPLAY_PASSES: usize = 2;

/// The inputs `run-all --scale small` simulates: the suite at 16 nodes,
/// and MP3D at each size of the scaling sweep.
fn generate() -> Inputs {
    let mut map = Inputs::new();
    for app in App::ALL {
        map.insert((app.name().to_owned(), 16), app.workload(16, Scale::Small));
    }
    for procs in SCALING_PROCS {
        map.entry((App::Mp3d.name().to_owned(), procs))
            .or_insert_with(|| App::Mp3d.workload(procs, Scale::Small));
    }
    map
}

/// Runs `dirext` with `args`, returning its wall time and standard output.
fn dirext(
    tracer: &mut Tracer,
    bin: &Path,
    args: &[&str],
    name: &'static str,
) -> Result<(f64, String), String> {
    tracer.span(name, None, |_| {
        let t = Instant::now();
        let out = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
        let wall = t.elapsed().as_secs_f64();
        if !out.status.success() {
            return Err(format!(
                "dirext {} exited with {}: {}",
                args.join(" "),
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let text =
            String::from_utf8(out.stdout).map_err(|_| "dirext printed non-UTF-8".to_owned())?;
        Ok((wall, text))
    })
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome) {
    let work = ctx.work.as_path();
    let bin = ctx.dirext.as_path();
    let (inputs, gen_s) = cells::setup(tracer, generate);

    // Warm pass, untimed: the serial sweep whose output every other mode
    // must reproduce byte for byte.
    let base = ["run-all", "--scale", "small"];
    out.attempted += 1;
    let reference = match dirext(
        tracer,
        bin,
        &[&base[..], &["--jobs", "1"]].concat(),
        "cli.serial",
    ) {
        Ok((_, text)) => text,
        Err(e) => {
            out.fail(e);
            return;
        }
    };
    let check =
        |out: &mut Outcome, what: &str, got: Result<(f64, String), String>| -> Option<f64> {
            out.attempted += 1;
            match got {
                Ok((wall, text)) if text == reference => Some(wall),
                Ok(_) => {
                    out.fail(format!("{what} output differs from the serial sweep"));
                    None
                }
                Err(e) => {
                    out.fail(e);
                    None
                }
            }
        };

    // Timed: fresh journaled sweeps, resumes of the first one's journal,
    // then the fleet of one; whole rounds until `seconds` have passed.
    let mut sweep_s = Vec::new();
    let mut resume_s = Vec::new();
    let mut fleet_s = Vec::new();
    let t_measure = Instant::now();
    let mut round = 0;
    while round == 0 || t_measure.elapsed() < Duration::from_secs_f64(ctx.seconds) {
        for rep in 0..FRESH_REPS {
            let j = path_arg(&work.join(format!("sweep-{round}-{rep}.jsonl")));
            let args = [&base[..], &["--jobs", JOBS, "--journal", &j]].concat();
            let fresh = dirext(tracer, bin, &args, "cli.fresh");
            sweep_s.extend(check(out, "journaled", fresh));
        }
        let j = path_arg(&work.join(format!("sweep-{round}-0.jsonl")));
        for _ in 0..RESUME_REPS {
            let args = [&base[..], &["--jobs", JOBS, "--journal", &j, "--resume"]].concat();
            let resumed = dirext(tracer, bin, &args, "cli.resume");
            resume_s.extend(check(out, "resumed", resumed));
        }
        let f = path_arg(&work.join(format!("fleet-{round}")));
        let args = [&base[..], &["--jobs", JOBS, "--fleet", &f]].concat();
        let fleet_run = dirext(tracer, bin, &args, "cli.fleet");
        fleet_s.extend(check(out, "fleet", fleet_run));
        round += 1;
    }
    if sweep_s.is_empty() || resume_s.is_empty() || fleet_s.is_empty() {
        return;
    }

    // Replay every journaled cell of the first fresh sweep in-process.
    let jpath = work.join("sweep-0-0.jsonl");
    let scan = match journal::scan(&jpath) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("journal scan: {e}"));
            return;
        }
    };
    let (cells, expected) = match key::journal_cells(&scan, &inputs) {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("journal: {e}"));
            return;
        }
    };
    let mut samples = Samples::default();
    let passes = cells::time_passes(
        tracer,
        ctx.trace,
        &cells,
        &expected,
        &mut samples,
        out,
        |done, _| done < REPLAY_PASSES,
    );

    let digest = cells::metrics_digest(tracer, &expected);
    out.notes.push(format!(
        "{} journaled cells replayed x {}; {} fresh, {} resumed, {} fleet sweeps\n\
         fleet/journal sweep-time ratio {:.2}\n\
         sim.metrics_digest {digest}",
        expected.len(),
        passes.len(),
        sweep_s.len(),
        resume_s.len(),
        fleet_s.len(),
        median(&fleet_s) / median(&sweep_s),
    ));
    out.cell_ms = samples.cell_ms.clone();
    let sweeps = Sweeps {
        setup_s: gen_s,
        sweep_s: &sweep_s,
        resume_s: &resume_s,
        fleet_s: &fleet_s,
        peak_rss_mb: crate::report::peak_rss_mb(),
    };
    cells::rebuilds(out, &sweeps);
    if !ctx.trace {
        cells::end_to_end(out, &samples, &sweeps);
        return;
    }

    out.metric("sim.metrics_digest", digest as f64, "digest");
    cells::counts(out, &expected);
    let cells_n = expected.len() as f64;
    let cell_s: f64 = samples.cell_ms.iter().sum::<f64>() / 1e3 / passes.len() as f64;
    let workers: f64 = JOBS.parse().expect("JOBS is a number");
    out.metric(
        "experiments.runner_ms_per_cell",
        (median(&sweep_s) * workers - cell_s) * 1e3 / cells_n,
        "ms",
    );
    out.metric(
        "experiments.fleet_ms_per_cell",
        (median(&fleet_s) - median(&sweep_s)) * 1e3 / cells_n,
        "ms",
    );
    let ledger = cells::ledger(out, tracer, &inputs, &expected, work, &jpath, ctx.seed);
    cells::trace_report(out, tracer, &samples, gen_s, &passes);
    let run_ns_per_pass = samples.run_s * 1e9 / passes.len() as f64;
    cells::attribution(out, &ledger, &cells, &expected, run_ns_per_pass);
}
