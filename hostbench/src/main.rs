//! Host-time benchmark of the `dirext` simulator.
//!
//! Usage (from the repository root, after building; `run.py` does both):
//!
//! ```text
//! hostbench --workload NAME --seed N --seconds S --trace 0|1 --dirext PATH
//!           [--commit ID] [--source DIGEST]
//! ```
//!
//! Workloads: `scale_fault`, `sweep_journal` (see
//! `NOTES.md` beside this package for why each exists and what each metric
//! should move). With `--trace 0` the last line of standard output is the
//! end-to-end result; with `--trace 1` it is the per-layer result of a
//! separate traced run. Scratch files go to `.bench_work/`, the result
//! record and spans to `.bench_out/`, both under the current directory.
//! The exit code is nonzero when any output check fails.

mod cells;
mod key;
mod micro;
mod report;
mod sim;
mod span;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Host, Outcome};
use span::Tracer;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dirext: PathBuf,
    pub work: PathBuf,
}

const WORKLOADS: [&str; 2] = ["scale_fault", "sweep_journal"];

/// The end-to-end metric names, in the order `BENCHMARK.json` lists them.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "events_per_s",
    "cell_ms_p50",
    "cell_ms_p90",
    "sweep_s",
    "peak_rss_mb",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    dirext: PathBuf,
    commit: String,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        dirext: PathBuf::new(),
        commit: "unknown".to_owned(),
        source: "unknown".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--dirext" => args.dirext = PathBuf::from(value),
            "--commit" => args.commit = value,
            "--source" => args.source = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    if !args.dirext.is_file() {
        return Err(format!("--dirext {} is not a file", args.dirext.display()));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe(args.commit.clone(), args.source.clone());
    let work = PathBuf::from(".bench_work").join(&args.workload);
    let results = PathBuf::from(".bench_out");
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work).and_then(|()| std::fs::create_dir_all(&results))
    {
        eprintln!("hostbench: cannot create scratch directories: {e}");
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dirext: args.dirext.clone(),
        work: work.clone(),
    };

    println!(
        "hostbench {} seed {} trace {} | commit {} source {} | nproc {} | cpu {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host.commit,
        host.source,
        host.nproc,
        host.cpu
    );
    let mut tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    tracer.span("bench.run", None, |tr| match args.workload.as_str() {
        "scale_fault" => sim::run(&ctx, tr, &mut out),
        _ => sweep::run(&ctx, tr, &mut out),
    });
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    if args.trace {
        out.metric("fail_frac", fail_frac, "ratio");
        let spans = results.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&spans) {
            out.fail(format!("writing {}: {e}", spans.display()));
        } else {
            out.notes
                .push(format!("spans written to {}", spans.display()));
        }
    }

    for note in &out.notes {
        println!("{}", note.trim_end());
    }
    println!("{:<40} {:>16}  unit", "metric", "value");
    for m in out.metrics.iter().filter(|m| m.name != "fail_frac") {
        println!("{:<40} {:>16.6}  {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<40} {:>16.6}  ratio ({} of {} attempted)",
        "fail_frac", fail_frac, out.failed, out.attempted
    );
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }

    let record = results.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let file = report::result_file(&out, &host, &args.workload, args.seed, args.trace);
    if let Err(e) = std::fs::write(&record, file) {
        eprintln!("hostbench: cannot write {}: {e}", record.display());
    }
    let _ = std::fs::remove_dir_all(&work);

    // The result line carries exactly the metrics BENCHMARK.json names
    // for this mode: the end-to-end ones untraced, the rest traced.
    let shown: Vec<&report::Metric> = out
        .metrics
        .iter()
        .filter(|m| END_TO_END.contains(&m.name.as_str()) != args.trace)
        .collect();
    println!("{}", report::result_line(&out, &shown));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
