//! Statistics, host facts and the result line.

use std::fmt::Write as _;

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark invocation measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted: simulated cells, plus sweep processes for the
    /// journaled workload.
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, one line each.
    pub errors: Vec<String>,
    /// Human-readable sections printed before the result line.
    pub notes: Vec<String>,
    /// Raw per-cell host times (ms) in run order, for the result file.
    pub cell_ms: Vec<f64>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.errors.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile (`q` in 0..=1) of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// 48-bit FNV-1a digest: exact as a JSON number.
pub fn digest48(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h & ((1 << 48) - 1)
}

/// Host memory high-water mark in MB: the larger of this process and its
/// waited-for children.
pub fn peak_rss_mb() -> f64 {
    let kb = maxrss_kb(RUSAGE_SELF).max(maxrss_kb(RUSAGE_CHILDREN));
    kb as f64 / 1024.0
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    words: [i64; 18],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn maxrss_kb(who: i32) -> i64 {
    let mut usage = RUsage { words: [0; 18] };
    // SAFETY: `usage` is a writable buffer of the size and alignment of
    // `struct rusage` on 64-bit Linux, and `who` is one of the two
    // selectors the call defines.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc == 0 {
        usage.words[4]
    } else {
        0
    }
}

/// Host facts every result carries.
pub struct Host {
    pub commit: String,
    pub source: String,
    pub nproc: usize,
    pub cpu: String,
}

impl Host {
    pub fn probe(commit: String, source: String) -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Host {
            commit,
            source,
            nproc,
            cpu,
        }
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json(metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome, metrics: &[&Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics_json(metrics)
    )
}

/// The result file: the result line's content plus the host record and
/// every metric measured.
pub fn result_file(out: &Outcome, host: &Host, workload: &str, seed: u64, trace: bool) -> String {
    let all: Vec<&Metric> = out.metrics.iter().collect();
    let errors: Vec<String> = out.errors.iter().map(|e| json_str(e)).collect();
    let cells: Vec<String> = out.cell_ms.iter().map(|&x| json_num(x)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"commit\": {}, \"source\": {}, \
         \"nproc\": {}, \"cpu\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"errors\": [{}], \"metrics\": {}, \"cell_ms\": [{}]}}\n",
        json_str(workload),
        json_str(&host.commit),
        json_str(&host.source),
        host.nproc,
        json_str(&host.cpu),
        out.correct(),
        out.attempted,
        out.failed,
        errors.join(", "),
        metrics_json(&all),
        cells.join(", ")
    )
}
