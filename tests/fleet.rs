//! Fault-tolerant fleet coordination: leased sharding, dead-worker
//! failover, and `assemble`'s byte-identical merge.
//!
//! The promises under test (see `experiments::fleet`):
//!
//! - N workers sharing a fleet directory claim **disjoint** cells
//!   through the fencing-token lease log, and every worker renders the
//!   same artifacts as a serial run, byte for byte.
//! - A worker that stops heartbeating (death, SIGKILL) loses its lease
//!   after `lease_ms`, and a survivor reclaims the cell with a higher
//!   fencing token.
//! - `assemble` folds worker journals into a merged journal whose
//!   replay is byte-identical to a serial sweep, and a replay-only run
//!   over an incomplete journal fails with a clear `Incomplete` error
//!   instead of quietly recomputing.

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use dirext_core::config::Consistency;
use dirext_core::ProtocolKind;
use dirext_sim::experiments::{
    assembled_path, fig2_with, journal, journal::cell_key, worker_journals, Fleet, FleetConfig,
    Journal, SweepError, SweepOpts,
};
use dirext_sim::NetworkKind;
use dirext_trace::Workload;
use dirext_workloads::{App, Scale};

fn suite() -> Vec<Workload> {
    App::ALL
        .iter()
        .map(|a| a.workload(4, Scale::Tiny))
        .collect()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dirext-fleet-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

fn worker_opts(dir: &PathBuf, id: &str, jobs: usize) -> SweepOpts {
    let cfg = FleetConfig::new(dir, id).intervals(1000, 100);
    let fleet = Fleet::new(cfg).expect("fleet join");
    SweepOpts::jobs(jobs).with_fleet(Arc::new(fleet))
}

#[test]
fn three_worker_fleet_matches_serial_byte_identical() {
    let s = suite();
    let serial = fig2_with(&s, &SweepOpts::jobs(1)).expect("serial reference");
    let dir = tmp_dir("three-workers");

    // Three workers race over the same 40 cells; each renders the full
    // figure from the union of all journals once every cell is terminal.
    let results: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = ["alpha", "beta", "gamma"]
            .into_iter()
            .map(|id| {
                let (s, dir) = (&s, &dir);
                scope.spawn(move || {
                    fig2_with(s, &worker_opts(dir, id, 2))
                        .expect("fleet worker")
                        .to_string()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    for r in &results {
        assert_eq!(
            *r,
            serial.to_string(),
            "every worker renders the serial bytes"
        );
    }

    // The lease log granted each cell to exactly one worker: the union
    // of the three journals covers the sweep with no cell computed
    // twice. (Raw claim records can exceed the cell count — a lost
    // claim race appends a void record — but computed work cannot.)
    let per_worker: Vec<usize> = worker_journals(&dir)
        .expect("worker journals")
        .iter()
        .map(|p| journal::scan(p).expect("scan").completed.len())
        .collect();
    assert_eq!(
        per_worker.iter().sum::<usize>(),
        40,
        "disjoint sharding: {per_worker:?}"
    );

    // assemble folds the three journals into one; replaying it computes
    // nothing and still renders the serial bytes.
    let workers = worker_journals(&dir).expect("worker journals");
    assert_eq!(workers.len(), 3);
    let out = assembled_path(&dir);
    let summary = journal::assemble(&workers, &out).expect("assemble");
    assert_eq!((summary.cells, summary.failed), (40, 0));
    let merged = Arc::new(Journal::resume(&out).expect("resume assembled"));
    let replay =
        fig2_with(&s, &SweepOpts::jobs(1).with_journal(merged).replay_only()).expect("replay-only");
    assert_eq!(
        replay.to_string(),
        serial.to_string(),
        "assembled replay is byte-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn expired_lease_of_dead_worker_is_reclaimed_with_higher_fence() {
    let s = suite();
    let serial = fig2_with(&s, &SweepOpts::jobs(1)).expect("serial reference");
    let dir = tmp_dir("dead-worker");
    std::fs::create_dir_all(&dir).expect("mkdir");

    // A phantom worker claimed one cell and died without releasing: its
    // lease still has ~700 ms to run when the real worker starts.
    let key = cell_key(
        "fig2",
        &s[0],
        ProtocolKind::Basic,
        Consistency::Rc,
        NetworkKind::Uniform,
        dirext_core::sharer::DirOrg::FullMap,
        "base",
        None,
    );
    let mut lease_log = std::fs::File::create(dir.join("leases.jsonl")).expect("create lease log");
    writeln!(
        lease_log,
        "{}",
        dirext_sim::experiments::fleet::LEASE_HEADER
    )
    .expect("header");
    writeln!(
        lease_log,
        "{{\"op\":\"claim\",\"key\":\"{key}\",\"worker\":\"ghost\",\"fence\":1,\
         \"deadline_ms\":{},\"ok\":false}}",
        now_ms() + 700
    )
    .expect("phantom claim");
    drop(lease_log);

    let t0 = std::time::Instant::now();
    let r = fig2_with(&s, &worker_opts(&dir, "survivor", 2)).expect("survivor completes");
    assert_eq!(r.to_string(), serial.to_string());
    assert!(
        t0.elapsed() >= Duration::from_millis(300),
        "the survivor had to outwait part of the phantom's lease"
    );

    // The survivor reclaimed the phantom's cell with a higher fence.
    let leases = std::fs::read_to_string(dir.join("leases.jsonl")).expect("lease log");
    let reclaim = leases
        .lines()
        .find(|l| {
            l.contains("\"op\":\"claim\"")
                && l.contains(&key)
                && l.contains("\"worker\":\"survivor\"")
        })
        .expect("survivor reclaimed the phantom's cell");
    assert!(
        reclaim.contains("\"fence\":2"),
        "reclaim carries a higher fencing token: {reclaim}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_only_refuses_incomplete_journals() {
    let s = suite();
    let dir = tmp_dir("incomplete");
    std::fs::create_dir_all(&dir).expect("mkdir");

    // Journal only the first app's sweep, then replay the full suite.
    let partial = &s[..1];
    let path = dir.join("worker-partial.jsonl");
    let j = Arc::new(Journal::create(&path).expect("journal"));
    fig2_with(partial, &SweepOpts::jobs(1).with_journal(j)).expect("partial sweep");

    let out = assembled_path(&dir);
    journal::assemble(&worker_journals(&dir).expect("workers"), &out).expect("assemble");
    let merged = Arc::new(Journal::resume(&out).expect("resume"));
    match fig2_with(&s, &SweepOpts::jobs(1).with_journal(merged).replay_only()) {
        Err(SweepError::Incomplete {
            driver,
            missing,
            quarantined,
        }) => {
            assert_eq!(driver, "fig2");
            assert_eq!(quarantined, 0);
            assert_eq!(missing.len(), 32, "8 protocols x 4 missing apps");
            assert!(
                missing.iter().all(|k| !k.contains("MP3D")),
                "MP3D cells are journaled"
            );
        }
        other => panic!("expected Incomplete, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_failure_reports_match_local_sweeps() {
    // A fleet folds failures back from worker journals; the report must
    // read exactly like the local sweep's, quarantined or fail-fast.
    // Fail-fast reports the first failing cell a sweep reached: the
    // local sweep starts at cell 0 (MP3D), and worker `solo` scans from
    // its hash offset past the MP3D cells, wrapping round to cell 0.
    let s = suite();
    for keep_going in [true, false] {
        let dir = tmp_dir(&format!("report-{keep_going}"));
        let mut local = SweepOpts::jobs(1).with_chaos_panic("MP3D");
        let mut fleet = worker_opts(&dir, "solo", 1).with_chaos_panic("MP3D");
        if keep_going {
            (local, fleet) = (local.keep_going(), fleet.keep_going());
        }
        let local = fig2_with(&s, &local).expect_err("MP3D cells panic");
        let fleet = fig2_with(&s, &fleet).expect_err("MP3D cells panic");
        assert_eq!(
            fleet.to_string(),
            local.to_string(),
            "keep_going={keep_going}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
