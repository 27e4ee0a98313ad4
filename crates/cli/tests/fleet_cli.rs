//! End-to-end tests of fleet mode and `assemble` — the multi-process
//! half of the fault-tolerance story, driven through the real binary so
//! process death (kill -9) is tested for real.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dirext"))
}

fn dirext(args: &[&str]) -> Output {
    bin().args(args).output().expect("failed to launch dirext")
}

fn stdout_ok(args: &[&str]) -> String {
    let out = dirext(args);
    assert!(
        out.status.success(),
        "dirext {:?} failed: {}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dirext-fleet-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

/// Polls `cond` every 50 ms for up to `secs` seconds.
fn wait_for(secs: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

// ---------------------------------------------------------------------
// Fleet mode: kill -9 failover and assemble
// ---------------------------------------------------------------------

#[test]
fn fleet_survives_kill9_and_assemble_matches_serial() {
    let serial = stdout_ok(&["fig2", "--scale", "tiny", "--jobs", "1"]);
    let dir = tmp("kill9");
    let dir_s = dir.to_str().expect("utf8 dir");

    // A victim worker that claims a cell, then stalls 30 s inside it (the
    // DIREXT_FLEET_SLOW_MS hook) — plenty of window to SIGKILL it while
    // it holds a lease.
    let mut victim: Child = bin()
        .args([
            "fig2",
            "--scale",
            "tiny",
            "--fleet",
            dir_s,
            "--worker-id",
            "victim",
            "--lease-ms",
            "600",
            "--heartbeat-ms",
            "100",
        ])
        .env("DIREXT_FLEET_SLOW_MS", "30000")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim");
    let claimed = wait_for(10, || {
        std::fs::read_to_string(dir.join("leases.jsonl"))
            .is_ok_and(|t| t.contains("\"op\":\"claim\"") && t.contains("\"worker\":\"victim\""))
    });
    assert!(claimed, "victim must claim a cell before the kill");
    victim.kill().expect("kill -9 victim"); // SIGKILL: no cleanup, no release
    victim.wait().expect("reap victim");

    // Two survivors finish the sweep: the victim's cell comes back via
    // lease expiry (600 ms after its last heartbeat) with a higher fence.
    let survivors: Vec<Child> = ["s1", "s2"]
        .iter()
        .map(|id| {
            bin()
                .args([
                    "fig2",
                    "--scale",
                    "tiny",
                    "--fleet",
                    dir_s,
                    "--worker-id",
                    id,
                    "--lease-ms",
                    "600",
                    "--heartbeat-ms",
                    "100",
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn survivor")
        })
        .collect();
    for s in survivors {
        let out = s.wait_with_output().expect("survivor output");
        assert!(out.status.success(), "survivor exits 0");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            serial,
            "survivor renders the serial bytes"
        );
    }

    // The lease log shows the failover: a claim on the victim's cell with
    // a fence above the victim's.
    let leases = std::fs::read_to_string(dir.join("leases.jsonl")).expect("lease log");
    let victim_key = leases
        .lines()
        .find(|l| l.contains("\"op\":\"claim\"") && l.contains("\"worker\":\"victim\""))
        .and_then(|l| l.split("\"key\":\"").nth(1))
        .and_then(|r| r.split('"').next())
        .expect("victim's claimed key")
        .to_owned();
    assert!(
        leases.lines().any(|l| {
            l.contains("\"op\":\"claim\"")
                && l.contains(&victim_key)
                && !l.contains("\"worker\":\"victim\"")
                && !l.contains("\"fence\":1,")
        }),
        "a survivor reclaimed {victim_key} with a higher fence"
    );

    // assemble folds the worker journals and replays byte-identically.
    let assembled = stdout_ok(&["assemble", "fig2", "--scale", "tiny", "--fleet", dir_s]);
    assert_eq!(
        assembled, serial,
        "assemble output is byte-identical to the serial run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn assemble_refuses_incomplete_journals_unless_keep_going() {
    let dir = tmp("incomplete");
    let dir_s = dir.to_str().expect("utf8 dir");
    // One worker sweeps only Water: 8 of the 40 fig2 cells.
    let partial = dirext(&[
        "fig2",
        "--scale",
        "tiny",
        "--app",
        "water",
        "--fleet",
        dir_s,
        "--worker-id",
        "w0",
    ]);
    assert!(partial.status.success());

    let refused = dirext(&["assemble", "fig2", "--scale", "tiny", "--fleet", dir_s]);
    assert!(!refused.status.success(), "incomplete journal must refuse");
    assert_eq!(refused.status.code(), Some(1));
    let err = String::from_utf8_lossy(&refused.stderr);
    assert!(err.contains("cell(s) missing"), "names the gap: {err}");
    assert!(
        err.contains("--keep-going"),
        "points at the escape hatch: {err}"
    );

    // Restricted to the swept app, the same journal is complete.
    let water = stdout_ok(&[
        "assemble", "fig2", "--scale", "tiny", "--app", "water", "--fleet", dir_s,
    ]);
    let serial_water = stdout_ok(&["fig2", "--scale", "tiny", "--app", "water", "--jobs", "1"]);
    assert_eq!(water, serial_water);

    // --keep-going computes the 32 gaps locally instead of refusing.
    let kept = dirext(&[
        "assemble",
        "fig2",
        "--scale",
        "tiny",
        "--fleet",
        dir_s,
        "--keep-going",
    ]);
    assert!(
        kept.status.success(),
        "{}",
        String::from_utf8_lossy(&kept.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&kept.stdout),
        stdout_ok(&["fig2", "--scale", "tiny", "--jobs", "1"])
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_flag_validation_is_actionable_at_parse_time() {
    let dir = tmp("validation");
    let dir_s = dir.to_str().expect("utf8 dir");
    for (args, needle) in [
        (
            vec!["fig2", "--fleet", dir_s, "--lease-ms", "50"],
            "outside [200, 600000]",
        ),
        (
            vec![
                "fig2",
                "--fleet",
                dir_s,
                "--heartbeat-ms",
                "10",
                "--lease-ms",
                "500",
            ],
            "below the 20 ms minimum",
        ),
        (
            vec![
                "fig2",
                "--fleet",
                dir_s,
                "--lease-ms",
                "600",
                "--heartbeat-ms",
                "400",
            ],
            "at least 3x per lifetime",
        ),
        (
            vec!["fig2", "--fleet", dir_s, "--worker-id", "bad/id"],
            "path separators",
        ),
        (vec!["fig2", "--lease-ms", "500"], "add --fleet DIR"),
        (
            vec!["fig2", "--fleet", dir_s, "--journal", "j.jsonl"],
            "--journal conflicts with --fleet",
        ),
    ] {
        let out = dirext(&args);
        assert!(!out.status.success(), "{args:?} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(needle),
            "{args:?}: expected {needle:?} in: {err}"
        );
    }
    // Parse-time means the fleet directory was never touched.
    assert!(
        !dir.exists(),
        "rejected flags must not create {}",
        dir.display()
    );
}

#[test]
fn pending_journal_write_error_fails_the_exit_code() {
    // "early": the error is pending when the sweep starts; run_cells
    // surfaces it as a journal failure.
    let j1 = tmp("chaos-early.jsonl");
    let early = bin()
        .args(["fig2", "--scale", "tiny", "--app", "water"])
        .arg("--journal")
        .arg(&j1)
        .env("DIREXT_CHAOS_JOURNAL_ERROR", "early")
        .output()
        .expect("run early");
    assert_eq!(early.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&early.stderr).contains("journal"),
        "early write error surfaces"
    );

    // "late": the sweep itself succeeds, but a write error is pending at
    // exit — the run must still fail rather than hand --resume a journal
    // that silently lost cells.
    let j2 = tmp("chaos-late.jsonl");
    let late = bin()
        .args(["fig2", "--scale", "tiny", "--app", "water"])
        .arg("--journal")
        .arg(&j2)
        .env("DIREXT_CHAOS_JOURNAL_ERROR", "late")
        .output()
        .expect("run late");
    assert_eq!(
        late.status.code(),
        Some(1),
        "clean sweep + pending write error = exit 1"
    );
    let err = String::from_utf8_lossy(&late.stderr);
    assert!(err.contains("journal write failure"), "{err}");
    assert!(err.contains("do not trust this journal"), "{err}");

    let _ = std::fs::remove_file(&j1);
    let _ = std::fs::remove_file(&j2);
}
