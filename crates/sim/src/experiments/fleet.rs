//! Multi-process sweep fleet: journal-leased sharding with dead-worker
//! failover.
//!
//! N `dirext <sweep> --fleet DIR` processes sharing a filesystem split
//! one sweep's cells between them with no coordinator process. All
//! coordination happens through two kinds of append-only files in `DIR`:
//!
//! * **`leases.jsonl`** — the shared lease log. Every worker appends
//!   `claim` / `renew` / `release` / `done` records (see `LeaseLine`)
//!   through an `O_APPEND` handle, so the file is a total order of
//!   whole-line events that every worker replays identically.
//! * **`worker-<id>.jsonl`** — one standard sweep
//!   [`Journal`] per worker, holding the cells
//!   that worker computed. `dirext assemble` (or any surviving worker at
//!   the end of the sweep) folds these into the full result set.
//!
//! A fleet is not a second scheduler: [`run_cells`](super::run_cells)
//! runs the same worker loop as a local sweep, with `Fleet::claim` as its
//! claim source, the `Fleet::heartbeat` thread beside the workers, and
//! `Fleet::outcomes` folding every worker's journal into the per-cell
//! outcomes afterwards.
//!
//! # Lease lifecycle
//!
//! A worker that wants a cell reads the lease log, and may claim the
//! cell only if it observed the cell **free**: never claimed, released,
//! or expired (`deadline_ms` in the past — wall-clock, so workers on one
//! filesystem share one clock). It appends a `claim` carrying a
//! **fencing token** one greater than the highest fence it observed for
//! that key, then re-reads the log: replay resolves races by file order
//! (a claim takes the lease only if its fence exceeds the incumbent's),
//! so exactly one of two racing claimants sees itself as the holder and
//! the loser walks away. While the cell runs, a heartbeat thread appends
//! `renew` records pushing the deadline forward; when the cell finishes,
//! a terminal `done {ok}` record ends the lease.
//!
//! # Dead-worker failover
//!
//! A worker that dies (SIGKILL, OOM, power loss) simply stops renewing.
//! Once its deadline passes, any survivor claims the cell with a higher
//! fence and re-runs it. If the "dead" worker was merely paused and
//! completes anyway, its stale completion is recorded under the *old*
//! fence — [`journal::assemble`] and the
//! in-process result fold both resolve duplicates last-wins **by
//! fence**, so the reclaimer's result is authoritative. (The simulator
//! is deterministic, so both records carry identical metrics anyway;
//! fencing makes the merge safe even without that property.)
//!
//! # Degraded modes
//!
//! Fail-fast (no `--keep-going`): the first `done {ok: false}` any
//! worker observes stops the whole fleet from claiming further cells.
//! With `--keep-going`, failed cells are terminal and the survivors
//! finish everything else; every worker then reports the same
//! quarantine, worded as a local sweep words it. SIGINT drains exactly
//! like a single-process sweep: claimed cells finish (their leases are
//! renewed meanwhile), nothing new is claimed, and a later run resumes
//! from the journals.
//!
//! Test hook: `DIREXT_FLEET_SLOW_MS` sleeps that many milliseconds after
//! each claim before simulating, widening the kill window for the CI
//! chaos job (same spirit as `DIREXT_CHAOS_PANIC`).

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use dirext_stats::Metrics;
use serde::{Deserialize, Serialize};

use super::journal::{self, Journal, JournalError, JournalScan};
use super::runner::{CellFailure, Outcome, SweepError, PANIC_PREFIX};

/// First line of the shared lease log.
pub const LEASE_HEADER: &str = "{\"dirext_leases\":1}";

/// Shortest permitted lease duration.
pub const MIN_LEASE_MS: u64 = 200;
/// Longest permitted lease duration (10 minutes — longer leases would
/// stall failover for longer than any sane cell runtime).
pub const MAX_LEASE_MS: u64 = 600_000;
/// Shortest permitted heartbeat interval.
pub const MIN_HEARTBEAT_MS: u64 = 20;

/// One record of the lease log.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LeaseLine {
    /// `"claim"`, `"renew"`, `"release"`, or `"done"`.
    op: String,
    /// The cell key being leased.
    key: String,
    /// The appending worker's id.
    worker: String,
    /// Fencing token: strictly increases across claims of one key.
    fence: u64,
    /// Lease deadline, wall-clock milliseconds since the Unix epoch
    /// (0 for `release`/`done`).
    deadline_ms: u64,
    /// For `done`: whether the cell completed successfully.
    ok: bool,
}

/// The lease a key currently resolves to during replay.
#[derive(Debug, Clone)]
struct LeaseSlot {
    worker: String,
    fence: u64,
    deadline_ms: u64,
    /// False once released or ended by `done`.
    held: bool,
}

/// The lease log replayed into per-key state.
#[derive(Debug, Default)]
struct LeaseState {
    leases: HashMap<String, LeaseSlot>,
    /// Highest fence ever seen per key (claims must exceed this).
    max_fence: HashMap<String, u64>,
    /// Terminal outcome per key, last-wins.
    done: HashMap<String, bool>,
}

/// Replays lease-log text in file order. Unparseable lines (torn tails,
/// duplicate headers from racing creators) are skipped and counted.
fn replay(text: &str) -> (LeaseState, usize) {
    let mut state = LeaseState::default();
    let mut recovered = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line == LEASE_HEADER {
            continue;
        }
        let Ok(rec) = serde_json::from_str::<LeaseLine>(line) else {
            recovered += 1;
            continue;
        };
        let top = state.max_fence.entry(rec.key.clone()).or_insert(0);
        *top = (*top).max(rec.fence);
        match rec.op.as_str() {
            "claim" => {
                // A claim takes the lease only with a strictly higher
                // fence than the incumbent: of two racing claimants (who
                // both computed max+1), the one earlier in file order
                // wins and the later claim is void.
                let incumbent = state.leases.get(&rec.key).map_or(0, |s| s.fence);
                if rec.fence > incumbent {
                    state.leases.insert(
                        rec.key,
                        LeaseSlot {
                            worker: rec.worker,
                            fence: rec.fence,
                            deadline_ms: rec.deadline_ms,
                            held: true,
                        },
                    );
                }
            }
            "renew" => {
                if let Some(slot) = state.leases.get_mut(&rec.key) {
                    if slot.held && slot.worker == rec.worker && slot.fence == rec.fence {
                        slot.deadline_ms = rec.deadline_ms;
                    }
                }
            }
            "release" => {
                if let Some(slot) = state.leases.get_mut(&rec.key) {
                    if slot.worker == rec.worker && slot.fence == rec.fence {
                        slot.held = false;
                    }
                }
            }
            "done" => {
                state.done.insert(rec.key.clone(), rec.ok);
                if let Some(slot) = state.leases.get_mut(&rec.key) {
                    if slot.worker == rec.worker && slot.fence == rec.fence {
                        slot.held = false;
                    }
                }
            }
            _ => recovered += 1,
        }
    }
    (state, recovered)
}

/// Configuration of one fleet worker.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The shared fleet directory (lease log + worker journals).
    pub dir: PathBuf,
    /// This worker's id (names its journal; must be unique per live
    /// worker, and stable across restarts to reuse its journal).
    pub worker_id: String,
    /// Lease duration in wall-ms: a dead worker's cells become
    /// reclaimable this long after its last heartbeat.
    pub lease_ms: u64,
    /// Heartbeat (lease renewal) interval in ms.
    pub heartbeat_ms: u64,
    /// How long an idle worker waits before re-polling the lease log.
    pub poll_ms: u64,
}

impl FleetConfig {
    /// A config with defaults: 5 s leases, 1 s heartbeats.
    pub fn new(dir: impl Into<PathBuf>, worker_id: impl Into<String>) -> FleetConfig {
        let mut cfg = FleetConfig {
            dir: dir.into(),
            worker_id: worker_id.into(),
            lease_ms: 5000,
            heartbeat_ms: 1000,
            poll_ms: 0,
        };
        cfg.poll_ms = cfg.default_poll_ms();
        cfg
    }

    fn default_poll_ms(&self) -> u64 {
        (self.heartbeat_ms / 2).clamp(25, 500)
    }

    /// Returns this config with the lease/heartbeat intervals set (and
    /// the idle poll re-derived from the heartbeat).
    pub fn intervals(mut self, lease_ms: u64, heartbeat_ms: u64) -> FleetConfig {
        self.lease_ms = lease_ms;
        self.heartbeat_ms = heartbeat_ms;
        self.poll_ms = self.default_poll_ms();
        self
    }

    /// Validates the config, with actionable messages (shared by the CLI
    /// parser and [`Fleet::new`]).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let id = &self.worker_id;
        if id.is_empty() {
            return Err("worker id must not be empty (pass --worker-id NAME)".into());
        }
        if id.len() > 64 {
            return Err(format!(
                "worker id `{id}` is longer than 64 characters; pick a shorter --worker-id"
            ));
        }
        if id
            .chars()
            .any(|c| c == '/' || c == '\\' || c.is_whitespace())
        {
            return Err(format!(
                "worker id `{id}` must not contain path separators or whitespace \
                 (it names the worker's journal file)"
            ));
        }
        if !(MIN_LEASE_MS..=MAX_LEASE_MS).contains(&self.lease_ms) {
            return Err(format!(
                "--lease-ms {} is outside [{MIN_LEASE_MS}, {MAX_LEASE_MS}]: leases shorter than \
                 {MIN_LEASE_MS} ms expire under normal scheduling jitter (spurious failover), and \
                 leases longer than {MAX_LEASE_MS} ms stall dead-worker failover",
                self.lease_ms
            ));
        }
        if self.heartbeat_ms < MIN_HEARTBEAT_MS {
            return Err(format!(
                "--heartbeat-ms {} is below the {MIN_HEARTBEAT_MS} ms minimum (a tighter loop \
                 just burns CPU appending renew records)",
                self.heartbeat_ms
            ));
        }
        if self.heartbeat_ms.saturating_mul(3) > self.lease_ms {
            return Err(format!(
                "--heartbeat-ms {} is too slow for --lease-ms {}: a lease must be renewed at \
                 least 3x per lifetime or one missed beat looks like worker death; use \
                 --heartbeat-ms {} or lower (or a longer lease)",
                self.heartbeat_ms,
                self.lease_ms,
                self.lease_ms / 3
            ));
        }
        Ok(())
    }
}

/// A combined snapshot of the lease log and every worker journal — what
/// a worker consults to decide which cell to claim next. Sibling journals
/// are parsed from disk; this worker's own results come from its
/// in-memory [`Journal`], which records a line only once it is written.
struct FleetView<'a> {
    state: LeaseState,
    siblings: Vec<Arc<JournalScan>>,
    own: &'a Journal,
}

impl FleetView<'_> {
    fn has_metrics(&self, key: &str) -> bool {
        self.own.is_completed(key) || self.siblings.iter().any(|s| s.completed.contains_key(key))
    }

    /// The completed record with the highest fence across all journals.
    fn best_metrics(&self, key: &str) -> Option<Metrics> {
        let siblings = self.siblings.iter().filter_map(|s| s.completed.get(key));
        self.own
            .lookup_fenced(key)
            .into_iter()
            .chain(siblings.cloned())
            .max_by_key(|c| c.fence)
            .map(|c| c.metrics)
    }

    /// Terminally complete: a `done {ok}` marker *and* a journaled
    /// result. A `done` whose journal record was lost (torn append) is
    /// not complete — the cell becomes claimable again and re-runs.
    fn complete(&self, key: &str) -> bool {
        self.state.done.get(key) == Some(&true) && self.has_metrics(key)
    }

    /// Terminally failed.
    fn failed(&self, key: &str) -> bool {
        self.state.done.get(key) == Some(&false)
    }

    fn terminal(&self, key: &str) -> bool {
        self.complete(key) || self.failed(key)
    }

    fn lease_active(&self, key: &str, now_ms: u64) -> bool {
        self.state
            .leases
            .get(key)
            .is_some_and(|s| s.held && s.deadline_ms > now_ms)
    }

    fn claimable(&self, key: &str, now_ms: u64) -> bool {
        !self.terminal(key) && !self.lease_active(key, now_ms)
    }

    /// Reconstructs a failed cell's diagnostics from the journals
    /// (highest fence wins; a worker that died between `done` and its
    /// journal append yields a placeholder), in the same shape a local
    /// sweep reports.
    fn failure(&self, key: &str) -> CellFailure {
        let siblings = self.siblings.iter().filter_map(|s| s.failed.get(key));
        let best = self
            .own
            .failed_cell(key)
            .into_iter()
            .chain(siblings.cloned())
            .max_by_key(|c| c.fence);
        let (error, attempts) = match best {
            Some(c) => (c.error, c.attempts),
            None => (
                "cell failed on a fleet worker (diagnostics not recorded)".into(),
                0,
            ),
        };
        let panic_detail = error.strip_prefix(PANIC_PREFIX).map(str::to_owned);
        CellFailure {
            key: key.to_owned(),
            panicked: panic_detail.is_some(),
            error: panic_detail.unwrap_or(error),
            sim: None,
            attempts,
        }
    }
}

/// One worker's handle on a fleet directory. Create with [`Fleet::new`],
/// wrap in an [`Arc`], and pass to
/// [`SweepOpts::with_fleet`](super::SweepOpts::with_fleet); every sweep
/// run under those options coordinates through the shared lease log.
pub struct Fleet {
    config: FleetConfig,
    lease_path: PathBuf,
    lease_file: Mutex<File>,
    journal: Arc<Journal>,
    /// Journal-scan cache keyed by path, invalidated by file length
    /// (sibling journals only grow).
    scans: Mutex<HashMap<PathBuf, (u64, Arc<JournalScan>)>>,
    /// Serializes [`Fleet::claim`]'s read-pick-append-confirm sequence
    /// across this worker's pool threads (see [`Fleet::claim_in`]).
    claim_gate: Mutex<()>,
    /// Leases this process holds, with their fences: renewed by the
    /// heartbeat, and never waited on by an idle claim.
    held: Mutex<HashMap<String, u64>>,
    /// The first lease-log error of the current sweep; once set, the
    /// claim source runs dry (see [`Fleet::take_error`]).
    error: Mutex<Option<SweepError>>,
}

impl fmt::Debug for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fleet")
            .field("dir", &self.config.dir)
            .field("worker_id", &self.config.worker_id)
            .field("lease_ms", &self.config.lease_ms)
            .field("heartbeat_ms", &self.config.heartbeat_ms)
            .finish_non_exhaustive()
    }
}

/// Wall-clock milliseconds since the Unix epoch (lease deadlines are
/// compared across processes, so monotonic clocks cannot be used).
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_millis() as u64
}

/// The worker journals inside a fleet directory, sorted by path.
///
/// # Errors
///
/// Reports I/O errors reading the directory.
pub fn worker_journals(dir: &Path) -> Result<Vec<PathBuf>, JournalError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| JournalError::new(format!("cannot read fleet dir {}: {e}", dir.display())))?;
    let mut paths = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| JournalError::new(format!("cannot list {}: {e}", dir.display())))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("worker-") && name.ends_with(".jsonl") {
            paths.push(entry.path());
        }
    }
    paths.sort();
    Ok(paths)
}

/// The canonical output path of `dirext assemble` for a fleet directory.
pub fn assembled_path(dir: &Path) -> PathBuf {
    dir.join("assembled.jsonl")
}

impl Fleet {
    /// Joins (or starts) the fleet at `config.dir`: creates the
    /// directory, opens the shared lease log, and opens (or resumes)
    /// this worker's journal.
    ///
    /// # Errors
    ///
    /// Reports invalid configs (see [`FleetConfig::validate`]) and I/O
    /// errors.
    pub fn new(config: FleetConfig) -> Result<Fleet, JournalError> {
        config.validate().map_err(JournalError::new)?;
        std::fs::create_dir_all(&config.dir).map_err(|e| {
            JournalError::new(format!(
                "cannot create fleet dir {}: {e}",
                config.dir.display()
            ))
        })?;
        let journal = Arc::new(Journal::resume(
            config
                .dir
                .join(format!("worker-{}.jsonl", config.worker_id)),
        )?);
        let lease_path = config.dir.join("leases.jsonl");
        let mut lease_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&lease_path)
            .map_err(|e| JournalError::new(format!("cannot open {}: {e}", lease_path.display())))?;
        // Write the header if the file looks empty. Two workers racing
        // here can both append one — replay skips duplicate header lines,
        // so this needs no locking.
        let len = lease_file.metadata().map(|m| m.len()).unwrap_or(0);
        if len == 0 {
            lease_file
                .write_all(format!("{LEASE_HEADER}\n").as_bytes())
                .map_err(|e| {
                    JournalError::new(format!("cannot write {}: {e}", lease_path.display()))
                })?;
        }
        Ok(Fleet {
            config,
            lease_path,
            lease_file: Mutex::new(lease_file),
            journal,
            scans: Mutex::new(HashMap::new()),
            claim_gate: Mutex::new(()),
            held: Mutex::new(HashMap::new()),
            error: Mutex::new(None),
        })
    }

    /// This worker's result journal (also the sweep journal under
    /// [`SweepOpts::with_fleet`](super::SweepOpts::with_fleet)).
    pub fn journal(&self) -> Arc<Journal> {
        Arc::clone(&self.journal)
    }

    /// This worker's id.
    pub fn worker_id(&self) -> &str {
        &self.config.worker_id
    }

    /// The shared fleet directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Appends one lease record of this worker.
    fn append(
        &self,
        op: &str,
        key: &str,
        fence: u64,
        deadline_ms: u64,
        ok: bool,
    ) -> Result<(), SweepError> {
        let line = LeaseLine {
            op: op.to_owned(),
            key: key.to_owned(),
            worker: self.config.worker_id.clone(),
            fence,
            deadline_ms,
            ok,
        };
        let rendered = serde_json::to_string(&line)
            .map_err(|e| SweepError::Journal(format!("serialize lease record: {e}")))?;
        let mut file = self.lease_file.lock().expect("lease file lock");
        // One write_all per record through O_APPEND: atomic enough that
        // concurrent workers' lines interleave whole, never torn (short
        // JSONL lines are far below any pipe/file atomicity threshold).
        file.write_all(format!("{rendered}\n").as_bytes())
            .map_err(|e| {
                SweepError::Journal(format!("append to {}: {e}", self.lease_path.display()))
            })
    }

    fn read_lease_state(&self) -> Result<LeaseState, SweepError> {
        let text = std::fs::read_to_string(&self.lease_path)
            .map_err(|e| SweepError::Journal(format!("read {}: {e}", self.lease_path.display())))?;
        Ok(replay(&text).0)
    }

    /// Scans every other worker's journal in the fleet dir, reusing cached
    /// parses for files whose length has not changed. This worker's own
    /// journal is skipped: it grows with every cell, so a cached parse
    /// would miss every time, and its in-memory copy is current anyway.
    fn sibling_scans(&self) -> Result<Vec<Arc<JournalScan>>, SweepError> {
        let paths =
            worker_journals(&self.config.dir).map_err(|e| SweepError::Journal(e.to_string()))?;
        let mut cache = self.scans.lock().expect("scan cache lock");
        let mut out = Vec::with_capacity(paths.len());
        for path in paths {
            if path == self.journal.path() {
                continue;
            }
            let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            match cache.get(&path) {
                Some((cached_len, scan)) if *cached_len == len => out.push(Arc::clone(scan)),
                _ => {
                    let scan = Arc::new(
                        journal::scan(&path).map_err(|e| SweepError::Journal(e.to_string()))?,
                    );
                    cache.insert(path, (len, Arc::clone(&scan)));
                    out.push(Arc::clone(&scan));
                }
            }
        }
        Ok(out)
    }

    fn view(&self) -> Result<FleetView<'_>, SweepError> {
        Ok(FleetView {
            state: self.read_lease_state()?,
            siblings: self.sibling_scans()?,
            own: &self.journal,
        })
    }

    /// Attempts to claim `key` if `view` shows it claimable: appends a
    /// claim with fence `max+1`, then re-reads to learn whether the claim
    /// won (file order arbitrates races). Returns the fencing token on
    /// success.
    ///
    /// The caller holds `claim_gate` and read `view` under it: two pool
    /// threads of the *same* worker would otherwise race to identical
    /// `(worker, fence)` claim records and both pass the confirm (the
    /// lease log cannot tell them apart). Cross-process races need no
    /// gate — distinct worker ids make the confirm re-read decisive.
    ///
    /// `view` is fresh: a `done` marker is terminal only once some
    /// journal holds the metrics (the owner writes them *before* marking
    /// done), so a finished cell is never recomputed, while an owner that
    /// died between `done` and its journal flush leaves the cell
    /// claimable.
    fn claim_in(&self, view: &FleetView<'_>, key: &str) -> Result<Option<u64>, SweepError> {
        if !view.claimable(key, now_ms()) {
            return Ok(None);
        }
        let fence = view.state.max_fence.get(key).copied().unwrap_or(0) + 1;
        let deadline = now_ms() + self.config.lease_ms;
        self.append("claim", key, fence, deadline, false)?;
        let confirmed = self.read_lease_state()?;
        let won = confirmed
            .leases
            .get(key)
            .is_some_and(|s| s.held && s.fence == fence && s.worker == self.config.worker_id);
        Ok(if won { Some(fence) } else { None })
    }

    /// Releases a claimed-but-unrun cell (cancellation path).
    fn release(&self, key: &str, fence: u64) -> Result<(), SweepError> {
        self.append("release", key, fence, 0, false)
    }

    /// The claim source of a fleet sweep (see
    /// [`run_cells`](super::run_cells)): reads the fleet view, picks the
    /// first claimable cell of `keys` scanning from this worker's hash
    /// offset, then claims and confirms it through the lease log. It
    /// sleeps `poll_ms` only while unfinished cells are leased to someone
    /// else. Returns `None` once every cell is terminal or held by this
    /// process, when `stop` turns true, on fail-fast (some cell failed and
    /// not `keep_going`), and after a lease-log error (see
    /// [`Fleet::take_error`]) or a journal write error.
    pub(super) fn claim(
        &self,
        keys: &[String],
        keep_going: bool,
        stop: &dyn Fn() -> bool,
    ) -> Option<(usize, u64)> {
        let total = keys.len();
        let start = (fnv(self.worker_id()) % total.max(1) as u64) as usize;
        loop {
            // A failed journal append would leave the cell claimable
            // again (no metrics behind its `done`): stop instead of
            // re-running it forever.
            if stop()
                || self.error.lock().expect("fleet error").is_some()
                || self.journal.has_write_error()
            {
                return None;
            }
            // Pick under the gate, so this worker's threads never pick
            // the same cell: each sees the claims of the others.
            let gate = self.claim_gate.lock().expect("claim gate");
            // Snapshot before the view: a cell that leaves the set has its
            // `done` in the log already, so the view sees it terminal.
            let held = self.held.lock().expect("held set").clone();
            let view = self.checked(self.view())?;
            if !keep_going && keys.iter().any(|k| view.failed(k)) {
                return None;
            }
            let now = now_ms();
            let picked = (0..total)
                .map(|off| (start + off) % total)
                .find(|&i| view.claimable(&keys[i], now));
            let Some(i) = picked else {
                // Cells held by this process finish on their own threads;
                // only a lease held elsewhere is worth waiting for (a
                // restarted worker reusing this id is "elsewhere" too).
                if keys
                    .iter()
                    .all(|k| view.terminal(k) || held.contains_key(k))
                {
                    return None;
                }
                drop((view, gate));
                std::thread::sleep(Duration::from_millis(self.config.poll_ms));
                continue;
            };
            let key = &keys[i];
            let Some(fence) = self.checked(self.claim_in(&view, key))? else {
                continue; // lost the race to another worker; look again
            };
            self.held
                .lock()
                .expect("held set")
                .insert(key.clone(), fence);
            drop((view, gate));
            if stop() {
                // SIGINT landed during the claim I/O: hand the cell back
                // un-run so a resume (or a sibling) picks it up cleanly.
                let _ = self.release(key, fence);
                self.held.lock().expect("held set").remove(key);
                return None;
            }
            let slow_ms: u64 = std::env::var("DIREXT_FLEET_SLOW_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            if slow_ms > 0 {
                std::thread::sleep(Duration::from_millis(slow_ms));
            }
            return Some((i, fence));
        }
    }

    /// Ends this worker's lease on a claimed cell it ran: a terminal
    /// `done` record (`ok` = the cell succeeded).
    pub(super) fn finish(&self, key: &str, fence: u64, ok: bool) {
        let marked = self.append("done", key, fence, 0, ok);
        self.held.lock().expect("held set").remove(key);
        self.checked(marked);
    }

    /// Renews every held lease once per `heartbeat_ms` until `done` is
    /// set (and the thread unparked). Renew failures are not fatal — at
    /// worst a lease expires and a sibling duplicates the cell, which
    /// fencing makes safe.
    pub(super) fn heartbeat(&self, done: &AtomicBool) {
        let interval = Duration::from_millis(self.config.heartbeat_ms);
        loop {
            std::thread::park_timeout(interval);
            if done.load(Ordering::SeqCst) {
                return;
            }
            let held: Vec<(String, u64)> = self
                .held
                .lock()
                .expect("held set")
                .iter()
                .map(|(k, f)| (k.clone(), *f))
                .collect();
            let deadline = now_ms() + self.config.lease_ms;
            for (key, fence) in held {
                let _ = self.append("renew", &key, fence, deadline, false);
            }
        }
    }

    /// The whole fleet's outcome for each of `keys`, folded from every
    /// worker journal: the best-fence metrics of a complete cell, the
    /// journaled failure of a failed one, `None` for the rest. Every
    /// worker thus renders the complete artifact, not just its own cells.
    pub(super) fn outcomes(&self, keys: &[String]) -> Result<Vec<Option<Outcome>>, SweepError> {
        let view = self.view()?;
        Ok(keys
            .iter()
            .map(|k| {
                if view.complete(k) {
                    view.best_metrics(k).map(|m| Outcome::Ok(Box::new(m)))
                } else if view.failed(k) {
                    Some(Outcome::Failed(view.failure(k)))
                } else {
                    None
                }
            })
            .collect())
    }

    /// The first lease-log error since the last call, if any. A sweep
    /// reports it instead of its results: the claims stopped early.
    pub(super) fn take_error(&self) -> Option<SweepError> {
        self.error.lock().expect("fleet error").take()
    }

    /// Keeps the first error of the sweep for [`Fleet::take_error`].
    fn checked<T>(&self, result: Result<T, SweepError>) -> Option<T> {
        result
            .map_err(|e| {
                self.error.lock().expect("fleet error").get_or_insert(e);
            })
            .ok()
    }
}

/// FNV-1a, used to spread workers' claim scan origins across the sweep
/// so a joining fleet does not contend on cell 0.
fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(op: &str, key: &str, worker: &str, fence: u64, deadline_ms: u64, ok: bool) -> String {
        serde_json::to_string(&LeaseLine {
            op: op.into(),
            key: key.into(),
            worker: worker.into(),
            fence,
            deadline_ms,
            ok,
        })
        .unwrap()
    }

    #[test]
    fn replay_resolves_claim_races_by_file_order() {
        // Both workers observed fence 0 and claimed fence 1: the first
        // claim in file order wins, the second is void.
        let text = format!(
            "{LEASE_HEADER}\n{}\n{}\n",
            line("claim", "k", "a", 1, 100, false),
            line("claim", "k", "b", 1, 200, false),
        );
        let (state, recovered) = replay(&text);
        assert_eq!(recovered, 0);
        let slot = state.leases.get("k").expect("leased");
        assert_eq!(slot.worker, "a");
        assert_eq!(state.max_fence["k"], 1);
    }

    #[test]
    fn replay_higher_fence_takes_over_and_stale_renews_are_void() {
        let text = format!(
            "{LEASE_HEADER}\n{}\n{}\n{}\n",
            line("claim", "k", "dead", 1, 100, false),
            line("claim", "k", "live", 2, 500, false),
            // The dead worker wakes up and renews its stale fence-1 lease.
            line("renew", "k", "dead", 1, 900, false),
        );
        let (state, _) = replay(&text);
        let slot = state.leases.get("k").expect("leased");
        assert_eq!(slot.worker, "live");
        assert_eq!(slot.fence, 2);
        assert_eq!(
            slot.deadline_ms, 500,
            "stale renew must not extend the new lease"
        );
    }

    #[test]
    fn replay_done_ends_the_lease_and_records_outcome() {
        let text = format!(
            "{LEASE_HEADER}\n{}\n{}\n{}\n{}\n",
            line("claim", "k1", "w", 1, 100, false),
            line("done", "k1", "w", 1, 0, true),
            line("claim", "k2", "w", 1, 100, false),
            line("done", "k2", "w", 1, 0, false),
        );
        let (state, _) = replay(&text);
        assert_eq!(state.done.get("k1"), Some(&true));
        assert_eq!(state.done.get("k2"), Some(&false));
        assert!(!state.leases["k1"].held);
        assert!(!state.leases["k2"].held);
    }

    #[test]
    fn replay_skips_torn_lines_and_duplicate_headers() {
        let text = format!(
            "{LEASE_HEADER}\n{LEASE_HEADER}\n{}\n{{\"op\":\"cla",
            line("claim", "k", "w", 1, 100, false),
        );
        let (state, recovered) = replay(&text);
        assert_eq!(recovered, 1);
        assert!(state.leases.contains_key("k"));
    }

    #[test]
    fn config_validation_catches_bad_intervals_and_ids() {
        let ok = FleetConfig::new("/tmp/f", "w1");
        assert!(ok.validate().is_ok());
        assert!(FleetConfig::new("/tmp/f", "").validate().is_err());
        assert!(FleetConfig::new("/tmp/f", "a/b").validate().is_err());
        assert!(FleetConfig::new("/tmp/f", "a b").validate().is_err());
        assert!(FleetConfig::new("/tmp/f", "x".repeat(65))
            .validate()
            .is_err());
        // Lease out of bounds, either side.
        assert!(FleetConfig::new("/tmp/f", "w")
            .intervals(100, 20)
            .validate()
            .is_err());
        assert!(FleetConfig::new("/tmp/f", "w")
            .intervals(MAX_LEASE_MS + 1, 1000)
            .validate()
            .is_err());
        // Heartbeat too slow for the lease (< 3 renewals per lifetime).
        assert!(FleetConfig::new("/tmp/f", "w")
            .intervals(3000, 1500)
            .validate()
            .is_err());
        // Heartbeat below the floor.
        assert!(FleetConfig::new("/tmp/f", "w")
            .intervals(5000, 5)
            .validate()
            .is_err());
        assert!(FleetConfig::new("/tmp/f", "w")
            .intervals(3000, 1000)
            .validate()
            .is_ok());
    }

    impl Fleet {
        /// One gated claim attempt on `key`, as [`Fleet::claim`] makes it.
        fn try_claim(&self, key: &str) -> Result<Option<u64>, SweepError> {
            let _gate = self.claim_gate.lock().expect("claim gate");
            self.claim_in(&self.view()?, key)
        }
    }

    #[test]
    fn try_claim_confirms_through_the_log() {
        let dir = std::env::temp_dir().join(format!("dirext-fleet-claim-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fleet = Fleet::new(FleetConfig::new(&dir, "w1")).expect("fleet");
        let fence = fleet.try_claim("cell/a").expect("io").expect("won");
        assert_eq!(fence, 1);
        // Re-claiming a cell we already hold is refused (active lease).
        assert!(fleet.try_claim("cell/a").expect("io").is_none());
        // A second worker in the same dir cannot claim it either.
        let other = Fleet::new(FleetConfig::new(&dir, "w2")).expect("fleet");
        assert!(other.try_claim("cell/a").expect("io").is_none());
        // After done, the cell is terminal: still unclaimable, even past
        // any lease deadline.
        fleet.finish("cell/a", fence, false);
        assert!(fleet.take_error().is_none(), "done append");
        assert!(other.try_claim("cell/a").expect("io").is_none());
        let view = other.view().expect("view");
        assert!(view.terminal("cell/a"));
        assert!(!view.claimable("cell/a", u64::MAX));
        // A released cell is claimable with a higher fence.
        let f2 = fleet.try_claim("cell/b").expect("io").expect("won");
        fleet.release("cell/b", f2).expect("release");
        let f3 = other.try_claim("cell/b").expect("io").expect("reclaim");
        assert_eq!(f3, f2 + 1, "fences increase monotonically");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expired_leases_are_reclaimable() {
        let dir = std::env::temp_dir().join(format!("dirext-fleet-expire-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dead =
            Fleet::new(FleetConfig::new(&dir, "dead").intervals(MIN_LEASE_MS, 50)).expect("fleet");
        let f1 = dead.try_claim("cell/x").expect("io").expect("won");
        // Simulate worker death: no heartbeats; wait out the lease.
        std::thread::sleep(Duration::from_millis(MIN_LEASE_MS + 50));
        let live = Fleet::new(FleetConfig::new(&dir, "live")).expect("fleet");
        let f2 = live.try_claim("cell/x").expect("io").expect("failover");
        assert!(f2 > f1, "the reclaimer holds a strictly higher fence");
        std::fs::remove_dir_all(&dir).ok();
    }
}
