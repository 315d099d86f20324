//! Multi-process sweep execution: a supervisor that shards the grid
//! across worker subprocesses and keeps the report byte-identical while
//! those workers die under it (`experiments --workers N`).
//!
//! **Model.** Every cell's row is a pure function of its coordinates
//! ([`crate::sweep`]), so *where* a cell is computed cannot change its
//! bytes — only *whether* it gets computed. The supervisor therefore
//! plans the grid into contiguous shards, lets workers claim them through
//! an on-disk lease protocol, collects per-shard segment journals, and
//! assembles the final report **in grid order** from whatever process
//! happened to compute each cell. The result is byte-identical to a
//! single-process run for every `--workers` count and after any worker
//! death (pinned by `tests/worker_supervision.rs` and the
//! `scripts/crash_test.sh` worker legs).
//!
//! **Files** (all in a per-run workdir, all [`crate::wire`]-framed and
//! CRC'd, all replaced atomically):
//!
//! | file | written by | meaning |
//! |---|---|---|
//! | `plan` | supervisor | shard table + spec fingerprint |
//! | `ready-<s>` | supervisor | shard `s` is claimable |
//! | `lease-<s>` | worker | shard `s` is owned; body `{pid, beat}` is the heartbeat |
//! | `seg-<s>.ckpt` | worker | per-shard checkpoint journal of completed cells |
//! | `done-<s>` | worker | shard `s` finished; `seg-<s>.ckpt` is complete |
//!
//! A claim is `rename(ready-<s>, lease-<s>)` — atomic, so exactly one
//! worker wins a shard. The worker then rewrites the lease every
//! heartbeat interval; the supervisor watches the beat counter and
//! expires a lease whose beat has not advanced within the timeout
//! (wedged worker), whose process has exited (crash, `kill -9`), or
//! whose file has vanished (lease steal). An expired shard's segment is
//! partially harvested — completed cells are real results and are kept —
//! and the shard is reassigned with exponential backoff. A shard that
//! exceeds the attempt cap is quarantined: its cells become explicit
//! `poisoned` rows ([`crate::sweep::SweepRow::poisoned`]), never
//! fabricated measurements, mirroring the `timed_out` discipline. If
//! workers cannot spawn at all the supervisor degrades to in-process
//! execution with a warning.
//!
//! Workers never touch the shared `--checkpoint` journal — each appends
//! to its own segment (one writer per file, so the wire framing's
//! clean-prefix crash model holds) and the supervisor is the sole
//! appender to the main journal. With `--resume`, segment journals and
//! `done` markers from an interrupted supervised run are themselves
//! resumed: a reassigned or restarted shard skips the cells its segment
//! already holds. See docs/distributed.md for the full protocol and
//! failure matrix.

use crate::checkpoint::{self, CellRecord, Journal};
use crate::sweep::{
    self, cells, dispatch_cell, poisoned_row, Cell, Family, RunOptions, SweepInstance, SweepReport,
    SweepSpec,
};
use crate::{faults, wire};
use serde_json::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shard-plan format version (the `plan` file's `version` field).
pub const PLAN_VERSION: u64 = 1;

/// Shards per requested worker: small enough that claims are rare events,
/// large enough that a crashed worker forfeits only a fraction of its
/// work and stragglers rebalance onto idle workers.
const SHARDS_PER_WORKER: usize = 4;

/// Supervisor poll cadence (lease scans, child reaping).
const POLL: Duration = Duration::from_millis(25);

/// Tuning knobs for [`run_supervised`]. `new` reads the documented
/// defaults, each overridable through an environment variable so the CI
/// fault legs can compress minutes of backoff into milliseconds:
/// `RVZ_HEARTBEAT_INTERVAL_MS`, `RVZ_HEARTBEAT_TIMEOUT_MS`,
/// `RVZ_WORKER_BACKOFF_MS`, `RVZ_SHARD_ATTEMPTS`.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker subprocess count (≥ 1; `--workers 0` never reaches here).
    pub workers: usize,
    /// How often a worker rewrites its lease heartbeat.
    pub heartbeat_interval: Duration,
    /// Lease expiry: a beat that has not advanced for this long means the
    /// worker is wedged and its shard is reassigned.
    pub heartbeat_timeout: Duration,
    /// First reassignment delay; doubles per failed attempt.
    pub backoff_base: Duration,
    /// Attempts before a shard is quarantined as poisoned.
    pub max_shard_attempts: u32,
    /// `--resume`: keep matching segment journals and done markers from a
    /// previous supervised run instead of starting the shards over.
    pub resume: bool,
    /// Explicit workdir (tests); defaults next to the journal, or to a
    /// temp dir without one.
    pub workdir: Option<PathBuf>,
}

fn env_ms(key: &str, default: Duration) -> Duration {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(default, Duration::from_millis)
}

impl SupervisorConfig {
    pub fn new(workers: usize) -> SupervisorConfig {
        SupervisorConfig {
            workers: workers.max(1),
            heartbeat_interval: env_ms("RVZ_HEARTBEAT_INTERVAL_MS", Duration::from_millis(100)),
            heartbeat_timeout: env_ms("RVZ_HEARTBEAT_TIMEOUT_MS", Duration::from_secs(2)),
            backoff_base: env_ms("RVZ_WORKER_BACKOFF_MS", Duration::from_millis(250)),
            max_shard_attempts: std::env::var("RVZ_SHARD_ATTEMPTS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(3),
            resume: false,
            workdir: None,
        }
    }
}

/// One contiguous half-open range `[lo, hi)` of grid-order cell indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    pub lo: usize,
    pub hi: usize,
}

/// Plans `total` grid cells into contiguous shards: `workers ×`
/// `SHARDS_PER_WORKER` ranges (capped at one cell per shard minimum),
/// sized within one cell of each other, covering the grid exactly.
pub fn plan_shards(total: usize, workers: usize) -> Vec<ShardRange> {
    if total == 0 {
        return Vec::new();
    }
    let count = (workers.max(1) * SHARDS_PER_WORKER).clamp(1, total);
    (0..count).map(|s| ShardRange { lo: s * total / count, hi: (s + 1) * total / count }).collect()
}

// ---------------------------------------------------------------------------
// Control-file bodies (compact JSON inside a single wire frame).

fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_u64(fields: &[(String, Value)], key: &str) -> Option<u64> {
    match get(fields, key)? {
        Value::Int(i) => u64::try_from(*i).ok(),
        Value::UInt(u) => Some(*u),
        _ => None,
    }
}

fn get_str(fields: &[(String, Value)], key: &str) -> Option<String> {
    match get(fields, key)? {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// The shard plan as both processes see it — everything a worker needs to
/// name its cells, plus the per-spec fingerprint that proves the worker
/// resolved the *same* spec the supervisor planned (worker processes
/// re-derive the spec from the original CLI arguments; the fingerprint
/// check turns any drift into a hard error instead of wrong rows).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    pub fingerprint: u64,
    pub experiment: String,
    pub total_cells: usize,
    pub shards: Vec<ShardRange>,
    /// The shared `--checkpoint` journal, when one is in use: workers skip
    /// cells it already holds (supervisor splices them from the journal).
    pub main_journal: Option<PathBuf>,
    /// `--cell-timeout`, forwarded so workers watchdog cells the same way.
    pub cell_timeout_ms: Option<u64>,
    /// Worker heartbeat rewrite interval.
    pub heartbeat_ms: u64,
}

impl ShardPlan {
    fn to_bytes(&self) -> Vec<u8> {
        let shards: Vec<Value> = self
            .shards
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("lo".into(), Value::UInt(r.lo as u64)),
                    ("hi".into(), Value::UInt(r.hi as u64)),
                ])
            })
            .collect();
        let body = Value::Object(vec![
            ("kind".into(), Value::Str("rvz-shard-plan".into())),
            ("version".into(), Value::UInt(PLAN_VERSION)),
            ("fingerprint".into(), Value::UInt(self.fingerprint)),
            ("experiment".into(), Value::Str(self.experiment.clone())),
            ("total_cells".into(), Value::UInt(self.total_cells as u64)),
            ("shards".into(), Value::Array(shards)),
            (
                "main_journal".into(),
                match &self.main_journal {
                    Some(p) => Value::Str(p.display().to_string()),
                    None => Value::Null,
                },
            ),
            (
                "cell_timeout_ms".into(),
                match self.cell_timeout_ms {
                    Some(ms) => Value::UInt(ms),
                    None => Value::Null,
                },
            ),
            ("heartbeat_ms".into(), Value::UInt(self.heartbeat_ms)),
        ]);
        serde_json::to_string(&body).expect("serialize shard plan").into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Option<ShardPlan> {
        let Value::Object(f) = serde_json::from_str(std::str::from_utf8(bytes).ok()?).ok()? else {
            return None;
        };
        if get_str(&f, "kind").as_deref() != Some("rvz-shard-plan")
            || get_u64(&f, "version") != Some(PLAN_VERSION)
        {
            return None;
        }
        let Some(Value::Array(raw)) = get(&f, "shards") else { return None };
        let mut shards = Vec::with_capacity(raw.len());
        for v in raw {
            let Value::Object(rf) = v else { return None };
            shards.push(ShardRange {
                lo: get_u64(rf, "lo")? as usize,
                hi: get_u64(rf, "hi")? as usize,
            });
        }
        Some(ShardPlan {
            fingerprint: get_u64(&f, "fingerprint")?,
            experiment: get_str(&f, "experiment")?,
            total_cells: get_u64(&f, "total_cells")? as usize,
            shards,
            main_journal: match get(&f, "main_journal") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => Some(PathBuf::from(s)),
                Some(_) => return None,
            },
            cell_timeout_ms: match get(&f, "cell_timeout_ms") {
                None | Some(Value::Null) => None,
                Some(v) => Some(match v {
                    Value::Int(i) => u64::try_from(*i).ok()?,
                    Value::UInt(u) => *u,
                    _ => return None,
                }),
            },
            heartbeat_ms: get_u64(&f, "heartbeat_ms")?,
        })
    }
}

fn heartbeat_body(pid: u32, beat: u64) -> Vec<u8> {
    let body = Value::Object(vec![
        ("pid".into(), Value::UInt(pid as u64)),
        ("beat".into(), Value::UInt(beat)),
    ]);
    serde_json::to_string(&body).expect("serialize heartbeat").into_bytes()
}

fn parse_heartbeat(bytes: &[u8]) -> Option<(u32, u64)> {
    let Value::Object(f) = serde_json::from_str(std::str::from_utf8(bytes).ok()?).ok()? else {
        return None;
    };
    Some((u32::try_from(get_u64(&f, "pid")?).ok()?, get_u64(&f, "beat")?))
}

fn plan_path(workdir: &Path) -> PathBuf {
    workdir.join("plan")
}

/// Which experiment a workdir's shard plan covers — how a freshly spawned
/// worker (handed only the workdir and the supervisor's original CLI
/// arguments) knows which of the invocation's specs it is serving.
pub fn planned_experiment(workdir: &Path) -> Option<String> {
    wire::read_framed(&plan_path(workdir))
        .as_deref()
        .and_then(ShardPlan::from_bytes)
        .map(|p| p.experiment)
}
fn ready_path(workdir: &Path, s: usize) -> PathBuf {
    workdir.join(format!("ready-{s}"))
}
fn lease_path(workdir: &Path, s: usize) -> PathBuf {
    workdir.join(format!("lease-{s}"))
}
fn seg_path(workdir: &Path, s: usize) -> PathBuf {
    workdir.join(format!("seg-{s}.ckpt"))
}
fn done_path(workdir: &Path, s: usize) -> PathBuf {
    workdir.join(format!("done-{s}"))
}

// ---------------------------------------------------------------------------
// Supervisor side.

#[derive(Debug, Clone, Copy)]
enum ShardState {
    /// Claimable (`ready-<s>` exists, or will momentarily).
    Ready,
    /// A worker owns it; `last` is the latest observed `(pid, beat)` and
    /// `since` when it last advanced.
    Leased {
        last: Option<(u32, u64)>,
        since: Instant,
    },
    /// Waiting out the reassignment backoff.
    Backoff {
        until: Instant,
    },
    Done,
    Poisoned,
}

struct Shard {
    range: ShardRange,
    state: ShardState,
    attempts: u32,
}

/// Lazily built instance cache for the supervisor's own (fallback /
/// poisoned-row) cell work — same keying as `run_with_options`.
struct InstanceCache {
    map: HashMap<(Family, usize, Option<u64>), Arc<SweepInstance>>,
}

impl InstanceCache {
    fn new() -> InstanceCache {
        InstanceCache { map: HashMap::new() }
    }
    fn get(&mut self, cell: &Cell) -> Arc<SweepInstance> {
        self.map
            .entry((cell.family, cell.n, cell.tree_index))
            .or_insert_with(|| Arc::new(SweepInstance::for_cell(cell)))
            .clone()
    }
}

/// Runs `spec` through `cfg.workers` subprocesses and returns the merged
/// report. `spawn_worker` builds the worker command for a given workdir
/// (the CLI re-invokes itself with `--worker <dir>`; tests re-invoke the
/// test binary); the supervisor owns stdio, spawning, killing and
/// reaping. Falls back to in-process execution (with a warning) when no
/// worker can be spawned.
pub fn run_supervised(
    spec: &SweepSpec,
    opts: &RunOptions<'_>,
    cfg: &SupervisorConfig,
    spawn_worker: &mut dyn FnMut(&Path) -> Command,
) -> SweepReport {
    let grid = cells(spec);
    let fingerprint = checkpoint::spec_fingerprint(&[spec]);
    let plan = ShardPlan {
        fingerprint,
        experiment: spec.experiment.clone(),
        total_cells: grid.len(),
        shards: plan_shards(grid.len(), cfg.workers),
        main_journal: opts.journal.map(|j| j.path().to_path_buf()),
        cell_timeout_ms: opts.cell_timeout.map(|t| t.as_millis() as u64),
        heartbeat_ms: cfg.heartbeat_interval.as_millis() as u64,
    };

    // Workdir: explicit (tests) > journal-derived (stable across --resume,
    // which is what makes shard resumption possible) > temp (one-shot).
    let workdir = cfg.workdir.clone().unwrap_or_else(|| match opts.journal {
        Some(j) => {
            let mut name = j.path().file_name().unwrap_or_default().to_os_string();
            name.push(".work");
            j.path().with_file_name(name).join(&spec.experiment)
        }
        None => std::env::temp_dir().join(format!(
            "rvz-workers-{}-{}",
            std::process::id(),
            spec.experiment
        )),
    });
    if let Err(e) = prepare_workdir(&workdir, &plan, cfg.resume) {
        eprintln!(
            "warning: --workers: cannot prepare workdir {}: {e}; running in-process",
            workdir.display()
        );
        return sweep::run_with_options(spec, opts);
    }

    let mut shards: Vec<Shard> = plan
        .shards
        .iter()
        .map(|&range| Shard { range, state: ShardState::Ready, attempts: 0 })
        .collect();
    // Shards already completed by a previous (resumed) supervised run.
    for (s, shard) in shards.iter_mut().enumerate() {
        if done_path(&workdir, s).exists() {
            shard.state = ShardState::Done;
        } else if let Err(e) = wire::write_framed(&ready_path(&workdir, s), &heartbeat_body(0, 0)) {
            eprintln!(
                "warning: --workers: cannot write {}: {e}",
                ready_path(&workdir, s).display()
            );
        }
    }

    // Results harvested from worker segments, keyed by cell seed.
    let mut merged: HashMap<u64, CellRecord> = HashMap::new();
    let harvest = |merged: &mut HashMap<u64, CellRecord>, s: usize| {
        let Ok(bytes) = std::fs::read(seg_path(&workdir, s)) else { return };
        let snap = checkpoint::parse_journal(&bytes);
        if snap.fingerprint == Some(fingerprint) {
            for (seed, rec) in snap.cells {
                // Append newly harvested cells to the main journal (the
                // supervisor is its only writer in supervised mode).
                merged.entry(seed).or_insert_with(|| {
                    if let Some(journal) = opts.journal {
                        if journal.lookup(seed).is_none() {
                            journal.record(&rec);
                        }
                    }
                    rec
                });
            }
        }
    };
    for (s, shard) in shards.iter().enumerate() {
        if matches!(shard.state, ShardState::Done) {
            harvest(&mut merged, s);
        }
    }

    let mut children: Vec<Child> = Vec::new();
    let mut spawn_broken = false;
    let mut spawn_one = |children: &mut Vec<Child>, spawn_broken: &mut bool| {
        if *spawn_broken {
            return;
        }
        let mut cmd = spawn_worker(&workdir);
        cmd.stdin(std::process::Stdio::null()).stdout(std::process::Stdio::null());
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                *spawn_broken = true;
                eprintln!(
                    "warning: --workers: cannot spawn worker process ({e}); \
                     degrading to in-process execution"
                );
            }
        }
    };

    let live_shards = |shards: &[Shard]| {
        shards.iter().any(|s| !matches!(s.state, ShardState::Done | ShardState::Poisoned))
    };
    let claimable = |shards: &[Shard]| shards.iter().any(|s| matches!(s.state, ShardState::Ready));

    let want =
        cfg.workers.min(shards.iter().filter(|s| !matches!(s.state, ShardState::Done)).count());
    for _ in 0..want {
        spawn_one(&mut children, &mut spawn_broken);
    }

    // Monitor loop. Every state is bounded — heartbeat timeout bounds
    // Leased, the backoff clock bounds Backoff, the attempt cap bounds
    // retries — so this loop terminates even if every worker dies on
    // every cell.
    while live_shards(&shards) {
        // Reap exited workers; their leases expire immediately below.
        let mut dead_pids: Vec<u32> = Vec::new();
        children.retain_mut(|c| match c.try_wait() {
            Ok(Some(_)) => {
                dead_pids.push(c.id());
                false
            }
            _ => true,
        });

        let now = Instant::now();
        for s in 0..shards.len() {
            let expire = |shards: &mut Vec<Shard>,
                          merged: &mut HashMap<u64, CellRecord>,
                          children: &mut Vec<Child>,
                          s: usize,
                          why: &str| {
                // A wedged worker (heartbeat gone silent, process alive)
                // must die before its shard is handed to someone else —
                // two writers on one segment would tear it.
                if let Some(body) = wire::read_framed(&lease_path(&workdir, s)) {
                    if let Some((pid, _)) = parse_heartbeat(&body) {
                        for child in children.iter_mut() {
                            if child.id() == pid {
                                let _ = child.kill();
                                let _ = child.wait();
                            }
                        }
                        children.retain_mut(|c| !matches!(c.try_wait(), Ok(Some(_))));
                    }
                }
                let _ = std::fs::remove_file(lease_path(&workdir, s));
                // Keep what the dead worker finished: its segment's clean
                // prefix is real, completed cells.
                harvest(merged, s);
                let shard = &mut shards[s];
                shard.attempts += 1;
                if shard.attempts >= cfg.max_shard_attempts {
                    eprintln!(
                        "warning: --workers: shard {s} (cells {}..{}) {why} on attempt \
                         {}/{} — quarantining its remaining cells as poisoned rows",
                        shard.range.lo, shard.range.hi, shard.attempts, cfg.max_shard_attempts
                    );
                    shard.state = ShardState::Poisoned;
                } else {
                    let backoff = cfg.backoff_base * 2u32.saturating_pow(shard.attempts - 1);
                    eprintln!(
                        "warning: --workers: shard {s} (cells {}..{}) {why} on attempt \
                         {}/{} — reassigning after {backoff:?}",
                        shard.range.lo, shard.range.hi, shard.attempts, cfg.max_shard_attempts
                    );
                    shard.state = ShardState::Backoff { until: Instant::now() + backoff };
                }
            };

            match shards[s].state {
                ShardState::Done | ShardState::Poisoned => continue,
                ShardState::Backoff { until } => {
                    if now >= until {
                        match wire::write_framed(&ready_path(&workdir, s), &heartbeat_body(0, 0)) {
                            Ok(()) => shards[s].state = ShardState::Ready,
                            Err(e) => {
                                eprintln!("warning: --workers: cannot re-issue shard {s}: {e}")
                            }
                        }
                    }
                }
                ShardState::Ready | ShardState::Leased { .. } => {
                    if wire::read_framed(&done_path(&workdir, s)).is_some() {
                        harvest(&mut merged, s);
                        let _ = std::fs::remove_file(lease_path(&workdir, s));
                        let _ = std::fs::remove_file(ready_path(&workdir, s));
                        shards[s].state = ShardState::Done;
                        continue;
                    }
                    let beat = wire::read_framed(&lease_path(&workdir, s))
                        .as_deref()
                        .and_then(parse_heartbeat);
                    match beat {
                        Some((pid, beat)) => {
                            if pid != 0 && dead_pids.contains(&pid) {
                                expire(
                                    &mut shards,
                                    &mut merged,
                                    &mut children,
                                    s,
                                    "lost its worker",
                                );
                                continue;
                            }
                            let (last, since) = match shards[s].state {
                                ShardState::Leased { last, since } => (last, since),
                                _ => (None, now),
                            };
                            let (last, since) = if last == Some((pid, beat)) {
                                (last, since)
                            } else {
                                (Some((pid, beat)), now)
                            };
                            if now.duration_since(since) > cfg.heartbeat_timeout {
                                expire(
                                    &mut shards,
                                    &mut merged,
                                    &mut children,
                                    s,
                                    "stopped heartbeating",
                                );
                            } else {
                                shards[s].state = ShardState::Leased { last, since };
                            }
                        }
                        None => {
                            if ready_path(&workdir, s).exists() {
                                shards[s].state = ShardState::Ready;
                            } else if matches!(shards[s].state, ShardState::Leased { .. }) {
                                // Neither ready nor a readable lease while
                                // leased: the lease was stolen or torn.
                                expire(
                                    &mut shards,
                                    &mut merged,
                                    &mut children,
                                    s,
                                    "lost its lease",
                                );
                            } else {
                                // Ready but no marker on disk (an earlier
                                // write failed — claims are atomic renames,
                                // so there is no in-flight window): re-issue.
                                let _ = wire::write_framed(
                                    &ready_path(&workdir, s),
                                    &heartbeat_body(0, 0),
                                );
                            }
                        }
                    }
                }
            }
        }

        // Pool maintenance: workers exit when nothing is claimable, so a
        // shard coming off backoff may find no one alive — spawn a
        // replacement (only while claimable work exists, to avoid churn).
        if claimable(&shards) && children.len() < cfg.workers {
            spawn_one(&mut children, &mut spawn_broken);
        }
        if spawn_broken
            && children.is_empty()
            && !shards.iter().any(|s| matches!(s.state, ShardState::Leased { .. }))
        {
            break; // remaining shards are computed in-process below
        }
        if live_shards(&shards) {
            std::thread::sleep(POLL);
        }
    }
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }

    // Final assembly, in grid order — this is where byte-identity to the
    // single-process run is decided. Poisoned shards yield explicit
    // poisoned rows; any other hole (shouldn't happen: every shard ends
    // Done or Poisoned) is computed in-process as a safety net.
    let mut instances = InstanceCache::new();
    let mut rows = Vec::with_capacity(grid.len());
    let mut certificates = Vec::new();
    let shard_of = |idx: usize| shards.iter().find(|sh| sh.range.lo <= idx && idx < sh.range.hi);
    for (idx, cell) in grid.iter().enumerate() {
        let seed = cell.cell_seed();
        let (row, cert) = if let Some(rec) = opts.journal.and_then(|j| j.lookup(seed)) {
            (rec.row.clone(), rec.certificate.clone())
        } else if let Some(rec) = merged.get(&seed) {
            (rec.row.clone(), rec.certificate.clone())
        } else if shard_of(idx).is_some_and(|sh| matches!(sh.state, ShardState::Poisoned)) {
            let inst = instances.get(cell);
            let out = (poisoned_row(cell, &inst), None);
            if let Some(journal) = opts.journal {
                journal.record(&CellRecord {
                    cell_seed: seed,
                    row: out.0.clone(),
                    certificate: None,
                });
            }
            out
        } else {
            if !spawn_broken {
                eprintln!(
                    "warning: --workers: cell {seed:#018x} missing from every worker segment; \
                     computing it in-process"
                );
            }
            let inst = instances.get(cell);
            let out = dispatch_cell(cell, &inst, spec.executor, opts.cell_timeout);
            if let Some(journal) = opts.journal {
                journal.record(&CellRecord {
                    cell_seed: seed,
                    row: out.0.clone(),
                    certificate: out.1.clone(),
                });
            }
            out
        };
        rows.extend(row);
        certificates.extend(cert);
    }
    if let Some(journal) = opts.journal {
        journal.sync();
    }

    // The workdir is scratch: remove it once fully harvested. Poisoned
    // shards keep it (their segments and the plan are the evidence).
    if shards.iter().all(|s| matches!(s.state, ShardState::Done)) {
        let _ = std::fs::remove_dir_all(&workdir);
        if let Some(parent) = workdir.parent() {
            // The journal-derived parent (`<journal>.work/`) holds one
            // workdir per experiment; reap it once the last one is gone.
            let _ = std::fs::remove_dir(parent);
        }
    }

    let planned_cells = grid.len();
    SweepReport {
        dropped_cells: planned_cells - rows.len(),
        planned_cells,
        rows,
        certificates,
        append_failures: opts.journal.map_or(0, |j| j.appends_lost()),
    }
}

/// Creates/cleans the workdir and writes the plan. On `resume`, a
/// matching existing plan keeps its segment journals and done markers
/// (shard-lease resumption); anything else — mismatched plan, fresh run —
/// starts clean. Stale leases and ready markers never survive a restart:
/// the processes that owned them are gone.
fn prepare_workdir(workdir: &Path, plan: &ShardPlan, resume: bool) -> std::io::Result<()> {
    std::fs::create_dir_all(workdir)?;
    let keep_segments = resume
        && wire::read_framed(&plan_path(workdir))
            .as_deref()
            .and_then(ShardPlan::from_bytes)
            .is_some_and(|old| old == *plan);
    for entry in std::fs::read_dir(workdir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let stale = name.starts_with("lease-")
            || name.starts_with("ready-")
            || (!keep_segments && (name.starts_with("seg-") || name.starts_with("done-")))
            || name == "plan";
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    wire::write_framed(&plan_path(workdir), &plan.to_bytes())
}

// ---------------------------------------------------------------------------
// Worker side.

/// Claims and executes shards until none are claimable. The caller
/// supplies the spec it resolved from its own arguments; the plan's
/// fingerprint must match the spec's, which proves both processes will
/// enumerate the identical grid. Returns `Err` on protocol violations
/// (missing/corrupt plan, fingerprint drift) — the supervisor treats the
/// resulting nonzero exit like any other worker death.
pub fn worker_main(workdir: &Path, spec: &SweepSpec) -> Result<(), String> {
    let plan = wire::read_framed(&plan_path(workdir))
        .as_deref()
        .and_then(ShardPlan::from_bytes)
        .ok_or_else(|| format!("no readable shard plan in {}", workdir.display()))?;
    let fingerprint = checkpoint::spec_fingerprint(&[spec]);
    if plan.fingerprint != fingerprint {
        return Err(format!(
            "shard plan fingerprint {:#018x} does not match this worker's spec {fingerprint:#018x} \
             (worker arguments drifted from the supervisor's)",
            plan.fingerprint
        ));
    }
    let grid = cells(spec);
    if grid.len() != plan.total_cells {
        return Err(format!(
            "shard plan covers {} cells but this worker enumerates {}",
            plan.total_cells,
            grid.len()
        ));
    }
    // Cells the shared journal already holds are the supervisor's to
    // splice; skip them (fingerprint already validated by the supervisor
    // that opened the journal — it spans *all* experiments of the
    // invocation, so it differs from this worker's per-spec one).
    let journaled: std::collections::HashSet<u64> = match &plan.main_journal {
        Some(path) => std::fs::read(path)
            .map(|bytes| checkpoint::parse_journal(&bytes).cells.into_keys().collect())
            .unwrap_or_default(),
        None => Default::default(),
    };

    let mut instances = InstanceCache::new();
    loop {
        let mut claimed_any = false;
        let mut all_done = true;
        for (s, range) in plan.shards.iter().enumerate() {
            if done_path(workdir, s).exists() {
                continue;
            }
            all_done = false;
            // The claim: exactly one renamer wins the ready marker.
            if std::fs::rename(ready_path(workdir, s), lease_path(workdir, s)).is_err() {
                continue;
            }
            claimed_any = true;
            run_shard(workdir, &plan, spec, &grid, &journaled, &mut instances, s, *range)?;
        }
        if all_done || !claimed_any {
            return Ok(());
        }
    }
}

/// Executes one claimed shard: heartbeat thread + segment journal + the
/// cells of `range` (skipping whatever the segment or the main journal
/// already holds), then the `done` marker.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    workdir: &Path,
    plan: &ShardPlan,
    spec: &SweepSpec,
    grid: &[Cell],
    journaled: &std::collections::HashSet<u64>,
    instances: &mut InstanceCache,
    s: usize,
    range: ShardRange,
) -> Result<(), String> {
    let lease = lease_path(workdir, s);
    let pid = std::process::id();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let beat_thread = {
        let lease = lease.clone();
        let stop = Arc::clone(&stop);
        let interval = Duration::from_millis(plan.heartbeat_ms.max(1));
        std::thread::spawn(move || {
            let mut beat = 1u64;
            loop {
                if faults::check(faults::Site::HeartbeatDrop).is_some() {
                    // The wedged-worker simulation: stop beating, keep the
                    // process (and its cell loop) running.
                    return;
                }
                if wire::write_framed(&lease, &heartbeat_body(pid, beat)).is_err() {
                    return;
                }
                beat += 1;
                let tick = Instant::now();
                while tick.elapsed() < interval {
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        })
    };
    let finish_beat = |stop: &std::sync::atomic::AtomicBool| {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    };

    let seg = seg_path(workdir, s);
    let resume = seg.exists();
    let seg = match Journal::open(&seg, resume, plan.fingerprint) {
        Ok(seg) => seg,
        Err(_) => {
            // A stale or torn segment from an unrelated run: start over.
            let _ = std::fs::remove_file(&seg);
            Journal::open(&seg, false, plan.fingerprint).map_err(|e| {
                finish_beat(&stop);
                format!("cannot open segment journal: {e}")
            })?
        }
    };

    let timeout = plan.cell_timeout_ms.map(Duration::from_millis);
    for cell in &grid[range.lo..range.hi] {
        let seed = cell.cell_seed();
        if journaled.contains(&seed) || seg.lookup(seed).is_some() {
            continue;
        }
        if faults::check(faults::Site::WorkerKill).is_some() {
            // The kill -9 simulation: die hard, mid-shard, no cleanup.
            std::process::abort();
        }
        if faults::check(faults::Site::LeaseSteal).is_some() {
            // The stolen-lease simulation: our lease vanishes under us.
            finish_beat(&stop);
            let _ = beat_thread.join();
            let _ = std::fs::remove_file(&lease);
            return Err(format!("lease for shard {s} was stolen (injected)"));
        }
        let inst = instances.get(cell);
        let out = dispatch_cell(cell, &inst, spec.executor, timeout);
        seg.record(&CellRecord { cell_seed: seed, row: out.0, certificate: out.1 });
    }
    seg.sync();
    wire::write_framed(&done_path(workdir, s), &heartbeat_body(pid, 0))
        .map_err(|e| format!("cannot write done marker for shard {s}: {e}"))?;
    finish_beat(&stop);
    let _ = beat_thread.join();
    let _ = std::fs::remove_file(&lease);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_the_grid_contiguously() {
        for total in [0usize, 1, 2, 3, 7, 16, 100, 1000] {
            for workers in [1usize, 2, 4, 8] {
                let shards = plan_shards(total, workers);
                if total == 0 {
                    assert!(shards.is_empty());
                    continue;
                }
                assert!(!shards.is_empty());
                assert!(shards.len() <= total, "never more shards than cells");
                assert_eq!(shards.first().unwrap().lo, 0);
                assert_eq!(shards.last().unwrap().hi, total);
                for w in shards.windows(2) {
                    assert_eq!(w[0].hi, w[1].lo, "contiguous, no gaps or overlap");
                }
                for sh in &shards {
                    assert!(sh.lo < sh.hi, "no empty shard");
                }
            }
        }
    }

    #[test]
    fn shard_sizes_are_balanced() {
        let shards = plan_shards(103, 4);
        let sizes: Vec<usize> = shards.iter().map(|s| s.hi - s.lo).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "shard sizes within one cell: {sizes:?}");
    }

    #[test]
    fn plan_file_round_trips() {
        let plan = ShardPlan {
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            experiment: "e8".into(),
            total_cells: 42,
            shards: plan_shards(42, 2),
            main_journal: Some(PathBuf::from("/tmp/sweep.ckpt")),
            cell_timeout_ms: Some(1500),
            heartbeat_ms: 100,
        };
        assert_eq!(ShardPlan::from_bytes(&plan.to_bytes()), Some(plan.clone()));
        let bare = ShardPlan { main_journal: None, cell_timeout_ms: None, ..plan };
        assert_eq!(ShardPlan::from_bytes(&bare.to_bytes()), Some(bare));
        assert_eq!(ShardPlan::from_bytes(b"not json"), None);
        assert_eq!(ShardPlan::from_bytes(b"{\"kind\":\"other\"}"), None);
    }

    #[test]
    fn heartbeats_round_trip() {
        let body = heartbeat_body(4321, 17);
        assert_eq!(parse_heartbeat(&body), Some((4321, 17)));
        assert_eq!(parse_heartbeat(b"garbage"), None);
    }

    #[test]
    fn workdir_preparation_respects_resume() {
        let dir = std::env::temp_dir().join(format!("rvz-supervisor-prep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = ShardPlan {
            fingerprint: 7,
            experiment: "t".into(),
            total_cells: 8,
            shards: plan_shards(8, 1),
            main_journal: None,
            cell_timeout_ms: None,
            heartbeat_ms: 100,
        };
        prepare_workdir(&dir, &plan, false).unwrap();
        std::fs::write(seg_path(&dir, 0), b"segment").unwrap();
        std::fs::write(done_path(&dir, 0), b"done").unwrap();
        std::fs::write(lease_path(&dir, 1), b"lease").unwrap();
        // Resume with the same plan: segments/done survive, leases never do.
        prepare_workdir(&dir, &plan, true).unwrap();
        assert!(seg_path(&dir, 0).exists());
        assert!(done_path(&dir, 0).exists());
        assert!(!lease_path(&dir, 1).exists());
        // A changed plan (different fingerprint) clears everything.
        let other = ShardPlan { fingerprint: 8, ..plan };
        prepare_workdir(&dir, &other, true).unwrap();
        assert!(!seg_path(&dir, 0).exists());
        assert!(!done_path(&dir, 0).exists());
        // A fresh (non-resume) run clears even a matching plan's segments.
        std::fs::write(seg_path(&dir, 0), b"segment").unwrap();
        prepare_workdir(&dir, &other, false).unwrap();
        assert!(!seg_path(&dir, 0).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
