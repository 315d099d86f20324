//! Multi-process sweep execution: a supervisor that shards the grid
//! across worker subprocesses and keeps the report byte-identical while
//! those workers die under it (`experiments --workers N`).
//!
//! **Model.** Every cell's row is a pure function of its coordinates
//! ([`crate::sweep`]), so *where* a cell is computed cannot change its
//! bytes — only *whether* it gets computed. The supervisor therefore
//! plans the grid into contiguous shards, hands them one at a time to the
//! workers it spawned, collects the finished cells from their stdout, and
//! hands each instance's block on **in grid order** as soon as it and every
//! block before it are in, from whatever process happened to compute each
//! cell. The result is byte-identical to a
//! single-process run for every `--workers` count and after any worker
//! death (pinned by `tests/worker_supervision.rs` and the
//! `scripts/crash_test.sh` worker legs).
//!
//! **Protocol.** The workdir holds a single file, `plan` (spec
//! fingerprint, experiment, cell count, `--cell-timeout`, beat interval),
//! which a worker reads at startup. Everything else is a
//! [`crate::wire`] frame on the worker's own pipes:
//!
//! | pipe | frame body | meaning |
//! |---|---|---|
//! | worker stdin | `[lo, hi)` grid-index runs | one shard's cells still missing |
//! | worker stdout | a [`checkpoint::record_body`] | one finished cell |
//! | worker stdout | empty | a beat, sent by the worker's beat thread |
//!
//! A worker batches its record frames: every frame finished since its
//! last write goes to stdout together, when the batch reaches
//! [`wire::BATCH_BYTES`], when a beat interval has passed since the last
//! write, and before the worker reads its next assignment. Its beat thread
//! writes only after a beat interval without a write, and then sends the
//! waiting batch, or a beat when none waits.
//!
//! One reader thread per worker reads its stdout through a
//! [`wire::BATCH_BYTES`] buffer, checks and decodes each frame, and passes
//! every burst of frames — each time the buffered bytes run out — as one
//! event on a shared channel. The supervisor blocks on that channel until
//! the next heartbeat expiry or backoff end. It accepts a burst's records
//! in assignment order and appends the accepted frames, as the worker
//! framed them, to the `--checkpoint` journal in one write, so a
//! `--resume` after a supervisor kill skips every cell it accepted. Any
//! event counts as liveness. A worker whose stdout ends, carries a bad
//! frame or a record it was not assigned is dead; one that stays silent
//! past the heartbeat timeout is killed. Either way the cells it still
//! owed are requeued with exponential backoff, and a shard that exceeds
//! the attempt cap is quarantined: its remaining cells become explicit
//! `poisoned` rows ([`crate::sweep::SweepRow::poisoned`]), never
//! fabricated measurements, mirroring the `timed_out` discipline. If
//! workers cannot spawn at all the supervisor degrades to in-process
//! execution with a warning.
//!
//! A worker exits when its stdin ends or a write to its stdout fails, so
//! it never outlives its supervisor. See docs/distributed.md for the
//! failure matrix.

use crate::checkpoint::{self, CellRecord};
use crate::sweep::{self, Block, Cell, RunOptions, SweepInstance, SweepReport, SweepSpec};
use crate::{faults, wire};
use serde::{Deserialize, JsonWriter, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Plan-file format version (the `plan` file's `version` field).
pub const PLAN_VERSION: u64 = 2;

/// The `plan` file's `kind` field.
const PLAN_KIND: &str = "rvz-shard-plan";

/// Shards per requested worker: small enough that assignments are rare
/// events, large enough that a crashed worker forfeits only a fraction of
/// its work and stragglers rebalance onto idle workers.
const SHARDS_PER_WORKER: usize = 4;

/// Most `[lo, hi)` runs in one assignment. At 16 bytes a run the frame
/// stays under 2.1 KiB, within the smallest pipe buffer Linux hands out
/// (one page), so writing it never blocks on a worker that has stopped
/// reading: a worker only gets a frame after it read the one before. A
/// shard with more runs is assigned in several pieces.
const MAX_RUNS: usize = 128;

/// Tuning knobs for [`run_supervised`]. `new` reads the documented
/// defaults, each overridable through an environment variable so the CI
/// fault legs can compress minutes of backoff into milliseconds:
/// `RVZ_HEARTBEAT_TIMEOUT_MS`, `RVZ_WORKER_BACKOFF_MS`,
/// `RVZ_SHARD_ATTEMPTS`.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker subprocess count (≥ 1; `--workers 0` never reaches here).
    pub workers: usize,
    /// A worker that sends no frame for this long is wedged: it is killed
    /// and its shard reassigned. Workers beat every twentieth of it.
    pub heartbeat_timeout: Duration,
    /// First reassignment delay; doubles per failed attempt.
    pub backoff_base: Duration,
    /// Attempts before a shard is quarantined as poisoned.
    pub max_shard_attempts: u32,
    /// Explicit workdir (tests); defaults next to the journal, or to a
    /// temp dir without one.
    pub workdir: Option<PathBuf>,
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.parse().ok()
}

impl SupervisorConfig {
    pub fn new(workers: usize) -> SupervisorConfig {
        SupervisorConfig {
            workers: workers.max(1),
            // A 0 ms timeout would derive a 0 ms beat; it means the default.
            heartbeat_timeout: Duration::from_millis(
                env_u64("RVZ_HEARTBEAT_TIMEOUT_MS").filter(|&ms| ms >= 1).unwrap_or(2000),
            ),
            backoff_base: Duration::from_millis(env_u64("RVZ_WORKER_BACKOFF_MS").unwrap_or(250)),
            max_shard_attempts: env_u64("RVZ_SHARD_ATTEMPTS")
                .and_then(|n| u32::try_from(n).ok())
                .filter(|&n| n >= 1)
                .unwrap_or(3),
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

/// The plan file: what a worker reads at startup. The fingerprint proves
/// the worker resolved the *same* spec the supervisor planned (workers
/// re-derive the spec from the original CLI arguments; the check turns
/// any drift into a hard error instead of wrong rows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Plan {
    /// Always [`PLAN_KIND`].
    kind: String,
    /// Always [`PLAN_VERSION`].
    version: u64,
    fingerprint: u64,
    experiment: String,
    total_cells: usize,
    /// `--cell-timeout`, forwarded so workers watchdog cells the same way.
    cell_timeout_ms: Option<u64>,
    /// The beat interval: the longest a worker with news leaves its
    /// stdout silent.
    beat_ms: u64,
}

impl Plan {
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = JsonWriter::new(false);
        self.write_json(&mut w);
        w.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Option<Plan> {
        serde_json::from_slice::<Plan>(bytes)
            .ok()
            .filter(|plan| plan.kind == PLAN_KIND && plan.version == PLAN_VERSION)
    }
}

/// An assignment frame's body: each `[lo, hi)` run as two little-endian
/// `u64`s.
fn encode_runs(runs: &[(usize, usize)]) -> Vec<u8> {
    runs.iter().flat_map(|&(lo, hi)| [lo as u64, hi as u64]).flat_map(u64::to_le_bytes).collect()
}

/// Decodes an assignment body; `Err` on a torn run or one that is empty
/// or leaves the `total`-cell grid.
fn decode_runs(body: &[u8], total: usize) -> Result<Vec<(usize, usize)>, String> {
    if !body.len().is_multiple_of(16) {
        return Err(format!("assignment body of {} bytes is not whole runs", body.len()));
    }
    body.chunks_exact(16)
        .map(|run| {
            let lo = u64::from_le_bytes(run[..8].try_into().expect("a 16-byte run"));
            let hi = u64::from_le_bytes(run[8..].try_into().expect("a 16-byte run"));
            if lo < hi && hi <= total as u64 {
                Ok((lo as usize, hi as usize))
            } else {
                Err(format!("assignment names cells {lo}..{hi} of a {total}-cell grid"))
            }
        })
        .collect()
}

/// The plan's cells by grid index, without a flattened copy of the grid:
/// every instance of the plan beside the grid index of its first cell.
/// The supervisor and every worker build the same one, so a grid index
/// names one cell in every process.
struct Grid<'a> {
    spec: &'a SweepSpec,
    experiment: Arc<str>,
    instances: Vec<Arc<SweepInstance>>,
    /// Instance `i` holds grid indices `offsets[i]..offsets[i + 1]`.
    offsets: Vec<usize>,
}

impl Grid<'_> {
    fn new(spec: &SweepSpec) -> Grid<'_> {
        let experiment = Arc::from(spec.experiment.as_str());
        let instances = sweep::instances(spec);
        let mut offsets = vec![0];
        for inst in &instances {
            offsets.push(offsets[offsets.len() - 1] + inst.cells(spec, &experiment).len());
        }
        Grid { spec, experiment, instances, offsets }
    }

    fn len(&self) -> usize {
        self.offsets[self.instances.len()]
    }

    /// The cells of grid indices `lo..hi`, each beside its instance, in
    /// grid order.
    fn run(&self, lo: usize, hi: usize) -> impl Iterator<Item = (Cell, &Arc<SweepInstance>)> {
        let overlaps = move |&i: &usize| self.offsets[i] < hi && lo < self.offsets[i + 1];
        (0..self.instances.len()).filter(overlaps).flat_map(move |i| {
            let (first, inst) = (self.offsets[i], &self.instances[i]);
            let cells = inst.cells(self.spec, &self.experiment).into_iter();
            cells.skip(lo.saturating_sub(first)).take(hi - first.max(lo)).map(move |c| (c, inst))
        })
    }
}

// ---------------------------------------------------------------------------
// Supervisor side.

struct Shard {
    range: ShardRange,
    /// Cells not in yet (journaled cells count as in).
    missing: usize,
    attempts: u32,
    /// End of the backoff after a failed attempt.
    not_before: Instant,
    poisoned: bool,
}

impl Shard {
    fn open(&self) -> bool {
        self.missing > 0 && !self.poisoned
    }
}

/// The cells that are in: journaled, sent by a worker, or of a poisoned
/// shard. A block is complete once its cells and all before them are in.
struct Arrivals {
    /// Per grid index: the journal holds the cell, or a worker sent it.
    arrived: Vec<bool>,
    /// The records workers sent for blocks not handed on yet, by grid index.
    pending: BTreeMap<usize, CellRecord>,
    /// The first instance not handed on yet.
    head: usize,
    /// The first grid index not in yet.
    frontier: usize,
}

impl Arrivals {
    /// The head instance's block once it is complete, in grid order: each
    /// cell from the record its worker sent, else through
    /// [`sweep::cell_result`] — its journaled record, a poisoned row, or,
    /// for a cell that never arrived, the cell computed in process (with a
    /// warning unless `quiet`).
    fn next_block(
        &mut self,
        grid: &Grid,
        shards: &[Shard],
        opts: &RunOptions,
        quiet: bool,
    ) -> Option<Block> {
        let poisoned =
            |idx| shards.iter().any(|sh| sh.poisoned && (sh.range.lo..sh.range.hi).contains(&idx));
        while self.arrived.get(self.frontier).is_some_and(|&a| a || poisoned(self.frontier)) {
            self.frontier += 1;
        }
        let i = self.head;
        let (lo, hi) = (*grid.offsets.get(i)?, *grid.offsets.get(i + 1)?);
        if hi > self.frontier {
            return None;
        }
        self.head += 1;
        let block = grid.run(lo, hi).zip(lo..).map(|((cell, inst), idx)| {
            if let Some(rec) = self.pending.remove(&idx) {
                return (rec.row, rec.certificate);
            }
            if !self.arrived[idx] && !poisoned(idx) && !quiet {
                eprintln!(
                    "warning: --workers: cell {:#018x} never arrived from a worker; \
                     computing it in-process",
                    cell.cell_seed()
                );
            }
            sweep::cell_result(&cell, inst, grid.spec.executor, opts, poisoned(idx))
        });
        Some(block.collect())
    }
}

/// A live worker process and the cells it owes.
struct Worker {
    /// Spawned with piped stdin and stdout; its stdin stays in place.
    child: Child,
    /// Ends at EOF on the child's stdout, so once the child is reaped.
    reader: JoinHandle<()>,
    last_heard: Instant,
    /// The shard it is computing, if any.
    shard: Option<usize>,
    /// Grid indices of the current assignment that have not arrived yet,
    /// in the order the worker computes them.
    owed: VecDeque<usize>,
}

impl Worker {
    /// Spawns worker `id` with piped stdio, and a reader thread that
    /// passes its stdout on to `events`, one [`Burst`] at a time, until
    /// the stream ends or breaks.
    fn spawn(
        spawn_worker: &mut dyn FnMut(&Path) -> Command,
        workdir: &Path,
        id: usize,
        events: &mpsc::Sender<(usize, Burst)>,
    ) -> std::io::Result<Worker> {
        let mut cmd = spawn_worker(workdir);
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut stdout = BufReader::with_capacity(wire::BATCH_BYTES, stdout);
        let events = events.clone();
        let reader = std::thread::spawn(move || loop {
            // Whole frames until the buffered bytes run out (a batch's
            // worth at most, so a reader that lags never withholds news).
            let mut burst = Burst { frames: Vec::new(), records: Vec::new(), gone: None };
            while burst.gone.is_none() && burst.frames.len() < wire::BATCH_BYTES {
                let start = burst.frames.len();
                match wire::read_frame(&mut stdout, &mut burst.frames) {
                    // A beat: liveness only.
                    Ok(true) if burst.frames.len() == start + 8 => burst.frames.truncate(start),
                    Ok(true) => match checkpoint::decode_record(&burst.frames[start + 8..]) {
                        Some(rec) => burst.records.push((rec, burst.frames.len())),
                        None => {
                            burst.frames.truncate(start);
                            burst.gone = Some("got an undecodable record from its worker".into());
                        }
                    },
                    Ok(false) => burst.gone = Some("lost its worker".into()),
                    Err(e) => burst.gone = Some(format!("got a bad frame from its worker ({e})")),
                }
                if stdout.buffer().is_empty() {
                    break;
                }
            }
            let gone = burst.gone.is_some();
            if events.send((id, burst)).is_err() || gone {
                return;
            }
        });
        Ok(Worker { child, reader, last_heard: Instant::now(), shard: None, owed: VecDeque::new() })
    }

    /// Kills and reaps the child, then joins its reader thread.
    fn stop(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.reader.join().expect("a worker's reader thread panicked");
    }

    /// Sends shard `s` the runs of its cells still missing (at most
    /// `MAX_RUNS` of them).
    fn assign(&mut self, s: usize, range: ShardRange, arrived: &[bool]) -> std::io::Result<()> {
        let mut runs = Vec::new();
        let mut lo = range.lo;
        for group in arrived[range.lo..range.hi].chunk_by(|a, b| a == b) {
            if !group[0] && runs.len() < MAX_RUNS {
                runs.push((lo, lo + group.len()));
            }
            lo += group.len();
        }
        self.shard = Some(s);
        self.owed = runs.iter().flat_map(|&(lo, hi)| lo..hi).collect();
        let mut frame = Vec::new();
        wire::frame_record(&mut frame, &encode_runs(&runs));
        self.child.stdin.as_mut().expect("piped stdin").write_all(&frame)
    }
}

/// What a worker's reader thread read from its stdout in one go.
struct Burst {
    /// The record frames, header and body, back to back (beats left out):
    /// journal bytes, exactly as the worker framed them.
    frames: Vec<u8>,
    /// Each decoded record, with the end of its frame in `frames`.
    records: Vec<(CellRecord, usize)>,
    /// Why the worker is gone, when its stream ended, broke or carried an
    /// undecodable record after these frames.
    gone: Option<String>,
}

/// Kills and reaps worker `w`. The cells it still owed stay missing in
/// its shard, which is retried after backoff or, past the attempt cap,
/// quarantined.
fn retire(
    workers: &mut [Option<Worker>],
    shards: &mut [Shard],
    w: usize,
    why: &str,
    cfg: &SupervisorConfig,
) {
    let Some(worker) = workers[w].take() else { return };
    let shard = worker.shard;
    worker.stop();
    let Some(s) = shard else { return };
    let shard = &mut shards[s];
    shard.attempts += 1;
    let failure = format!(
        "shard {s} (cells {}..{}) {why} on attempt {}/{}",
        shard.range.lo, shard.range.hi, shard.attempts, cfg.max_shard_attempts
    );
    if shard.attempts >= cfg.max_shard_attempts {
        eprintln!(
            "warning: --workers: {failure} — quarantining its remaining cells as poisoned rows"
        );
        shard.poisoned = true;
    } else {
        let backoff = cfg.backoff_base * 2u32.saturating_pow(shard.attempts - 1);
        eprintln!("warning: --workers: {failure} — reassigning after {backoff:?}");
        shard.not_before = Instant::now() + backoff;
    }
}

/// Runs `spec` through `cfg.workers` subprocesses and returns the merged
/// report: the collector over [`run_supervised_into`].
pub fn run_supervised(
    spec: &SweepSpec,
    opts: &RunOptions<'_>,
    cfg: &SupervisorConfig,
    spawn_worker: &mut dyn FnMut(&Path) -> Command,
) -> SweepReport {
    let mut report = SweepReport::default();
    run_supervised_into(spec, opts, cfg, spawn_worker, |block| block, |block| report.push(block));
    report.append_failures = opts.journal.map_or(0, |j| j.appends_lost());
    report
}

/// Runs `spec` through `cfg.workers` subprocesses and hands the merged
/// result to `sink`, one instance [`Block`] at a time in grid order, each
/// passed through `prepare` first, as [`sweep::run_into`] does in
/// process. A block leaves as soon as its cells and those of every block
/// before it are in. `spawn_worker` builds the worker command for a given
/// workdir (the CLI re-invokes itself with `--worker <dir>`; tests
/// re-invoke the test binary); the supervisor owns stdio, spawning,
/// killing and reaping. Falls back to in-process execution (with a
/// warning) when no worker can be spawned.
pub fn run_supervised_into<T: Send>(
    spec: &SweepSpec,
    opts: &RunOptions<'_>,
    cfg: &SupervisorConfig,
    spawn_worker: &mut dyn FnMut(&Path) -> Command,
    prepare: impl Fn(Block) -> T + Sync,
    mut sink: impl FnMut(T) + Send,
) {
    let grid = Grid::new(spec);
    let plan = Plan {
        kind: PLAN_KIND.into(),
        version: PLAN_VERSION,
        fingerprint: checkpoint::spec_fingerprint(&[spec]),
        experiment: spec.experiment.clone(),
        total_cells: grid.len(),
        cell_timeout_ms: opts.cell_timeout.map(|t| t.as_millis() as u64),
        beat_ms: ((cfg.heartbeat_timeout / 20).as_millis() as u64).max(1),
    };

    // Workdir: explicit (tests) > next to the journal > temp.
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
    if let Err(e) = std::fs::create_dir_all(&workdir)
        .and_then(|()| wire::write_framed(&workdir.join("plan"), &plan.to_bytes()))
    {
        eprintln!(
            "warning: --workers: cannot prepare workdir {}: {e}; running in-process",
            workdir.display()
        );
        return sweep::run_into(spec, opts, prepare, sink);
    }

    // Cells the journal already holds are in from the start, and never
    // assigned.
    let seeds: Vec<u64> = grid.run(0, grid.len()).map(|(c, _)| c.cell_seed()).collect();
    let journaled = |&seed: &u64| opts.journal.is_some_and(|j| j.lookup(seed).is_some());
    let arrived = seeds.iter().map(journaled).collect();
    let mut arrivals = Arrivals { arrived, pending: BTreeMap::new(), head: 0, frontier: 0 };
    let start = Instant::now();
    let mut shards: Vec<Shard> = plan_shards(grid.len(), cfg.workers)
        .into_iter()
        .map(|range| Shard {
            range,
            missing: arrivals.arrived[range.lo..range.hi].iter().filter(|&&a| !a).count(),
            attempts: 0,
            not_before: start,
            poisoned: false,
        })
        .collect();

    let (events, inbox) = mpsc::channel();
    let mut workers: Vec<Option<Worker>> = Vec::new();
    let mut spawn_broken = false;
    loop {
        // Hand on every block that is complete, in grid order.
        while let Some(block) = arrivals.next_block(&grid, &shards, opts, spawn_broken) {
            sink(prepare(block));
        }
        // Hand every shard that is due to an idle worker, spawning workers
        // up to the pool size while none is idle.
        loop {
            let now = Instant::now();
            let held = |s: usize| workers.iter().flatten().any(|w| w.shard == Some(s));
            let Some(s) = (0..shards.len())
                .find(|&s| shards[s].open() && shards[s].not_before <= now && !held(s))
            else {
                break;
            };
            let w = match workers.iter().position(|w| w.as_ref().is_some_and(|w| w.shard.is_none()))
            {
                Some(w) => w,
                None if !spawn_broken && workers.iter().flatten().count() < cfg.workers => {
                    match Worker::spawn(spawn_worker, &workdir, workers.len(), &events) {
                        Ok(worker) => {
                            workers.push(Some(worker));
                            workers.len() - 1
                        }
                        Err(e) => {
                            spawn_broken = true;
                            eprintln!(
                                "warning: --workers: cannot spawn worker process ({e}); \
                                 degrading to in-process execution"
                            );
                            continue;
                        }
                    }
                }
                None => break,
            };
            let worker = workers[w].as_mut().expect("live worker");
            if worker.assign(s, shards[s].range, &arrivals.arrived).is_err() {
                retire(&mut workers, &mut shards, w, "lost its worker", cfg);
            }
        }
        if !shards.iter().any(Shard::open) {
            break;
        }

        // Block until a burst arrives or the next heartbeat expiry or
        // backoff end. With no live worker and no backoff to wait out
        // (spawning failed), the rest is computed in-process below.
        let now = Instant::now();
        let expiries = workers.iter().flatten().map(|w| w.last_heard + cfg.heartbeat_timeout);
        let backoffs =
            shards.iter().filter(|sh| sh.open() && sh.not_before > now).map(|sh| sh.not_before);
        let Some(deadline) = expiries.chain(backoffs).min() else { break };
        match inbox.recv_timeout(deadline.saturating_duration_since(now)) {
            Ok((w, burst)) => {
                // Bursts a retired worker sent before it died are dropped.
                let Some(worker) = workers[w].as_mut() else { continue };
                worker.last_heard = Instant::now();
                // Records are accepted in the order the worker owes them,
                // up to the first it does not.
                let mut fault = burst.gone;
                let (mut accepted, mut accepted_bytes) = (0, 0);
                for (rec, end) in burst.records {
                    match (worker.shard, worker.owed.front()) {
                        (Some(s), Some(&idx)) if seeds[idx] == rec.cell_seed => {
                            arrivals.arrived[idx] = true;
                            arrivals.pending.insert(idx, rec);
                            shards[s].missing -= 1;
                            worker.owed.pop_front();
                            if worker.owed.is_empty() {
                                worker.shard = None;
                            }
                            (accepted, accepted_bytes) = (accepted + 1, end);
                        }
                        _ => {
                            fault = Some("got a record it did not assign".to_string());
                            break;
                        }
                    }
                }
                if let Some(journal) = opts.journal.filter(|_| accepted > 0) {
                    journal.append(&burst.frames[..accepted_bytes], accepted);
                }
                if let Some(why) = fault {
                    retire(&mut workers, &mut shards, w, &why, cfg);
                }
            }
            Err(_) => {
                // Timed out, so the inbox is drained and every
                // `last_heard` is current.
                let now = Instant::now();
                for w in 0..workers.len() {
                    if workers[w]
                        .as_ref()
                        .is_some_and(|w| now.duration_since(w.last_heard) >= cfg.heartbeat_timeout)
                    {
                        retire(&mut workers, &mut shards, w, "stopped heartbeating", cfg);
                    }
                }
            }
        }
    }
    for worker in workers.into_iter().flatten() {
        worker.stop();
    }

    // The blocks left, in grid order. Poisoned shards yield explicit
    // poisoned rows; any other hole (after a spawn failure, or as a safety
    // net) is computed in-process.
    arrivals.frontier = grid.len();
    while let Some(block) = arrivals.next_block(&grid, &shards, opts, spawn_broken) {
        sink(prepare(block));
    }
    if let Some(journal) = opts.journal {
        journal.sync();
    }

    // The workdir is scratch: remove it unless a shard was poisoned (its
    // plan is then kept as evidence).
    if !shards.iter().any(|sh| sh.poisoned) {
        let _ = std::fs::remove_dir_all(&workdir);
        if let Some(parent) = workdir.parent() {
            // The journal-derived parent (`<journal>.work/`) holds one
            // workdir per experiment; reap it once the last one is gone.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side.

/// Record frames waiting for stdout. The cell loop and the beat thread
/// share it, so each `write` carries whole frames in the order the cells
/// finished.
struct Outbox {
    frames: Vec<u8>,
    /// When stdout was last written (`None`: never).
    last_write: Option<Instant>,
}

impl Outbox {
    /// Whether a beat interval has passed since the last write.
    fn due(&self, beat: Duration) -> bool {
        self.last_write.is_none_or(|t| t.elapsed() >= beat)
    }

    /// Writes the waiting frames to stdout in one go — or, when none wait,
    /// a beat.
    fn send(&mut self) -> std::io::Result<()> {
        if self.frames.is_empty() {
            wire::frame_record(&mut self.frames, &[]);
        }
        let mut out = std::io::stdout().lock();
        out.write_all(&self.frames)?;
        out.flush()?;
        self.frames.clear();
        self.last_write = Some(Instant::now());
        Ok(())
    }
}

/// Serves assignments from stdin until it ends, answering each cell with
/// a record frame on stdout — batched as the module docs describe — while
/// a beat thread keeps the supervisor hearing from it. The caller supplies
/// the specs it resolved from its own arguments; the plan names the one to
/// serve, and its fingerprint must match the spec's, which proves both
/// processes enumerate the identical grid. Returns `Err` on a protocol
/// violation (missing or corrupt plan, fingerprint drift, a bad assignment
/// frame) or a failed write — the supervisor treats the resulting nonzero
/// exit like any other worker death.
pub fn worker_main(workdir: &Path, specs: &[&SweepSpec]) -> Result<(), String> {
    let plan = wire::read_framed(&workdir.join("plan"))
        .as_deref()
        .and_then(Plan::from_bytes)
        .ok_or_else(|| format!("no readable shard plan in {}", workdir.display()))?;
    let spec = specs.iter().find(|s| s.experiment == plan.experiment).ok_or_else(|| {
        format!("the shard plan is for `{}`, not one of this worker's experiments", plan.experiment)
    })?;
    let fingerprint = checkpoint::spec_fingerprint(&[spec]);
    if plan.fingerprint != fingerprint {
        return Err(format!(
            "shard plan fingerprint {:#018x} does not match this worker's spec {fingerprint:#018x} \
             (worker arguments drifted from the supervisor's)",
            plan.fingerprint
        ));
    }

    // Beats start before the grid is planned, which can take a while,
    // because the supervisor's timeout runs from the spawn. Detached on
    // purpose: it beats for as long as this process lives.
    let beat = Duration::from_millis(plan.beat_ms.max(1));
    let outbox = Arc::new(Mutex::new(Outbox { frames: Vec::new(), last_write: None }));
    let beats = Arc::clone(&outbox);
    std::thread::spawn(move || loop {
        if faults::check(faults::Site::HeartbeatDrop).is_some() {
            // The wedged-worker simulation: stop beating, keep the
            // process (and its cell loop) running.
            return;
        }
        let mut outbox = beats.lock().expect("outbox lock");
        if outbox.due(beat) && outbox.send().is_err() {
            // The supervisor is gone; so is this worker.
            std::process::exit(1);
        }
        drop(outbox);
        std::thread::sleep(beat);
    });
    let sent = |result: std::io::Result<()>| {
        result.map_err(|e| format!("cannot write to the supervisor: {e}"))
    };

    let grid = Grid::new(spec);
    if grid.len() != plan.total_cells {
        return Err(format!(
            "shard plan covers {} cells but this worker enumerates {}",
            plan.total_cells,
            grid.len()
        ));
    }

    let cell_timeout = plan.cell_timeout_ms.map(Duration::from_millis);
    let opts = RunOptions { journal: None, cell_timeout };
    let mut stdin = std::io::stdin().lock();
    let mut assignment = Vec::new();
    while wire::read_frame(&mut stdin, &mut assignment)
        .map_err(|e| format!("bad assignment frame: {e}"))?
    {
        for (lo, hi) in decode_runs(&assignment[8..], grid.len())? {
            for (cell, inst) in grid.run(lo, hi) {
                if faults::check(faults::Site::WorkerKill).is_some() {
                    // The kill -9 simulation: die hard, mid-shard.
                    std::process::abort();
                }
                let (row, certificate) =
                    sweep::cell_result(&cell, inst, spec.executor, &opts, false);
                let rec = CellRecord { cell_seed: cell.cell_seed(), row, certificate };
                let body = checkpoint::record_body(&rec);
                let mut outbox = outbox.lock().expect("outbox lock");
                wire::frame_record(&mut outbox.frames, &body);
                // The time check is the cell loop's own, so results keep
                // flowing when the beat thread is wedged.
                if outbox.frames.len() >= wire::BATCH_BYTES || outbox.due(beat) {
                    sent(outbox.send())?;
                }
            }
        }
        assignment.clear();
        // The whole assignment is answered before the next one is read.
        let mut outbox = outbox.lock().expect("outbox lock");
        if !outbox.frames.is_empty() {
            sent(outbox.send())?;
        }
    }
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
        let plan = Plan {
            kind: PLAN_KIND.into(),
            version: PLAN_VERSION,
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            experiment: "e8".into(),
            total_cells: 42,
            cell_timeout_ms: Some(1500),
            beat_ms: 100,
        };
        assert_eq!(Plan::from_bytes(&plan.to_bytes()), Some(plan.clone()));
        let bare = Plan { cell_timeout_ms: None, ..plan };
        assert_eq!(Plan::from_bytes(&bare.to_bytes()), Some(bare));
        assert_eq!(Plan::from_bytes(b"not json"), None);
        assert_eq!(Plan::from_bytes(b"{\"kind\":\"other\"}"), None);
    }

    #[test]
    fn assignments_round_trip_and_stay_in_the_grid() {
        let runs = vec![(0, 3), (5, 6), (9, 12)];
        assert_eq!(decode_runs(&encode_runs(&runs), 12), Ok(runs.clone()));
        assert!(decode_runs(&encode_runs(&runs), 11).is_err(), "a cell outside the grid");
        assert!(decode_runs(&encode_runs(&[(4, 4)]), 12).is_err(), "an empty run");
        assert!(decode_runs(&encode_runs(&runs)[..20], 12).is_err(), "a torn run");
    }
}
