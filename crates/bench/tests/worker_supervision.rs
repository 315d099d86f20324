//! Multi-process supervision differential (requires the `rvz-faults`
//! feature; see `[[test]]` in Cargo.toml): the supervised merged report
//! must be byte-identical to the single-process run for every worker
//! count, after an injected worker death mid-shard, after a silent
//! worker is killed for its missed heartbeats, and after a worker's batch
//! turns bad partway; blocks must leave the supervisor while workers
//! still run; a shard that keeps killing its workers must be quarantined
//! as explicit poisoned rows instead of hanging or fabricating data.
//!
//! Worker subprocesses are this same test binary re-invoked with an
//! env-selected role. Workers speak frames on stdout, and a libtest child
//! prints its own lines there first, so this file has its own `main`
//! (`harness = false`): it dispatches the child roles before anything is
//! printed, and otherwise runs every leg. `RVZ_FAULTS` counters are
//! per-process, so each worker gets its own fault budget.

use rvz_bench::checkpoint::{self, Journal};
use rvz_bench::supervisor::{self, SupervisorConfig};
use rvz_bench::sweep::{
    self, Delay, Executor, Family, RunOptions, SweepInstance, SweepSpec, Variant,
};
use rvz_bench::wire;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const ROLE_ENV: &str = "WORKER_SUP_ROLE";
const DIR_ENV: &str = "WORKER_SUP_DIR";

/// How long the silent role sleeps: far longer than any leg may take.
const SILENCE: Duration = Duration::from_secs(60);

/// The differential workload: small but multi-axis — fixed delays beside
/// the ∀-delay quantifier, so certificates ride the result frames too.
fn spec(threads: usize) -> SweepSpec {
    SweepSpec {
        experiment: "worker-sup",
        families: vec![Family::Line, Family::Spider3],
        sizes: vec![5, 6],
        delays: vec![Delay::Zero, Delay::Fixed(1), Delay::Adversarial],
        variants: vec![Variant::BasicWalkFsa],
        pairs_per_cell: 2,
        seed: 0x5EED_F0C5,
        threads,
        executor: Executor::ExactDecide,
        agents: 2,
    }
}

/// Canonical serialized form of a report (rows + certificates) — the
/// byte-equality the supervisor promises.
fn serialized(report: &sweep::SweepReport) -> String {
    format!(
        "{}\n{}\nplanned={} dropped={}",
        serde_json::to_string_pretty(&report.rows).expect("serialize rows"),
        serde_json::to_string_pretty(&report.certificates).expect("serialize certificates"),
        report.planned_cells,
        report.dropped_cells,
    )
}

/// A child: this test binary in `role` (`worker` serves the workdir's
/// plan, `silent` only sleeps, `partial` sends one good record and one
/// foreign one), with no inherited fault plan (legs inject their own per
/// child).
fn role_cmd(role: &str, workdir: &Path) -> Command {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.env(ROLE_ENV, role).env(DIR_ENV, workdir).env_remove("RVZ_FAULTS");
    cmd
}

/// CI-speed supervision knobs: short backoff, and a timeout generous
/// enough that a debug-build worker never misses it by accident.
fn cfg(workers: usize, dir: &Path) -> SupervisorConfig {
    let mut cfg = SupervisorConfig::new(workers);
    cfg.heartbeat_timeout = Duration::from_millis(1500);
    cfg.backoff_base = Duration::from_millis(20);
    cfg.workdir = Some(dir.to_path_buf());
    cfg
}

fn temp_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rvz-worker-sup-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs the supervised sweep and asserts its report is byte-identical to
/// the single-process run's.
fn assert_supervised_identical(
    opts: &RunOptions<'_>,
    config: &SupervisorConfig,
    spawn: &mut dyn FnMut(&Path) -> Command,
    what: &str,
) -> sweep::SweepReport {
    let report = supervisor::run_supervised(&spec(1), opts, config, spawn);
    let reference = serialized(&sweep::run(&spec(1)));
    assert_eq!(serialized(&report), reference, "{what} must be byte-identical to single-process");
    report
}

fn supervised_reports_are_byte_identical_across_worker_counts() {
    let base = temp_base("counts");
    for workers in [1usize, 2, 4] {
        let dir = base.join(format!("w{workers}"));
        let what = format!("the supervised report (workers={workers})");
        assert_supervised_identical(
            &RunOptions::default(),
            &cfg(workers, &dir),
            &mut |d: &Path| role_cmd("worker", d),
            &what,
        );
        assert!(!dir.exists(), "a fully harvested workdir is scratch and must be removed");
    }
    let _ = std::fs::remove_dir_all(&base);
}

fn killed_worker_is_reassigned_and_output_unchanged() {
    let base = temp_base("kill");
    // Only the first spawned worker carries the kill plan: it completes
    // one cell, then dies hard (the kill -9 simulation) mid-shard, before
    // its batch is due. Every cell it owed must be reassigned.
    let mut spawned = 0usize;
    let mut spawn = |workdir: &Path| {
        spawned += 1;
        let mut cmd = role_cmd("worker", workdir);
        if spawned == 1 {
            cmd.env("RVZ_FAULTS", "worker-kill=abort@2");
        }
        cmd
    };
    let what = "the report after a worker death mid-shard";
    assert_supervised_identical(&RunOptions::default(), &cfg(2, &base), &mut spawn, what);
    assert!(spawned >= 2, "the dead worker must have been replaced (spawned {spawned})");
    let _ = std::fs::remove_dir_all(&base);
}

fn blocks_stream_out_while_workers_run() {
    let base = temp_base("stream");
    // One worker at a time, on four shards of one instance each. The
    // first worker answers its whole first shard, then dies on the second
    // cell of its next one. The supervisor hands a block to the sink as
    // soon as its instance is in, so the first block is out before the
    // replacement is spawned.
    let blocks = AtomicUsize::new(0);
    let (mut spawned, mut before_replacement) = (0usize, None);
    let mut spawn = |workdir: &Path| {
        spawned += 1;
        let mut cmd = role_cmd("worker", workdir);
        match spawned {
            1 => drop(cmd.env("RVZ_FAULTS", "worker-kill=abort@8")),
            2 => before_replacement = Some(blocks.load(Ordering::SeqCst)),
            _ => {}
        }
        cmd
    };
    let mut report = sweep::SweepReport::default();
    let sink = |block| {
        blocks.fetch_add(1, Ordering::SeqCst);
        report.push(block);
    };
    let config = cfg(1, &base);
    supervisor::run_supervised_into(
        &spec(1),
        &RunOptions::default(),
        &config,
        &mut spawn,
        |b| b,
        sink,
    );
    assert_eq!(serialized(&report), serialized(&sweep::run(&spec(1))));
    let streamed = before_replacement.expect("the dead worker must have been replaced");
    assert!(streamed > 0, "no block left the supervisor before the replacement was spawned");
    let _ = std::fs::remove_dir_all(&base);
}

fn silent_worker_is_killed_and_its_shard_reassigned() {
    let base = temp_base("silent");
    // The first spawned worker neither reads its assignment nor writes a
    // frame. Only the heartbeat timeout can free its shard: without it
    // the run would wait out the whole SILENCE.
    let mut config = cfg(2, &base);
    config.heartbeat_timeout = Duration::from_millis(500);
    let mut spawned = 0usize;
    let mut spawn = |workdir: &Path| {
        spawned += 1;
        role_cmd(if spawned == 1 { "silent" } else { "worker" }, workdir)
    };
    let t = Instant::now();
    let what = "the report after a silent worker's shard moved";
    assert_supervised_identical(&RunOptions::default(), &config, &mut spawn, what);
    assert!(t.elapsed() < SILENCE / 2, "the silent worker must be timed out, not waited for");
    let _ = std::fs::remove_dir_all(&base);
}

fn attempt_cap_quarantines_shards_as_poisoned() {
    let base = temp_base("poison");
    // EVERY worker dies before its first cell: every shard exhausts the
    // attempt cap. The run must terminate (no hang) and quarantine every
    // cell as an explicit poisoned row — never fabricated measurements.
    let mut config = cfg(2, &base);
    config.max_shard_attempts = 2;
    config.heartbeat_timeout = Duration::from_millis(400);
    config.backoff_base = Duration::from_millis(10);
    let mut spawn = |workdir: &Path| {
        let mut cmd = role_cmd("worker", workdir);
        cmd.env("RVZ_FAULTS", "worker-kill=abort@1");
        cmd
    };
    let report = supervisor::run_supervised(&spec(1), &RunOptions::default(), &config, &mut spawn);
    assert!(!report.rows.is_empty());
    assert_eq!(report.rows.len() + report.dropped_cells, report.planned_cells);
    for row in &report.rows {
        assert_eq!(row.poisoned, Some(true), "every surviving row must be poisoned");
        assert!(!row.met, "a poisoned row records no run");
        assert!(!row.certified);
        assert_eq!(row.timed_out, None, "poisoned, not timed out");
    }
    assert!(report.certificates.is_empty(), "no run ⇒ no certificates");
    assert!(base.exists(), "a poisoned run keeps its workdir as evidence");
    let _ = std::fs::remove_dir_all(&base);
}

fn supervised_runs_share_the_checkpoint_journal() {
    let base = temp_base("journal");
    let journal_path = base.join("sweep.ckpt");
    let fingerprint = checkpoint::spec_fingerprint(&[&spec(1)]);
    let planned = {
        let journal = Journal::open(&journal_path, false, fingerprint).expect("journal open");
        let opts = RunOptions { journal: Some(&journal), cell_timeout: None };
        let config = cfg(2, &base.join("work"));
        let what = "the journaled supervised report";
        assert_supervised_identical(&opts, &config, &mut |d: &Path| role_cmd("worker", d), what)
            .planned_cells
    };
    // Every cell the workers computed must have reached the shared
    // journal; a plain in-process resume replays it byte-identically.
    let journal = Journal::open(&journal_path, true, fingerprint).expect("resume journal");
    assert_eq!(journal.recovered_cells(), planned, "every cell must be journaled");
    let opts = RunOptions { journal: Some(&journal), cell_timeout: None };
    let resumed = sweep::run_with_options(&spec(1), &opts);
    assert_eq!(serialized(&resumed), serialized(&sweep::run(&spec(1))));
    let _ = std::fs::remove_dir_all(&base);
}

/// The `partial` role: answers its first assignment with the record of
/// its first cell and, in the same write, the record of a cell it was not
/// given, then waits to be killed.
fn partial_worker() {
    let spec = spec(1);
    let grid = sweep::cells(&spec);
    let mut stdin = std::io::stdin().lock();
    let mut frame = Vec::new();
    assert!(wire::read_frame(&mut stdin, &mut frame).expect("an assignment frame"));
    let runs: Vec<(usize, usize)> = frame[8..]
        .chunks_exact(16)
        .map(|run| {
            let half = |at: usize| u64::from_le_bytes(run[at..at + 8].try_into().unwrap()) as usize;
            (half(0), half(8))
        })
        .collect();
    let foreign = (0..grid.len())
        .find(|&i| !runs.iter().any(|&(lo, hi)| lo <= i && i < hi))
        .expect("a cell outside the assignment");
    // The spec runs on the decider, so each record carries its outcome.
    assert_eq!(spec.executor, Executor::ExactDecide);
    let mut batch = Vec::new();
    for idx in [runs[0].0, foreign] {
        let cell = &grid[idx];
        let inst = SweepInstance::for_cell(cell);
        let outcome = sweep::run_cell_decide_certified(cell, &inst);
        wire::frame_with(&mut batch, |body| {
            checkpoint::encode_record(body, cell.cell_seed(), outcome.as_ref());
        });
    }
    let mut stdout = std::io::stdout().lock();
    stdout.write_all(&batch).and_then(|()| stdout.flush()).expect("write the batch");
    let _ = std::io::copy(&mut stdin, &mut std::io::sink());
}

fn partial_batch_keeps_its_valid_prefix() {
    let base = temp_base("partial");
    let journal_path = base.join("sweep.ckpt");
    let fingerprint = checkpoint::spec_fingerprint(&[&spec(1)]);
    // One worker at a time: the first gets shard 0, whose first cell is
    // grid cell 0, and its replacement starts on shard 1 while shard 0
    // backs off. So the journal's first record tells whether the valid
    // record was kept or recomputed.
    let mut spawned = 0usize;
    let mut spawn = |workdir: &Path| {
        spawned += 1;
        role_cmd(if spawned == 1 { "partial" } else { "worker" }, workdir)
    };
    let planned = {
        let journal = Journal::open(&journal_path, false, fingerprint).expect("journal open");
        let opts = RunOptions { journal: Some(&journal), cell_timeout: None };
        let config = cfg(1, &base.join("work"));
        let what = "the report after a batch that turned bad partway";
        assert_supervised_identical(&opts, &config, &mut spawn, what).planned_cells
    };
    assert!(spawned >= 2, "the worker that sent a foreign record must be replaced");
    let bytes = std::fs::read(&journal_path).expect("read journal");
    let (frames, clean) = wire::read_records(&bytes);
    assert!(clean);
    assert_eq!(frames.len(), 1 + planned, "the header, then every cell exactly once");
    assert_eq!(checkpoint::parse_journal(&bytes).cells.len(), planned);
    let (first, _) = checkpoint::decode_record(frames[1]).expect("a record");
    assert_eq!(
        first,
        sweep::cells(&spec(1))[0].cell_seed(),
        "the valid record ahead of the foreign one is journaled as it arrived"
    );
    let _ = std::fs::remove_dir_all(&base);
}

fn main() {
    match std::env::var(ROLE_ENV).as_deref() {
        Ok("worker") => {
            let dir = std::env::var(DIR_ENV).expect("worker role needs its workdir");
            if let Err(e) = supervisor::worker_main(Path::new(&dir), &[&spec(1)]) {
                eprintln!("worker child: {e}");
                std::process::exit(1);
            }
            return;
        }
        Ok("silent") => {
            std::thread::sleep(SILENCE);
            return;
        }
        Ok("partial") => {
            partial_worker();
            return;
        }
        Ok(other) => panic!("unknown {ROLE_ENV} `{other}`"),
        Err(_) => {}
    }

    // Each leg paired with its name, for the report.
    macro_rules! legs {
        ($($leg:ident),*) => { [$((stringify!($leg), $leg as fn())),*] };
    }
    let legs = legs!(
        supervised_reports_are_byte_identical_across_worker_counts,
        killed_worker_is_reassigned_and_output_unchanged,
        blocks_stream_out_while_workers_run,
        silent_worker_is_killed_and_its_shard_reassigned,
        attempt_cap_quarantines_shards_as_poisoned,
        supervised_runs_share_the_checkpoint_journal,
        partial_batch_keeps_its_valid_prefix
    );
    for (name, leg) in legs {
        println!("test {name} ...");
        leg();
        println!("test {name} ... ok");
    }
    println!("\ntest result: ok. {} passed", legs.len());
}
