//! Kill–resume differential (requires the `rvz-faults` feature; see
//! `[[test]]` in Cargo.toml): a journaled sweep is killed mid-run by
//! injected faults — hard aborts, a torn (short-write) append, and a
//! silent bit-flip — across several child processes, each resuming the
//! previous one's journal; the final resumed report must serialize
//! byte-identically to an uninterrupted run, for resume thread counts
//! 1, 2 and 8.
//!
//! The child processes are this same test binary re-invoked with
//! `--exact crash_resume_child_entry` and an env-selected role: the child
//! test function is a no-op in ordinary runs and only executes the
//! journaled sweep when `CRASH_RESUME_JOURNAL` is set (the standard
//! self-spawning pattern for abort-me tests). `RVZ_FAULTS` counters are
//! per-process, so each child gets its own kill depth.
//!
//! A second leg fails the journal's last append with an injected ENOSPC:
//! the record only reaches the file in the final `Journal::sync`, whose
//! failure must count and warn like any other — or, under
//! `--strict-checkpoint`, end the process with exit code 1.

use rvz_bench::checkpoint::{self, Journal};
use rvz_bench::sweep::{self, Delay, Executor, Family, RunOptions, SweepSpec, Variant};
use rvz_bench::wire;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const JOURNAL_ENV: &str = "CRASH_RESUME_JOURNAL";
const THREADS_ENV: &str = "CRASH_RESUME_THREADS";
const STRICT_ENV: &str = "CRASH_RESUME_STRICT";

/// The differential workload: small but multi-axis — fixed delays beside
/// the ∀-delay quantifier (so certificates ride the journal too) and two
/// families under the exact decider.
fn spec(threads: usize) -> SweepSpec {
    SweepSpec {
        experiment: "crash-resume",
        families: vec![Family::Line, Family::Spider3],
        sizes: vec![5, 6, 7],
        delays: vec![Delay::Zero, Delay::Fixed(1), Delay::Adversarial],
        variants: vec![Variant::BasicWalkFsa],
        pairs_per_cell: 3,
        seed: 0x5EED_C4A5,
        threads,
        executor: Executor::ExactDecide,
        agents: 2,
    }
}

fn fingerprint() -> u64 {
    checkpoint::spec_fingerprint(&[&spec(1)])
}

/// Canonical serialized form of a report (rows + certificates) — the
/// byte-equality the whole crash model promises.
fn serialized(report: &sweep::SweepReport) -> String {
    format!(
        "{}\n{}\nplanned={} dropped={}",
        serde_json::to_string_pretty(&report.rows).expect("serialize rows"),
        serde_json::to_string_pretty(&report.certificates).expect("serialize certificates"),
        report.planned_cells,
        report.dropped_cells,
    )
}

/// Child role: resume whatever the journal already holds and keep
/// sweeping, then print the report's append failures. Under an injected
/// `journal-append` fault the process aborts partway; without one it
/// completes. No-op unless spawned by the parent.
#[test]
fn crash_resume_child_entry() {
    let Ok(journal_path) = std::env::var(JOURNAL_ENV) else { return };
    let threads: usize = std::env::var(THREADS_ENV).ok().and_then(|t| t.parse().ok()).unwrap_or(2);
    let journal =
        Journal::open(Path::new(&journal_path), true, fingerprint()).expect("child journal open");
    journal.set_strict(std::env::var_os(STRICT_ENV).is_some());
    let opts = RunOptions { journal: Some(&journal), cell_timeout: None };
    let report = sweep::run_with_options(&spec(threads), &opts);
    println!("append_failures={}", report.append_failures);
}

/// The child on `journal` at `threads` threads, with the fault plan
/// `faults` and no other inherited knob.
fn child(journal: &Path, faults: Option<&str>, threads: usize) -> Command {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.arg("--exact")
        .arg("crash_resume_child_entry")
        .arg("--nocapture")
        .env(JOURNAL_ENV, journal)
        .env(THREADS_ENV, threads.to_string())
        .env_remove(STRICT_ENV);
    match faults {
        Some(f) => cmd.env("RVZ_FAULTS", f),
        None => cmd.env_remove("RVZ_FAULTS"),
    };
    cmd
}

fn spawn_child(journal: &Path, faults: Option<&str>) -> std::process::ExitStatus {
    child(journal, faults, 2)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn child")
}

#[test]
fn killed_sweeps_resume_byte_identical() {
    let reference = serialized(&sweep::run(&spec(1)));

    let dir = std::env::temp_dir().join(format!("rvz-crash-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let journal_path: PathBuf = dir.join("sweep.ckpt");

    // Kill the sweep at several depths. The bit-flip child *completes*
    // (the fault corrupts a record on disk without killing the writer),
    // but its corrupt record must be dropped and recomputed on resume.
    let kill_plans = [
        ("journal-append=abort@5", true),
        ("journal-append=short-write@11", true),
        ("journal-append=abort@23", true),
        ("journal-append=bit-flip@3", false),
    ];
    for (plan, kills) in kill_plans {
        let status = spawn_child(&journal_path, Some(plan));
        if kills {
            assert!(!status.success(), "fault plan {plan:?} should have killed the child");
        } else {
            assert!(status.success(), "non-killing plan {plan:?} should complete");
        }
    }
    // One fault-free child finishes whatever is left.
    assert!(spawn_child(&journal_path, None).success(), "clean child run should complete");

    // Resume from the completed journal at several thread counts: the
    // journal holds recovered cells and the report serializes
    // byte-identically to the uninterrupted reference.
    for threads in [1usize, 2, 8] {
        let journal = Journal::open(&journal_path, true, fingerprint()).expect("resume journal");
        assert!(journal.recovered_cells() > 0, "journal must hold recovered cells");
        let opts = RunOptions { journal: Some(&journal), cell_timeout: None };
        let resumed = sweep::run_with_options(&spec(threads), &opts);
        assert_eq!(
            serialized(&resumed),
            reference,
            "resumed report (threads={threads}) must be byte-identical to an uninterrupted run"
        );
    }

    // Fingerprint safety: resuming the same journal under a different
    // grid must be a hard error, not a silent splice of wrong rows.
    let mut other = spec(1);
    other.seed ^= 1;
    assert!(
        Journal::open(&journal_path, true, checkpoint::spec_fingerprint(&[&other])).is_err(),
        "resuming under a different spec fingerprint must fail"
    );

    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn enospc_in_the_final_sync_is_an_append_failure() {
    let dir = std::env::temp_dir().join(format!("rvz-crash-enospc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    // At one thread the last cell is the last append; the grid's records
    // fit one batch, so they first reach the file in the final sync.
    let cells = sweep::cells(&spec(1)).len();
    let plan = format!("journal-append=enospc@{cells}");

    let path = dir.join("degraded.ckpt");
    let out = child(&path, Some(&plan), 1).output().expect("spawn child");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "a failed append degrades, it does not fail the run: {stderr}");
    assert!(stderr.contains("disabled after append error"), "no append-failure warning: {stderr}");
    assert!(stdout.contains("append_failures=1\n"), "exactly the last record is lost: {stdout}");
    let bytes = std::fs::read(&path).expect("read journal");
    assert!(bytes.len() < wire::BATCH_BYTES, "one batch, so the final sync wrote every record");
    let snap = checkpoint::parse_journal(&bytes);
    assert!(!snap.torn_tail && snap.bad_records == 0, "the records before it landed whole");
    assert_eq!(snap.cells.len(), cells - 1);

    let path = dir.join("strict.ckpt");
    let out = child(&path, Some(&plan), 1).env(STRICT_ENV, "1").output().expect("spawn child");
    assert_eq!(out.status.code(), Some(1), "--strict-checkpoint makes the final failure fatal");

    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
