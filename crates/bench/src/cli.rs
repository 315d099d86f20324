//! The experiment driver.
//!
//! Two modes (see README.md for the full flag reference):
//!
//! **Sweep mode** — the parallel batch engine over an experiment's grid:
//!
//! ```text
//! experiments --experiment e6 [--json out.json] [--threads N]
//!             [--sizes 16,32,64] [--pairs K] [--seed S]
//!             [--executor replay|stepping|decide]
//!             [--certificates certs.json] [--workers N] [--agents K]
//! ```
//!
//! Emits the rendered table plus, with `--json FILE.json`, the raw
//! [`crate::sweep::SweepRow`] records, and with `--certificates`, the
//! exact decider's lasso certificates. Output is byte-identical for every
//! `--threads` value (deterministic per-cell seeding). `e9`/`e10`/`e11`
//! (the exhaustive certification sweeps) default to `--executor decide`
//! and print their summary tables instead of their thousands of rows.
//!
//! **Classic mode** — regenerates the per-experiment paper tables (kept
//! for continuity with the seed repo):
//!
//! ```text
//! experiments [e1 e2 ... e8 | all] [--full] [--json DIR]
//! ```

use crate::reports::{Buffers, CertificatesBlock, CertificatesFile, RowsBlock, RowsFile, Summary};
use crate::{
    checkpoint, e1, e10, e11, e2, e3, e4, e5, e6, e7, e8, e9, stores, supervisor, sweep, Table,
};
use serde::JsonWriter;
use std::io::Write;
use std::process::exit;

/// The base seed of every sweep without `--seed`, and of classic mode.
/// `--help` prints it in decimal, the only form `--seed` parses.
const DEFAULT_SEED: u64 = 0x5EED_2010;

struct Cfg {
    full: bool,
    json: Option<String>,
}

/// Entry point for the `experiments` binary: parses `std::env::args`.
pub fn run_from_env() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run_with_args(&args);
}

/// Testable entry point.
pub fn run_with_args(args: &[String]) {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }

    // Hidden worker entry point (`--worker DIR`, exact match — distinct
    // from the public `--workers N`): this process is a supervised worker
    // subprocess; see docs/distributed.md.
    if let Some(dir) = flag_value(args, "--worker") {
        run_worker_mode(args, &dir);
        return;
    }

    let json = flag_value(args, "--json");
    let experiments = flag_value(args, "--experiment");

    if let Some(ids) = experiments {
        run_sweep_mode(args, &ids, json);
    } else {
        run_classic_mode(args, json);
    }
}

/// `--flag value` lookup. A present flag whose next token is missing or is
/// itself a flag is an error, not a silent misparse.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => {
            eprintln!("error: {flag} needs a value");
            exit(2);
        }
    }
}

/// Bare-flag lookup (`--resume` takes no value).
fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses a numeric flag that must be ≥ 1 when given at all: an explicit
/// `0` (or garbage) is an error, not a silent fallback — `--threads 0`
/// used to be accepted as "all cores", indistinguishable from a typo'd
/// thread count.
fn positive_flag(args: &[String], flag: &str, zero_hint: &str) -> Option<u64> {
    let raw = flag_value(args, flag)?;
    match raw.parse::<u64>() {
        Ok(0) | Err(_) => {
            eprintln!("error: bad {flag} `{raw}` (must be a positive integer; {zero_hint})");
            exit(2);
        }
        Ok(v) => Some(v),
    }
}

/// Parses a numeric flag where `0` is a meaningful value (`--workers 0`
/// means "in-process, no subprocesses" — the documented off switch, not
/// an error). Garbage and negative values are still rejected.
fn nonnegative_flag(args: &[String], flag: &str, zero_hint: &str) -> Option<u64> {
    let raw = flag_value(args, flag)?;
    match raw.parse::<u64>() {
        Err(_) => {
            eprintln!("error: bad {flag} `{raw}` (must be a nonnegative integer; {zero_hint})");
            exit(2);
        }
        Ok(v) => Some(v),
    }
}

/// Parses `--sizes`: comma-separated positive integers, sorted and
/// deduplicated (a duplicated size used to duplicate every cell — and
/// every JSON row — of that size; now it is collapsed with a warning,
/// returned in `Ok((sizes, duplicates_dropped))`). Size 0 is rejected
/// outright instead of building a degenerate instance.
fn parse_sizes(s: &str) -> Result<(Vec<usize>, usize), String> {
    let mut sizes: Vec<usize> = Vec::new();
    for t in s.split(',').filter(|t| !t.is_empty()) {
        let n: usize = t.trim().parse().map_err(|_| format!("bad size `{t}` in --sizes"))?;
        if n == 0 {
            return Err("size 0 in --sizes (trees need at least one node)".into());
        }
        sizes.push(n);
    }
    if sizes.is_empty() {
        return Err("--sizes needs at least one size (e.g. --sizes 16,32)".into());
    }
    let given = sizes.len();
    sizes.sort_unstable();
    sizes.dedup();
    let dropped = given - sizes.len();
    Ok((sizes, dropped))
}

/// Pass 1 of sweep mode: resolve every requested spec up front, so the
/// checkpoint journal's fingerprint can cover the whole invocation
/// (resuming under a different grid must be a hard error, not a silent
/// row splice). Shared with worker mode ([`run_worker_mode`]), which must
/// re-resolve the *identical* specs from the forwarded arguments — the
/// plan's per-spec fingerprint turns any drift into a hard error. A
/// repeated experiment id runs once, with a warning; a list with no id is
/// an error. Errors exit 2 here; warnings are returned, not printed, so
/// that the workers, which share the supervisor's stderr, do not repeat
/// them.
fn resolve_sweep(
    args: &[String],
    ids: &str,
) -> (u64, Vec<(String, Vec<usize>, sweep::SweepSpec)>, Vec<String>) {
    let mut warnings = Vec::new();
    let explicit_sizes = flag_value(args, "--sizes").map(|s| {
        let (sizes, dropped) = parse_sizes(&s).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(2);
        });
        if dropped > 0 {
            warnings.push(format!(
                "warning: --sizes listed {dropped} duplicate size(s); \
                 deduplicated to {sizes:?} (duplicates would duplicate every row)"
            ));
        }
        sizes
    });
    let threads: usize =
        positive_flag(args, "--threads", "omit the flag to use all cores").unwrap_or(0) as usize;
    let seed: u64 = flag_value(args, "--seed")
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("error: bad --seed `{s}`");
                exit(2);
            })
        })
        .unwrap_or(DEFAULT_SEED);
    let pairs: usize = positive_flag(args, "--pairs", "omit the flag for the preset's default")
        .unwrap_or(0) as usize;
    // `--agents 1` parses but is rejected with its own message: a solo
    // walker has nobody to gather with, and silently running a 1-lane
    // "ensemble" would emit rows no schema describes.
    let agents: Option<usize> =
        match positive_flag(args, "--agents", "omit the flag for the pair default") {
            Some(1) => {
                eprintln!(
                    "error: bad --agents `1` (an ensemble has at least two agents; omit the \
                     flag for the pair default)"
                );
                exit(2);
            }
            other => other.map(|k| k as usize),
        };
    let executor = match flag_value(args, "--executor").as_deref() {
        None => None,
        Some("replay") => Some(sweep::Executor::TraceReplay),
        Some("stepping") => Some(sweep::Executor::DynStepping),
        Some("decide") => Some(sweep::Executor::ExactDecide),
        Some(other) => {
            eprintln!(
                "error: bad --executor `{other}` (expected `replay`, `stepping` or `decide`)"
            );
            exit(2);
        }
    };
    let mut planned: Vec<(String, Vec<usize>, sweep::SweepSpec)> = Vec::new();
    let mut duplicates = 0;
    for id in ids.split(',').filter(|t| !t.is_empty()) {
        let id = id.trim().to_lowercase();
        // A repeated id would run its grid twice and write every row and
        // certificate twice; the first occurrence is kept.
        if planned.iter().any(|(planned_id, _, _)| *planned_id == id) {
            duplicates += 1;
            continue;
        }
        // e9/e10/e11 enumerate *all* free trees per size: their own
        // default axes, and a hard cap where the tree count explodes.
        let enumerated = id == "e9" || id == "e10" || id == "e11";
        let sizes = explicit_sizes.clone().unwrap_or_else(|| match id.as_str() {
            "e9" => sweep::E9_DEFAULT_SIZES.to_vec(),
            "e10" => sweep::E10_DEFAULT_SIZES.to_vec(),
            "e11" => sweep::E11_DEFAULT_SIZES.to_vec(),
            _ => sweep::DEFAULT_SIZES.to_vec(),
        });
        if enumerated {
            if let Some(&n) = sizes.iter().find(|&&n| n > sweep::MAX_ENUM_SIZE) {
                eprintln!(
                    "error: {id} enumerates every free tree per size; n = {n} exceeds the \
                     cap of {} (A000055 grows exponentially)",
                    sweep::MAX_ENUM_SIZE
                );
                exit(2);
            }
        }
        let Some(mut spec) = sweep::preset(&id, &sizes, threads, seed) else {
            eprintln!("error: unknown experiment `{id}` (expected e1..e11)");
            exit(2);
        };
        if pairs > 0 {
            spec.pairs_per_cell = pairs;
        }
        // An explicit `--agents` overrides the preset's width everywhere;
        // absent, each preset keeps its own default (2 for e1–e10, 3 for
        // e11) — so `--experiment e11` alone already runs triples.
        if let Some(k) = agents {
            spec.agents = k;
        }
        // The certification workloads default to the exact decider; the
        // sampled grids default to stepping.
        spec.executor = executor.unwrap_or(if enumerated {
            sweep::Executor::ExactDecide
        } else {
            sweep::Executor::DynStepping
        });
        planned.push((id, sizes, spec));
    }
    if planned.is_empty() {
        eprintln!("error: --experiment lists no experiment (e.g. --experiment e6 or e9,e10)");
        exit(2);
    }
    if duplicates > 0 {
        let kept: Vec<&str> = planned.iter().map(|(id, _, _)| id.as_str()).collect();
        warnings.push(format!(
            "warning: --experiment listed {duplicates} duplicate id(s); running {} once each \
             (duplicates would duplicate every row)",
            kept.join(",")
        ));
    }
    (seed, planned, warnings)
}

/// Executes a supervised worker subprocess: re-resolves the sweep specs
/// from the forwarded arguments and hands them to
/// [`supervisor::worker_main`], which serves the one the workdir's plan
/// names. Any protocol violation is a nonzero exit — the supervisor
/// treats it like a worker death and reassigns the shard.
fn run_worker_mode(args: &[String], dir: &str) {
    let Some(ids) = flag_value(args, "--experiment") else {
        eprintln!("error: --worker needs --experiment (the supervisor forwards its arguments)");
        exit(2);
    };
    // The supervisor already printed the warnings.
    let (_, planned, _) = resolve_sweep(args, &ids);
    let specs: Vec<&sweep::SweepSpec> = planned.iter().map(|(_, _, s)| s).collect();
    if let Err(e) = supervisor::worker_main(std::path::Path::new(dir), &specs) {
        eprintln!("error: --worker: {e}");
        exit(1);
    }
}

fn run_sweep_mode(args: &[String], ids: &str, json: Option<String>) {
    let (seed, planned, warnings) = resolve_sweep(args, ids);
    for warning in &warnings {
        eprintln!("{warning}");
    }
    let certificates_path = flag_value(args, "--certificates");
    let checkpoint_path = flag_value(args, "--checkpoint");
    let resume = has_flag(args, "--resume");
    if resume && checkpoint_path.is_none() {
        eprintln!("error: --resume needs --checkpoint FILE (the journal to resume from)");
        exit(2);
    }
    let strict_checkpoint = has_flag(args, "--strict-checkpoint");
    if strict_checkpoint && checkpoint_path.is_none() {
        eprintln!("error: --strict-checkpoint needs --checkpoint FILE (the journal it hardens)");
        exit(2);
    }
    let store_dir = flag_value(args, "--store");
    let cell_timeout =
        positive_flag(args, "--cell-timeout", "a 0ms budget would quarantine every cell")
            .map(std::time::Duration::from_millis);
    let workers = nonnegative_flag(args, "--workers", "0 means in-process, no subprocesses")
        .unwrap_or(0) as usize;

    let journal = checkpoint_path.map(|path| {
        let specs: Vec<&sweep::SweepSpec> = planned.iter().map(|(_, _, s)| s).collect();
        let fingerprint = checkpoint::spec_fingerprint(&specs);
        let journal = checkpoint::Journal::open(std::path::Path::new(&path), resume, fingerprint)
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(2);
            });
        if resume {
            eprintln!(
                "resume: {} cell(s) recovered from {path}; they will be skipped",
                journal.recovered_cells()
            );
        }
        journal
    });
    if strict_checkpoint {
        if let Some(j) = &journal {
            j.set_strict(true);
        }
    }
    if let Some(dir) = &store_dir {
        let (trace, solo) = stores::load_all(std::path::Path::new(dir));
        if trace.loaded + solo.loaded > 0 {
            eprintln!(
                "store: {} trajectories and {} lassos loaded from {dir}",
                trace.loaded, solo.loaded
            );
        }
    }

    // The report files fill while the sweeps run, so a path that cannot be
    // created fails here, before the first cell. A single `--json` file
    // holds every experiment's rows; deliberately, no file records
    // --threads, so outputs are comparable byte-for-byte across thread
    // counts.
    let ids: Vec<&str> = planned.iter().map(|(id, _, _)| id.as_str()).collect();
    let shared_rows = json.as_deref().is_some_and(|path| path.ends_with(".json"));
    let mut rows_files: Vec<(String, RowsFile)> = match &json {
        None => Vec::new(),
        Some(path) if shared_rows => {
            let mut sizes: Vec<usize> =
                planned.iter().flat_map(|(_, sizes, _)| sizes.iter().copied()).collect();
            sizes.sort_unstable();
            sizes.dedup();
            vec![(path.clone(), create_report(path, |p| RowsFile::create(p, &ids, seed, &sizes)))]
        }
        Some(dir) => {
            // Directory: one file per experiment, like classic mode.
            create_dir(std::path::Path::new(dir));
            planned
                .iter()
                .map(|(id, sizes, _)| {
                    let file = format!("{dir}/{id}.json");
                    let rows = create_report(&file, |p| RowsFile::create(p, &[id], seed, sizes));
                    (file, rows)
                })
                .collect()
        }
    };
    // The exact decider's machine-checkable evidence: lasso certificates
    // for every never-meets verdict plus the universal (∀-delay) verdicts,
    // and the exhaustive summaries for e9/e10/e11.
    let mut certificates =
        certificates_path.map(|path| (create_report(&path, CertificatesFile::create), path));

    let mut summaries: Vec<Summary> = Vec::new();
    for (i, (id, _, spec)) in planned.iter().enumerate() {
        let opts = sweep::RunOptions { journal: journal.as_ref(), cell_timeout };
        let mut rows_file = rows_files.get_mut(if shared_rows { 0 } else { i }).map(|(_, f)| f);
        let mut certificates_file = certificates.as_mut().map(|(f, _)| f);
        let (render_rows, render_certificates) = (rows_file.is_some(), certificates_file.is_some());
        // Each block is rendered and folded on the worker that computed it,
        // which also drops its rows; the sink only appends bytes and merges
        // the folds, in grid order.
        let buffers = Buffers::default();
        let prepare = |block: sweep::Block| Prepared {
            rows: render_rows.then(|| RowsBlock::render(&block.rows, &buffers)),
            certificates: render_certificates
                .then(|| CertificatesBlock::render(&block.certificates, &buffers)),
            tally: Tally::of(&block),
            readout: Readout::of(id, block),
        };
        let (mut tally, mut readout) = (Tally::default(), Readout::new(id));
        let sink = |block: Prepared| {
            tally.merge(block.tally);
            if let (Some(file), Some(rows)) = (rows_file.as_mut(), block.rows) {
                file.write(rows, &buffers);
            }
            if let (Some(file), Some(certificates)) =
                (certificates_file.as_mut(), block.certificates)
            {
                file.write(certificates, &buffers);
            }
            readout.merge(block.readout);
        };
        if workers > 0 {
            let cfg = supervisor::SupervisorConfig::new(workers);
            // A worker gets the supervisor's own arguments plus `--worker
            // DIR` (worker mode ignores `--workers`), so it re-resolves the
            // same specs; the plan's fingerprint check catches any drift.
            let mut spawn = |workdir: &std::path::Path| {
                let exe = std::env::current_exe()
                    .unwrap_or_else(|_| std::path::PathBuf::from("experiments"));
                let mut cmd = std::process::Command::new(exe);
                cmd.args(args).arg("--worker").arg(workdir);
                cmd
            };
            supervisor::run_supervised_into(spec, &opts, &cfg, &mut spawn, prepare, sink);
        } else {
            sweep::run_into(spec, &opts, prepare, sink);
        }
        let append_failures = journal.as_ref().map_or(0, |j| j.appends_lost());
        let (table, summary) = readout.finish(id, spec, append_failures);
        println!("{}", table.render());
        if tally.planned > tally.rows {
            eprintln!(
                "warning: {id}: {} of {} planned cells dropped (fewer feasible start {} \
                 than --pairs on some instances)",
                tally.planned - tally.rows,
                tally.planned,
                sweep::Lanes::new(spec.agents).tuples
            );
        }
        if tally.timed_out > 0 {
            eprintln!(
                "warning: {id}: {} cell(s) quarantined by --cell-timeout \
                 (explicit timed_out rows; no run recorded for them)",
                tally.timed_out
            );
        }
        if tally.poisoned > 0 {
            eprintln!(
                "warning: {id}: {} cell(s) quarantined as poisoned (their shard \
                 exceeded the worker attempt cap; explicit poisoned rows, no run recorded)",
                tally.poisoned
            );
        }
        if append_failures > 0 {
            eprintln!(
                "warning: {id}: {append_failures} checkpoint journal append(s) failed — the \
                 journal on disk is incomplete (use --strict-checkpoint to make this fatal)"
            );
        }
        summaries.extend(summary);
    }

    if let Some(dir) = &store_dir {
        match stores::save_all(std::path::Path::new(dir)) {
            Ok((trace, solo)) => {
                eprintln!("store: {trace} trajectories and {solo} lassos flushed to {dir}")
            }
            // A failed flush only loses cache warm-up, never results.
            Err(e) => eprintln!("warning: could not flush stores to {dir}: {e}"),
        }
    }

    for (path, rows) in rows_files {
        published(&path, rows.publish());
        println!("  (raw rows written to {path})");
    }
    if let Some((file, path)) = certificates {
        published(&path, file.publish(&ids, seed, &summaries));
        println!("  (certificates written to {path})");
    }
}

/// One block as the sink takes it: rendered and folded on the worker that
/// computed it.
struct Prepared {
    rows: Option<RowsBlock>,
    certificates: Option<CertificatesBlock>,
    tally: Tally,
    readout: Readout,
}

/// What an experiment prints, folded block by block: the e9/e10/e11
/// summary, or for e1–e8 every row, because the per-row table aligns its
/// columns over all of them. The e1–e8 grids are small (at most 20
/// instances at the default sizes), the e9/e10/e11 grids the ones to
/// bound.
enum Readout {
    E9(e9::Fold),
    E10(e10::Fold),
    E11(e11::Fold),
    Rows(sweep::SweepReport),
}

impl Readout {
    fn new(id: &str) -> Readout {
        match id {
            "e9" => Readout::E9(e9::Fold::default()),
            "e10" => Readout::E10(e10::Fold::default()),
            "e11" => Readout::E11(e11::Fold::default()),
            _ => Readout::Rows(sweep::SweepReport::default()),
        }
    }

    /// The readout of experiment `id`'s `block` alone.
    fn of(id: &str, block: sweep::Block) -> Readout {
        let mut readout = Readout::new(id);
        match &mut readout {
            Readout::E9(fold) => fold.add(&block.rows, &block.certificates),
            Readout::E10(fold) => fold.add(&block.rows, &block.certificates),
            Readout::E11(fold) => fold.add(&block.rows, &block.certificates),
            // The per-row table reads no certificate.
            Readout::Rows(report) => {
                report.push(sweep::Block { certificates: Vec::new(), ..block })
            }
        }
        readout
    }

    /// Folds in `other`, the readout of the blocks after these.
    fn merge(&mut self, other: Readout) {
        match (self, other) {
            (Readout::E9(fold), Readout::E9(other)) => fold.merge(other),
            (Readout::E10(fold), Readout::E10(other)) => fold.merge(other),
            (Readout::E11(fold), Readout::E11(other)) => fold.merge(other),
            (Readout::Rows(report), Readout::Rows(other)) => report.push(sweep::Block {
                planned: other.planned_cells,
                rows: other.rows,
                certificates: Vec::new(),
            }),
            _ => unreachable!("the blocks of one experiment share its readout"),
        }
    }

    /// The table to print; the exhaustive sweeps print their summary
    /// instead of their thousands of raw rows (the rows still go to
    /// --json), and the same summary goes into the --certificates file.
    fn finish(
        self,
        id: &str,
        spec: &sweep::SweepSpec,
        append_failures: u64,
    ) -> (Table, Option<Summary>) {
        let summary = |key, rows: Box<dyn serde::Serialize>| Summary {
            experiment: id.to_string(),
            key,
            rows,
        };
        match self {
            Readout::E9(fold) => {
                let (sizes, table) = fold.finish();
                (table, Some(summary("sizes", Box::new(sizes))))
            }
            Readout::E10(fold) => {
                let (schedules, table) = fold.finish();
                (table, Some(summary("schedules", Box::new(schedules))))
            }
            Readout::E11(fold) => {
                let (schedules, table) = fold.finish();
                (table, Some(summary("schedules", Box::new(schedules))))
            }
            Readout::Rows(mut report) => {
                report.append_failures = append_failures;
                (sweep::to_table(spec, &report), None)
            }
        }
    }
}

/// The counts behind an experiment's warnings.
#[derive(Debug, Default)]
struct Tally {
    planned: usize,
    rows: usize,
    timed_out: usize,
    poisoned: usize,
}

impl Tally {
    fn of(block: &sweep::Block) -> Tally {
        let rows = &block.rows;
        Tally {
            planned: block.planned,
            rows: rows.len(),
            timed_out: rows.iter().filter(|r| r.timed_out == Some(true)).count(),
            poisoned: rows.iter().filter(|r| r.poisoned == Some(true)).count(),
        }
    }

    fn merge(&mut self, other: Tally) {
        self.planned += other.planned;
        self.rows += other.rows;
        self.timed_out += other.timed_out;
        self.poisoned += other.poisoned;
    }
}

/// Creates the report file at `path` with `create` (its temp sibling or
/// spool), after its parent directory; either failure is the CLI's exit-2
/// error.
fn create_report<F>(path: &str, create: impl FnOnce(&std::path::Path) -> std::io::Result<F>) -> F {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            create_dir(parent);
        }
    }
    create(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("error: cannot write `{path}`: {e}");
        exit(2);
    })
}

/// The outcome of publishing the report at `path`; an error is the CLI's
/// exit-2 error.
fn published(path: &str, result: std::io::Result<()>) {
    if let Err(e) = result {
        eprintln!("error: cannot write `{path}`: {e}");
        exit(2);
    }
}

/// Writes a classic-mode report file: one pretty-printed JSON object whose
/// members `fields` writes, plus a trailing newline. The object streams
/// into the temp sibling of [`crate::wire::atomic_write_with`] (→ fsync →
/// rename), so the report is never held whole in memory, and a kill
/// mid-write can never leave a torn half-payload under the real name.
fn write_json(path: &str, fields: impl FnOnce(&mut JsonWriter<'_>)) {
    create_report(path, |path| {
        crate::wire::atomic_write_with(path, |file| {
            let mut w = JsonWriter::with_sink(file, true);
            w.begin_object();
            fields(&mut w);
            w.end_object();
            w.finish()?;
            file.write_all(b"\n")
        })
    });
}

/// `create_dir_all`, or the CLI's exit-2 error when the directory cannot
/// be created (e.g. a path component is a regular file).
fn create_dir(dir: &std::path::Path) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
        eprintln!("error: cannot create `{}`: {e}", dir.display());
        exit(2);
    });
}

const CLASSIC_IDS: [&str; 8] = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"];

fn run_classic_mode(args: &[String], json_dir: Option<String>) {
    let full = args.iter().any(|a| a == "--full");
    let cfg = Cfg { full, json: json_dir };
    let wanted: Vec<String> = args
        .iter()
        .map(|a| a.to_lowercase())
        .filter(|a| a.starts_with('e') && a.len() == 2)
        .collect();
    for id in &wanted {
        if !CLASSIC_IDS.contains(&id.as_str()) {
            eprintln!("error: unknown experiment `{id}` (expected e1..e8 or `all`)");
            exit(2);
        }
    }
    let all = wanted.is_empty() || args.iter().any(|a| a == "all");
    let want = |id: &str| all || wanted.iter().any(|w| w == id);

    let seed = DEFAULT_SEED;

    if want("e1") {
        let samples = if cfg.full { 40 } else { 12 };
        let bits = if cfg.full { 8 } else { 6 };
        let (rows, table) = e1::run(bits, samples, seed);
        emit(&cfg, "e1", &table, &rows);
    }
    if want("e2") {
        let scale = if cfg.full { 256 } else { 48 };
        let (rows, table) = e2::run(scale, if cfg.full { 6 } else { 3 }, seed);
        emit(&cfg, "e2", &table, &rows);
    }
    if want("e3") {
        let sizes: &[usize] = if cfg.full {
            &[8, 16, 32, 64, 128, 256, 512, 1024, 2048]
        } else {
            &[8, 16, 32, 64, 128, 256]
        };
        let (rows, table) = e3::run(sizes, if cfg.full { 10 } else { 5 }, seed);
        emit(&cfg, "e3", &table, &rows);
    }
    if want("e4") {
        let samples = if cfg.full { 30 } else { 10 };
        let bits = if cfg.full { 5 } else { 4 };
        let (rows, table) = e4::run(bits, samples, 1 << 16, seed);
        emit(&cfg, "e4", &table, &rows);
    }
    if want("e5") {
        let states: &[usize] = if cfg.full { &[2, 3, 4, 5] } else { &[2, 3] };
        let (rows, table) = e5::run(states, if cfg.full { 10 } else { 5 }, 14, seed);
        let twins = e5::verify_symmetric_twins(10);
        println!(
            "E5 twin check: {twins} symmetric T1–T1 instances verified infeasible-by-symmetry"
        );
        emit(&cfg, "e5", &table, &rows);
    }
    if want("e6") {
        let sizes: &[usize] =
            if cfg.full { &[16, 32, 64, 128, 256, 512, 1024] } else { &[16, 32, 64, 128, 256] };
        let (rows, table) = e6::run(sizes, seed);
        emit(&cfg, "e6", &table, &rows);
    }
    if want("e7") {
        let (rows, table) = e7::run(if cfg.full { 60 } else { 20 }, seed);
        emit(&cfg, "e7", &table, &rows);
    }
    if want("e8") {
        let (rows, table) = e8::run(if cfg.full { 120_000_000 } else { 40_000_000 });
        emit(&cfg, "e8", &table, &rows);
    }
}

fn emit<R: serde::Serialize>(cfg: &Cfg, id: &str, table: &Table, rows: &R) {
    println!("{}", table.render());
    if let Some(dir) = &cfg.json {
        create_dir(std::path::Path::new(dir));
        let path = format!("{dir}/{id}.json");
        write_json(&path, |w| {
            w.field("table", table);
            w.field("rows", rows);
        });
        println!("  (raw rows written to {path})\n");
    }
}

fn print_help() {
    println!(
        "experiments — rendezvous experiment driver

Sweep mode (parallel batch engine):
  experiments --experiment ID[,ID...]  grid-sweep the experiment(s) (e1..e11)
    --json PATH     write raw rows; FILE.json = one file, else directory
    --certificates F.json  write the exact decider's lasso certificates
    --threads N     worker threads (default: all cores; explicit 0 is
                    rejected; output is identical for every N —
                    deterministic per-cell seeding)
    --sizes A,B,C   size axis, deduplicated (default {:?};
                    e9 defaults to {:?}, e10 to {:?}, e11 to {:?},
                    capped at {} — they enumerate EVERY free tree per size)
    --pairs K       start pairs per cell (default from preset; ignored by
                    e9/e10/e11, whose start axes are exhaustive)
    --agents K      ensemble width: K identical copies that must all
                    gather (default 2 — the pair sweep, byte-identical
                    rows; K > 2 bumps the row schema to rvz-sweep/v7
                    with `agents`/`start_rest` fields; e11 defaults to 3)
    --seed S        base seed (default {})
    --executor X    stepping (k-lane round loop per cell; default for
                    e1..e8), replay (trace-record/replay), or decide
                    (exact decider, budget-free, certifies never-meets;
                    default for e9/e10/e11) — rows are byte-identical
                    across executors except for decide's `certified` flag
    --checkpoint F  append-only crash-safe journal of completed cells
                    (length-prefixed, per-record checksummed)
    --resume        skip cells already journaled in --checkpoint F; the
                    final output is byte-identical to an uninterrupted run
    --store DIR     persistent trajectory/lasso caches: loaded (and
                    re-verified record by record) before the sweep,
                    flushed atomically after it; does nothing under
                    --workers (workers neither load nor add to it)
    --cell-timeout MS  per-cell wall budget: a cell exceeding it retries
                    once on the stepping executor, then is quarantined as
                    an explicit timed_out row (machine-dependent — breaks
                    cross-run byte-identity, so off by default)
    --workers N     fork N worker subprocesses fed grid shards over their
                    stdin and stdout; crashed/hung workers are detected by
                    pipe EOF or heartbeat timeout, their cells reassigned
                    with backoff, and a shard over the attempt cap
                    quarantined as explicit poisoned rows. 0 (the
                    default) = in-process. Merged output is
                    byte-identical to the single-process run — see
                    docs/distributed.md
    --strict-checkpoint  make a failed --checkpoint journal append a hard
                    error instead of a warning-and-degrade

e10 sweeps activation schedules (per-round delay faults): simultaneous,
θ=1, intermittent duty cycles, a mid-run crash — see
docs/executors.md \"Activation schedules\".

e11 sweeps 3-agent gathering over every free tree (n ≤ 7) and every
ordered feasible start triple, certifying that e10's crash rescue does
NOT survive gathering — see docs/gathering.md.

Classic mode (paper tables):
  experiments [e1 e2 ... e8 | all] [--full] [--json DIR]",
        sweep::DEFAULT_SIZES,
        sweep::E9_DEFAULT_SIZES,
        sweep::E10_DEFAULT_SIZES,
        sweep::E11_DEFAULT_SIZES,
        sweep::MAX_ENUM_SIZE,
        DEFAULT_SEED
    );
}

#[cfg(test)]
mod tests {
    use super::{parse_sizes, resolve_sweep};
    use crate::sweep::Executor;

    #[test]
    fn sampled_grids_default_to_stepping_and_certified_ones_to_decide() {
        let executors = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let ids = "e1,e2,e3,e4,e5,e6,e7,e8,e9,e10,e11";
            let (_, planned, _) = resolve_sweep(&args, ids);
            planned.into_iter().map(|(_, _, spec)| spec.executor).collect::<Vec<_>>()
        };
        let mut defaults = vec![Executor::DynStepping; 8];
        defaults.extend([Executor::ExactDecide; 3]);
        assert_eq!(executors(&[]), defaults);
        assert_eq!(executors(&["--executor", "replay"]), vec![Executor::TraceReplay; 11]);
    }

    #[test]
    fn parse_sizes_sorts_and_deduplicates() {
        assert_eq!(parse_sizes("16,32"), Ok((vec![16, 32], 0)));
        assert_eq!(parse_sizes("32,16"), Ok((vec![16, 32], 0)));
        // ISSUE 5 satellite: `--sizes 16,16` used to duplicate every cell
        // and row; now the duplicate is dropped (and counted, so the
        // caller warns).
        assert_eq!(parse_sizes("16,16"), Ok((vec![16], 1)));
        assert_eq!(parse_sizes("8,16,8,8,16"), Ok((vec![8, 16], 3)));
        assert_eq!(parse_sizes(" 8 , 16 "), Ok((vec![8, 16], 0)));
    }

    #[test]
    fn parse_sizes_rejects_zero_and_garbage() {
        assert!(parse_sizes("0").is_err(), "size 0 is a degenerate instance");
        assert!(parse_sizes("16,0,32").is_err());
        assert!(parse_sizes("sixteen").is_err());
        assert!(parse_sizes("").is_err());
        assert!(parse_sizes(",,").is_err());
    }
}
