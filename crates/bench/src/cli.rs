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

use crate::{
    checkpoint, e1, e10, e11, e2, e3, e4, e5, e6, e7, e8, e9, stores, supervisor, sweep, Table,
};
use serde::JsonWriter;
use std::io::Write;
use std::process::exit;

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

/// `args` minus one `--flag value` pair — how the supervisor builds the
/// worker command line (its own arguments, minus `--workers N`, plus
/// `--worker DIR`).
fn args_without_flag(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len());
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == flag {
            skip_next = true;
            continue;
        }
        out.push(a.clone());
    }
    out
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
/// shard plan's per-spec fingerprint turns any drift into a hard error.
fn resolve_sweep(args: &[String], ids: &str) -> (u64, Vec<(String, Vec<usize>, sweep::SweepSpec)>) {
    let explicit_sizes = flag_value(args, "--sizes").map(|s| {
        let (sizes, dropped) = parse_sizes(&s).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(2);
        });
        if dropped > 0 {
            eprintln!(
                "warning: --sizes listed {dropped} duplicate size(s); \
                 deduplicated to {sizes:?} (duplicates would duplicate every row)"
            );
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
        .unwrap_or(0x5EED_2010);
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
    for id in ids.split(',').filter(|t| !t.is_empty()) {
        let id = id.trim().to_lowercase();
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
        // sampled grids default to trace replay.
        spec.executor = executor.unwrap_or(if enumerated {
            sweep::Executor::ExactDecide
        } else {
            sweep::Executor::TraceReplay
        });
        planned.push((id, sizes, spec));
    }
    (seed, planned)
}

/// Executes a supervised worker subprocess: re-resolves the sweep specs
/// from the forwarded arguments, picks the one the workdir's shard plan
/// covers, and hands off to [`supervisor::worker_main`]. Any protocol
/// violation is a nonzero exit — the supervisor treats it like a worker
/// death and reassigns the shards.
fn run_worker_mode(args: &[String], dir: &str) {
    let workdir = std::path::Path::new(dir);
    let Some(ids) = flag_value(args, "--experiment") else {
        eprintln!("error: --worker needs --experiment (the supervisor forwards its arguments)");
        exit(2);
    };
    let (_, planned) = resolve_sweep(args, &ids);
    let Some(experiment) = supervisor::planned_experiment(workdir) else {
        eprintln!("error: --worker: no readable shard plan in {dir}");
        exit(1);
    };
    let Some((_, _, spec)) = planned.iter().find(|(id, _, _)| *id == experiment) else {
        eprintln!(
            "error: --worker: the shard plan in {dir} is for `{experiment}`, which is not \
             among this worker's experiments ({ids})"
        );
        exit(1);
    };
    if let Err(e) = supervisor::worker_main(workdir, spec) {
        eprintln!("error: --worker: {e}");
        exit(1);
    }
}

fn run_sweep_mode(args: &[String], ids: &str, json: Option<String>) {
    let (seed, planned) = resolve_sweep(args, ids);
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

    // Worker subprocesses get the supervisor's own arguments (minus
    // `--workers N`, plus `--worker DIR`), so they re-resolve the same
    // specs; the shard plan's fingerprint check catches any drift.
    let worker_args = args_without_flag(args, "--workers");
    let mut reports: Vec<Finished> = Vec::new();
    for (id, sizes, spec) in planned {
        let opts = sweep::RunOptions { journal: journal.as_ref(), cell_timeout };
        let report = if workers > 0 {
            let mut cfg = supervisor::SupervisorConfig::new(workers);
            cfg.resume = resume;
            let mut spawn = |workdir: &std::path::Path| {
                let exe = std::env::current_exe()
                    .unwrap_or_else(|_| std::path::PathBuf::from("experiments"));
                let mut cmd = std::process::Command::new(exe);
                cmd.args(&worker_args).arg("--worker").arg(workdir);
                cmd
            };
            supervisor::run_supervised(&spec, &opts, &cfg, &mut spawn)
        } else {
            sweep::run_with_options(&spec, &opts)
        };
        // The exhaustive sweeps print their summary instead of their
        // thousands of raw rows (the rows still go to --json); the same
        // summary goes into the --certificates file, under `key`.
        let (table, summary) = match id.as_str() {
            "e9" => {
                let (sizes, table) = e9::summarize(&report);
                (table, Some(Summary { key: "sizes", rows: Box::new(sizes) }))
            }
            "e10" => {
                let (schedules, table) = e10::summarize(&report);
                (table, Some(Summary { key: "schedules", rows: Box::new(schedules) }))
            }
            "e11" => {
                let (schedules, table) = e11::summarize(&report);
                (table, Some(Summary { key: "schedules", rows: Box::new(schedules) }))
            }
            _ => (sweep::to_table(&id, &report), None),
        };
        println!("{}", table.render());
        if report.dropped_cells > 0 {
            eprintln!(
                "warning: {id}: {} of {} planned cells dropped (fewer feasible start pairs \
                 than --pairs on some instances)",
                report.dropped_cells, report.planned_cells
            );
        }
        let timed_out = report.rows.iter().filter(|r| r.timed_out == Some(true)).count();
        if timed_out > 0 {
            eprintln!(
                "warning: {id}: {timed_out} cell(s) quarantined by --cell-timeout \
                 (explicit timed_out rows; no run recorded for them)"
            );
        }
        let poisoned = report.rows.iter().filter(|r| r.poisoned == Some(true)).count();
        if poisoned > 0 {
            eprintln!(
                "warning: {id}: {poisoned} cell(s) quarantined as poisoned (their shard \
                 exceeded the worker attempt cap; explicit poisoned rows, no run recorded)"
            );
        }
        if report.append_failures > 0 {
            eprintln!(
                "warning: {id}: {} checkpoint journal append(s) failed — the journal on \
                 disk is incomplete (use --strict-checkpoint to make this fatal)",
                report.append_failures
            );
        }
        reports.push(Finished { id, sizes, report, summary });
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

    let ids: Vec<&str> = reports.iter().map(|f| f.id.as_str()).collect();
    if let Some(path) = json {
        if path.ends_with(".json") {
            // Single file: all requested experiments' rows, flattened.
            // Deliberately excludes --threads so outputs are comparable
            // byte-for-byte across thread counts.
            let all_rows: Vec<&sweep::SweepRow> =
                reports.iter().flat_map(|f| &f.report.rows).collect();
            let mut all_sizes: Vec<usize> =
                reports.iter().flat_map(|f| f.sizes.iter().copied()).collect();
            all_sizes.sort_unstable();
            all_sizes.dedup();
            write_json(&path, |w| {
                w.field("schema", sweep_schema(all_rows.iter().copied()));
                w.field("experiments", &ids);
                w.field("seed", &seed);
                w.field("sizes", &all_sizes);
                w.field("rows", &all_rows);
            });
            println!("  (raw rows written to {path})");
        } else {
            // Directory: one file per experiment, like classic mode.
            create_dir(std::path::Path::new(&path));
            for f in &reports {
                let file = format!("{path}/{}.json", f.id);
                write_json(&file, |w| {
                    w.field("schema", sweep_schema(&f.report.rows));
                    w.field("experiments", &[&f.id]);
                    w.field("seed", &seed);
                    w.field("sizes", &f.sizes);
                    w.field("rows", &f.report.rows);
                });
                println!("  (raw rows written to {file})");
            }
        }
    }

    if let Some(path) = certificates_path {
        // The exact decider's machine-checkable evidence: lasso
        // certificates for every never-meets verdict plus the universal
        // (∀-delay) verdicts, and the exhaustive summaries for e9/e10/e11.
        let all_certs: Vec<&sweep::Certificate> =
            reports.iter().flat_map(|f| &f.report.certificates).collect();
        // Same gating as the row schema: v3 = v2 plus the optional
        // per-certificate `agents`/`start_rest` fields (ensemble
        // never-gathers lassos — checked first), v2 = v1 plus the
        // optional `schedule` field, each tagged only when present.
        let schema = if all_certs.iter().any(|c| c.agents.is_some()) {
            "rvz-certificates/v3"
        } else if all_certs.iter().any(|c| c.schedule.is_some()) {
            "rvz-certificates/v2"
        } else {
            "rvz-certificates/v1"
        };
        write_json(&path, |w| {
            w.field("schema", schema);
            w.field("experiments", &ids);
            w.field("seed", &seed);
            w.key("summary");
            w.begin_array();
            for f in &reports {
                if let Some(summary) = &f.summary {
                    w.element();
                    w.begin_object();
                    w.field("experiment", &f.id);
                    w.field(summary.key, summary.rows.as_ref());
                    w.end_object();
                }
            }
            w.end_array();
            w.field("certificates", &all_certs);
        });
        println!("  (certificates written to {path})");
    }
}

/// One experiment's finished sweep, as the output files need it.
struct Finished {
    id: String,
    sizes: Vec<usize>,
    report: sweep::SweepReport,
    summary: Option<Summary>,
}

/// The `summary` entry an exhaustive sweep (e9/e10/e11) contributes to
/// the --certificates file: its summary rows under `key`.
struct Summary {
    key: &'static str,
    rows: Box<dyn serde::Serialize>,
}

/// Schema tag of a sweep payload, gated on what the rows actually carry
/// so legacy payloads stay byte-identical (see docs/schemas.md):
/// `rvz-sweep/v7` once any row has the optional `agents` field (an
/// ensemble sweep ran with `--agents` k > 2 — checked first, so an
/// ensemble payload is v7 whatever else it carries), `rvz-sweep/v5` once
/// any row has the optional `poisoned` field (a `--workers` shard hit the
/// attempt cap), `rvz-sweep/v4` once any row has the optional `timed_out`
/// field (the `--cell-timeout` watchdog fired), `rvz-sweep/v3` once any
/// row has the optional `schedule` field, the legacy `rvz-sweep/v2`
/// otherwise. (v6 is retired: no row carries its `planned` field.)
fn sweep_schema<'a, I: IntoIterator<Item = &'a sweep::SweepRow>>(rows: I) -> &'static str {
    let mut has_poisoned = false;
    let mut has_timed_out = false;
    let mut has_schedule = false;
    for r in rows {
        if r.agents.is_some() {
            return "rvz-sweep/v7";
        }
        has_poisoned |= r.poisoned.is_some();
        has_timed_out |= r.timed_out.is_some();
        has_schedule |= r.schedule.is_some();
    }
    if has_poisoned {
        "rvz-sweep/v5"
    } else if has_timed_out {
        "rvz-sweep/v4"
    } else if has_schedule {
        "rvz-sweep/v3"
    } else {
        "rvz-sweep/v2"
    }
}

/// Writes a report file: one pretty-printed JSON object whose members
/// `fields` writes, plus a trailing newline. The object streams into the
/// temp sibling of [`crate::wire::atomic_write_with`] (→ fsync → rename),
/// so the report is never held whole in memory, and a kill mid-write can
/// never leave a torn half-payload under the real name.
fn write_json(path: &str, fields: impl FnOnce(&mut JsonWriter<'_>)) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            create_dir(parent);
        }
    }
    crate::wire::atomic_write_with(std::path::Path::new(path), |file| {
        let mut w = JsonWriter::with_sink(file, true);
        w.begin_object();
        fields(&mut w);
        w.end_object();
        w.finish()?;
        file.write_all(b"\n")
    })
    .unwrap_or_else(|e| {
        eprintln!("error: cannot write `{path}`: {e}");
        exit(2);
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

    let seed = 0x5EED_2010;

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
    --seed S        base seed (default 0x5EED2010)
    --executor X    replay (trace-record/replay; default for e1..e8),
                    stepping (k-lane round loop per cell), or decide (exact
                    decider, budget-free, certifies never-meets; default
                    for e9/e10/e11) — rows are byte-identical across
                    executors except for decide's `certified` flag
    --checkpoint F  append-only crash-safe journal of completed cells
                    (length-prefixed, per-record checksummed)
    --resume        skip cells already journaled in --checkpoint F; the
                    final output is byte-identical to an uninterrupted run
    --store DIR     persistent trajectory/lasso caches: loaded (and
                    re-verified record by record) before the sweep,
                    flushed atomically after it
    --cell-timeout MS  per-cell wall budget: a cell exceeding it retries on
                    the next-cheaper executor, then is quarantined as an
                    explicit timed_out row (machine-dependent — breaks
                    cross-run byte-identity, so off by default)
    --workers N     fork N worker subprocesses that claim grid shards via
                    on-disk leases; crashed/hung workers are detected by
                    heartbeat, their shards reassigned with backoff, and a
                    shard over the attempt cap quarantined as explicit
                    poisoned rows. 0 (the default) = in-process. Merged
                    output is byte-identical to the single-process run —
                    see docs/distributed.md
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
        sweep::MAX_ENUM_SIZE
    );
}

#[cfg(test)]
mod tests {
    use super::parse_sizes;

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
