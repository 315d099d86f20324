//! Per-layer timings of one `experiments` sweep invocation.
//!
//! ```text
//! perfbench-trace PHASE DIR EXPERIMENTS_BIN -- <experiments sweep arguments>
//! ```
//!
//! The trailing arguments are exactly the ones the benchmark passes to the
//! `experiments` binary, so the traced work is the invocation's work. Each
//! phase runs in a fresh process (the trace and lasso stores are
//! process-wide, so a second phase in the same process would start warm)
//! and prints one JSON object of metrics on stdout. Every layer is timed
//! from outside, around calls to its public functions:
//!
//! - `layers`: `sweep::cells`, `SweepInstance::for_cell` per instance key,
//!   `run_cell_with_executor` per cell (decide or replay), the `verify_*`
//!   checkers on every certified lasso, the JSON encoding of `--json` and
//!   `--certificates`, `e9`/`e10`/`e11::summarize`, and the
//!   `checkpoint::Journal` appends. It writes what the invocation would
//!   write (stdout, output files, journal) into DIR so the benchmark can
//!   compare digests with the real run.
//! - `sweep`: `sweep::run` over the whole grid at the given `--threads`.
//! - `stores`: `stores::load_all` then `stores::save_all` on `--store`.
//! - `supervisor`: `sweep::run_with_options` in process, then
//!   `supervisor::run_supervised` with `--workers` and a counting spawn.
//!
//! Everything runs relative to DIR, which the benchmark also uses as the
//! working directory.

use rvz_bench::checkpoint::{self, CellRecord, Journal};
use rvz_bench::sweep::{self, Cell, Certificate, Delay, Executor, SweepInstance, SweepRow};
use rvz_bench::{e10, e11, e9, stores, supervisor};
use serde_json::{json, Value};
use std::collections::hash_map::{Entry, HashMap};
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use std::time::Instant;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (head, cli) = match argv.iter().position(|a| a == "--") {
        Some(i) => (&argv[..i], &argv[i + 1..]),
        None => fail("usage: perfbench-trace PHASE DIR EXPERIMENTS_BIN -- <sweep arguments>"),
    };
    let [phase, dir, bin] = head else {
        fail("usage: perfbench-trace PHASE DIR EXPERIMENTS_BIN -- <sweep arguments>");
    };
    let inv = Invocation::parse(cli);
    let dir = Path::new(dir);
    let metrics = match phase.as_str() {
        "layers" => layers(&inv, dir),
        "sweep" => {
            let t = Instant::now();
            sweep::run(&inv.spec);
            vec![("sweep.run_ns", ns(t))]
        }
        "stores" => stores_phase(&inv, dir),
        "supervisor" => supervisor_phase(&inv, dir, Path::new(bin)),
        other => fail(&format!("unknown phase `{other}`")),
    };
    let object: Vec<(String, Value)> =
        metrics.into_iter().map(|(k, v)| (k.to_string(), Value::UInt(v))).collect();
    println!("{}", serde_json::to_string(&Value::Object(object)).expect("serialize metrics"));
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench-trace: {msg}");
    exit(2);
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The parts of an `experiments` sweep command line the phases need.
struct Invocation {
    id: String,
    sizes: Vec<usize>,
    spec: sweep::SweepSpec,
    cli: Vec<String>,
    json: Option<String>,
    certificates: Option<String>,
    checkpoint: Option<String>,
    store: Option<String>,
    workers: usize,
}

impl Invocation {
    /// Resolves the spec the way the CLI does for a single enumerated
    /// experiment: preset axes, the decide executor unless `--executor`
    /// says otherwise, and the preset's ensemble width unless `--agents`.
    fn parse(cli: &[String]) -> Invocation {
        let flag = |name: &str| {
            cli.iter().position(|a| a == name).map(|i| match cli.get(i + 1) {
                Some(v) => v.clone(),
                None => fail(&format!("{name} needs a value")),
            })
        };
        let number = |name: &str| {
            flag(name).map(|v| v.parse::<u64>().unwrap_or_else(|_| fail(&format!("bad {name}"))))
        };
        let id = flag("--experiment").unwrap_or_else(|| fail("--experiment is required"));
        let sizes: Vec<usize> = flag("--sizes")
            .unwrap_or_else(|| fail("--sizes is required"))
            .split(',')
            .map(|s| s.parse().unwrap_or_else(|_| fail("bad --sizes")))
            .collect();
        let threads = number("--threads").unwrap_or(0) as usize;
        let seed = number("--seed").unwrap_or(0x5EED_2010);
        let mut spec = sweep::preset(&id, &sizes, threads, seed)
            .unwrap_or_else(|| fail(&format!("unknown experiment `{id}`")));
        spec.executor = match flag("--executor").as_deref() {
            None | Some("decide") => Executor::ExactDecide,
            Some("replay") => Executor::TraceReplay,
            Some(other) => fail(&format!("executor `{other}` is not traced")),
        };
        if let Some(k) = number("--agents") {
            spec.agents = k as usize;
        }
        Invocation {
            id,
            sizes,
            spec,
            cli: cli.to_vec(),
            json: flag("--json"),
            certificates: flag("--certificates"),
            checkpoint: flag("--checkpoint"),
            store: flag("--store"),
            workers: number("--workers").unwrap_or(0) as usize,
        }
    }
}

type InstanceKey = (sweep::Family, usize, Option<u64>);

fn key(c: &Cell) -> InstanceKey {
    (c.family, c.n, c.tree_index)
}

/// Runs the grid cell by cell on one thread, timing each layer.
fn layers(inv: &Invocation, dir: &Path) -> Vec<(&'static str, u64)> {
    let spec = &inv.spec;
    let mut m: Vec<(&'static str, u64)> = Vec::new();

    let t = Instant::now();
    let grid = sweep::cells(spec);
    m.push(("grid.ns", ns(t)));
    m.push(("grid.cells", grid.len() as u64));

    let (mut build_ns, mut starts) = (0u64, 0u64);
    let mut instances: HashMap<InstanceKey, SweepInstance> = HashMap::new();
    for c in &grid {
        if let Entry::Vacant(slot) = instances.entry(key(c)) {
            let t = Instant::now();
            let inst = SweepInstance::for_cell(c);
            build_ns += ns(t);
            starts += (inst.pairs.len() + inst.tuples.len()) as u64;
            slot.insert(inst);
        }
    }
    m.push(("instances.ns", build_ns));
    m.push(("instances.built", instances.len() as u64));
    m.push(("instances.starts", starts));

    // Adversarial cells take the decider under every executor, exactly
    // as `run_cell_with_executor` routes them.
    let (mut decide_ns, mut decide_cells, mut replay_ns, mut replay_cells) = (0u64, 0u64, 0, 0);
    let mut outcomes: Vec<(Option<SweepRow>, Option<Certificate>)> = Vec::with_capacity(grid.len());
    for c in &grid {
        let inst = &instances[&key(c)];
        let t = Instant::now();
        let out = sweep::run_cell_with_executor(c, inst, spec.executor);
        let took = ns(t);
        if spec.executor == Executor::ExactDecide || c.delay == Delay::Adversarial {
            decide_ns += took;
            decide_cells += 1;
        } else {
            replay_ns += took;
            replay_cells += 1;
        }
        outcomes.push(out);
    }
    let certificates = outcomes.iter().filter(|(_, cert)| cert.is_some()).count();
    m.push(("decide.ns", decide_ns));
    m.push(("decide.cells", decide_cells));
    m.push(("decide.certificates", certificates as u64));
    m.push(("replay.ns", replay_ns));
    m.push(("replay.cells", replay_cells));

    let (verify_ns, lassos) = verify(&grid, &instances, &outcomes);
    m.push(("verify.ns", verify_ns));
    m.push(("verify.lassos", lassos));

    let rows: Vec<SweepRow> = outcomes.iter().filter_map(|(row, _)| row.clone()).collect();
    let report = sweep::SweepReport {
        planned_cells: grid.len(),
        dropped_cells: grid.len() - rows.len(),
        rows,
        certificates: outcomes.iter().filter_map(|(_, cert)| cert.clone()).collect(),
        append_failures: 0,
    };

    let t = Instant::now();
    let (table, summary) = match inv.id.as_str() {
        "e9" => {
            let (sizes, table) = e9::summarize(&report);
            (table, json!({"experiment": inv.id, "sizes": sizes}))
        }
        "e10" => {
            let (schedules, table) = e10::summarize(&report);
            (table, json!({"experiment": inv.id, "schedules": schedules}))
        }
        "e11" => {
            let (schedules, table) = e11::summarize(&report);
            (table, json!({"experiment": inv.id, "schedules": schedules}))
        }
        other => fail(&format!("experiment `{other}` has no summary to trace")),
    };
    let mut stdout = table.render();
    m.push(("summarize.ns", ns(t)));
    stdout.push('\n');

    let mut encoded = Vec::new();
    if let Some(path) = &inv.json {
        encoded.push(encode(dir, path, || {
            json!({
                "schema": sweep_schema(&report.rows),
                "experiments": vec![inv.id.clone()],
                "seed": spec.seed,
                "sizes": inv.sizes,
                "rows": report.rows
            })
        }));
        stdout.push_str(&format!("  (raw rows written to {path})\n"));
    }
    if let Some(path) = &inv.certificates {
        encoded.push(encode(dir, path, || {
            json!({
                "schema": certificates_schema(&report.certificates),
                "experiments": vec![inv.id.clone()],
                "seed": spec.seed,
                "summary": vec![summary],
                "certificates": report.certificates
            })
        }));
        stdout.push_str(&format!("  (certificates written to {path})\n"));
    }
    m.push(("encode.ns", encoded.iter().map(|(ns, _)| ns).sum()));
    m.push(("encode.bytes", encoded.iter().map(|(_, bytes)| bytes).sum()));
    write(dir, "stdout.txt", stdout);

    if let Some(path) = &inv.checkpoint {
        let path = dir.join(path);
        let journal = Journal::open(&path, false, checkpoint::spec_fingerprint(&[spec]))
            .unwrap_or_else(|e| fail(&e));
        let mut append_ns = 0u64;
        for (c, (row, certificate)) in grid.iter().zip(outcomes) {
            let record = CellRecord { cell_seed: c.cell_seed(), row, certificate };
            let t = Instant::now();
            journal.record(&record);
            append_ns += ns(t);
        }
        let t = Instant::now();
        journal.sync();
        m.push(("journal.sync_ns", ns(t)));
        m.push(("journal.append_ns", append_ns));
        m.push(("journal.records", grid.len() as u64));
        m.push(("journal.bytes", file_len(&path)));
        m.push(("journal.append_failures", journal.appends_lost()));
    }
    m
}

/// Re-derives the lasso behind every certificate that carries one (the
/// sweep keeps only its stem and period) and times the independent
/// checker on it. Returns `(ns, lassos checked)`; a lasso that fails its
/// check is fatal.
fn verify(
    grid: &[Cell],
    instances: &HashMap<InstanceKey, SweepInstance>,
    outcomes: &[(Option<SweepRow>, Option<Certificate>)],
) -> (u64, u64) {
    let (mut total, mut lassos) = (0u64, 0u64);
    for (c, (_, cert)) in grid.iter().zip(outcomes) {
        let Some(cert) = cert.as_ref().filter(|cert| cert.lasso_stem.is_some()) else {
            continue;
        };
        if cert.agents.is_some() {
            fail("ensemble lassos are not traced");
        }
        let inst = &instances[&key(c)];
        let (tree, fsa) = (&inst.tree, inst.basic_walk_fsa());
        let (a, b) = (cert.start_a, cert.start_b);
        let ok = match c.delay {
            Delay::Schedule(s) if s.as_start_delay().is_none() => {
                let sched = s.resolve(tree.num_nodes());
                let decision = rvz_lowerbounds::decide_pair_scheduled(tree, fsa, a, b, &sched);
                let lasso = decision.lasso().expect("certified never-meets has a lasso");
                let t = Instant::now();
                let ok = rvz_lowerbounds::verify_schedule_lasso(tree, fsa, a, b, &sched, lasso);
                total += ns(t);
                ok
            }
            _ => {
                let decision = rvz_lowerbounds::decide_pair(tree, fsa, a, b, cert.delay);
                let lasso = decision.lasso().expect("certified never-meets has a lasso");
                let t = Instant::now();
                let ok = rvz_lowerbounds::verify_lasso(tree, fsa, a, b, cert.delay, lasso);
                total += ns(t);
                ok
            }
        };
        if !ok {
            fail(&format!("lasso of cell {:#018x} failed verification", c.cell_seed()));
        }
        lassos += 1;
    }
    (total, lassos)
}

/// Builds and pretty-prints one output payload the way the CLI writes it,
/// timing both steps, then writes it under DIR. Returns `(ns, bytes)`.
fn encode(dir: &Path, path: &str, payload: impl FnOnce() -> Value) -> (u64, u64) {
    let t = Instant::now();
    let text = serde_json::to_string_pretty(&payload()).expect("serialize payload");
    let took = ns(t);
    let bytes = text.len() as u64 + 1;
    write(dir, path, text + "\n");
    (took, bytes)
}

/// The `--json` schema tag the CLI would write for these rows.
fn sweep_schema(rows: &[SweepRow]) -> &'static str {
    let any = |f: fn(&SweepRow) -> bool| rows.iter().any(f);
    if any(|r| r.agents.is_some()) {
        "rvz-sweep/v7"
    } else if any(|r| r.planned.is_some()) {
        "rvz-sweep/v6"
    } else if any(|r| r.poisoned.is_some()) {
        "rvz-sweep/v5"
    } else if any(|r| r.timed_out.is_some()) {
        "rvz-sweep/v4"
    } else if any(|r| r.schedule.is_some()) {
        "rvz-sweep/v3"
    } else {
        "rvz-sweep/v2"
    }
}

/// The `--certificates` schema tag the CLI would write.
fn certificates_schema(certs: &[Certificate]) -> &'static str {
    if certs.iter().any(|c| c.agents.is_some()) {
        "rvz-certificates/v3"
    } else if certs.iter().any(|c| c.schedule.is_some()) {
        "rvz-certificates/v2"
    } else {
        "rvz-certificates/v1"
    }
}

fn write(dir: &Path, name: &str, text: String) {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn store_dir(inv: &Invocation, dir: &Path) -> PathBuf {
    dir.join(inv.store.as_deref().unwrap_or_else(|| fail("the stores phase needs --store")))
}

/// Loads the stores `--store` names into this cold process, then flushes
/// them back, as the CLI does around a sweep.
fn stores_phase(inv: &Invocation, dir: &Path) -> Vec<(&'static str, u64)> {
    let store = store_dir(inv, dir);
    let t = Instant::now();
    let (trace, solo) = stores::load_all(&store);
    let load_ns = ns(t);
    let t = Instant::now();
    stores::save_all(&store).unwrap_or_else(|e| fail(&format!("store flush: {e}")));
    let flush_ns = ns(t);
    let bytes = file_len(&store.join(stores::TRACE_STORE_FILE))
        + file_len(&store.join(stores::SOLO_STORE_FILE));
    vec![
        ("stores.load_ns", load_ns),
        ("stores.flush_ns", flush_ns),
        ("stores.loaded", (trace.loaded + solo.loaded) as u64),
        ("stores.corrupt", (trace.dropped + solo.dropped) as u64),
        ("stores.bytes", bytes),
    ]
}

/// Times the grid in process, then under `--workers` subprocesses spawned
/// from the real binary the way the CLI spawns them; the two reports must
/// agree row for row.
fn supervisor_phase(inv: &Invocation, dir: &Path, bin: &Path) -> Vec<(&'static str, u64)> {
    if inv.workers == 0 {
        fail("the supervisor phase needs --workers N");
    }
    let opts = sweep::RunOptions::default();
    let t = Instant::now();
    let inprocess = sweep::run_with_options(&inv.spec, &opts);
    let inprocess_ns = ns(t);

    let mut worker_args = Vec::with_capacity(inv.cli.len());
    let mut args = inv.cli.iter();
    while let Some(a) = args.next() {
        if a == "--workers" {
            args.next();
        } else {
            worker_args.push(a.clone());
        }
    }
    let mut cfg = supervisor::SupervisorConfig::new(inv.workers);
    cfg.workdir = Some(dir.join("supervisor.work"));
    let mut spawns = 0u64;
    let mut spawn = |workdir: &Path| {
        spawns += 1;
        let mut cmd = Command::new(bin);
        cmd.current_dir(dir).args(&worker_args).arg("--worker").arg(workdir);
        cmd
    };
    let t = Instant::now();
    let supervised = supervisor::run_supervised(&inv.spec, &opts, &cfg, &mut spawn);
    let supervised_ns = ns(t);

    let text = |rows: &[SweepRow]| serde_json::to_string(&rows).expect("serialize rows");
    if text(&supervised.rows) != text(&inprocess.rows) {
        fail("supervised rows differ from the in-process rows");
    }
    let poisoned = supervised.rows.iter().filter(|r| r.poisoned == Some(true)).count();
    vec![
        ("supervisor.ns", supervised_ns),
        ("supervisor.inprocess_ns", inprocess_ns),
        ("supervisor.spawns", spawns),
        ("supervisor.poisoned", poisoned as u64),
    ]
}
