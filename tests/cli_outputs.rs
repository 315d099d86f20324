//! The `experiments` binary's report files, end to end: the streamed
//! `--json` / `--certificates` envelopes are byte-identical to the
//! rendering of the same payload built as a `Value` tree, a `--json`
//! directory holds each experiment's single-file report, a `--json`
//! directory that cannot be created is a clean exit-2 error, not a panic,
//! a grid with no cell writes empty arrays, `--experiment` runs each
//! listed id once and refuses an empty list, and a `--resume` of a journal
//! of another format version is refused by name, leaving it untouched.

use rvz_bench::checkpoint::JOURNAL_VERSION;
use rvz_bench::{e11, sweep, wire};
use serde_json::json;
use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rvz-cli-outputs-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn experiments(dir: &PathBuf, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn experiments")
}

#[test]
fn uncreatable_json_directory_is_a_clean_error() {
    let dir = scratch("bad-dir");
    std::fs::write(dir.join("afile"), b"a regular file").expect("write afile");
    let cases: [&[&str]; 3] = [
        // Sweep mode, directory form.
        &["--experiment", "e6", "--sizes", "8", "--pairs", "1", "--json", "afile/sub"],
        // Sweep mode, single-file form.
        &["--experiment", "e6", "--sizes", "8", "--pairs", "1", "--json", "afile/sub/x.json"],
        // Classic mode.
        &["e3", "--json", "afile/sub"],
    ];
    for args in cases {
        let out = experiments(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr was {stderr}");
        assert!(stderr.contains("error: cannot create `afile/sub"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn json_directory_holds_each_experiment_report() {
    let dir = scratch("json-dir");
    let sweep = |ids: &str, json: &str| {
        let out = experiments(&dir, &["--experiment", ids, "--sizes", "3,4", "--json", json]);
        assert!(out.status.success(), "{ids}: stderr {}", String::from_utf8_lossy(&out.stderr));
    };
    sweep("e9,e10", "outdir");
    for (id, schema) in [("e9", "rvz-sweep/v2"), ("e10", "rvz-sweep/v3")] {
        let alone = format!("{id}.json");
        sweep(id, &alone);
        let got = std::fs::read(dir.join("outdir").join(&alone)).expect("read directory report");
        assert!(got == std::fs::read(dir.join(&alone)).expect("read report"), "{id} differs");
        let tag = format!("\"schema\": \"{schema}\"");
        assert!(String::from_utf8_lossy(&got).contains(&tag), "{id} is not {schema}");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn e11_report_files_match_their_value_tree_rendering() {
    let dir = scratch("e11");
    let args = [
        "--experiment",
        "e11",
        "--sizes",
        "4,5",
        "--json",
        "rows.json",
        "--certificates",
        "certs.json",
    ];
    let out = experiments(&dir, &args);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // The same spec the CLI resolves: the e11 preset (three agents), the
    // default seed, and the exact decider every enumerated sweep defaults to.
    let seed = 0x5EED_2010u64;
    let mut spec = sweep::preset("e11", &[4, 5], 0, seed).expect("e11 preset");
    spec.executor = sweep::Executor::ExactDecide;
    let report = sweep::run(&spec);
    assert_eq!(report.rows.len(), 612);
    assert_eq!(report.certificates.len(), 476);
    assert!(report.certificates.iter().all(|c| c.agents == Some(3)));
    assert!(report.certificates.iter().any(|c| c.schedule.is_some()));

    let rows = json!({
        "schema": "rvz-sweep/v7",
        "experiments": vec!["e11"],
        "seed": seed,
        "sizes": vec![4usize, 5],
        "rows": report.rows
    });
    let summary = json!({"experiment": "e11", "schedules": e11::summarize(&report).0});
    let certificates = json!({
        "schema": "rvz-certificates/v3",
        "experiments": vec!["e11"],
        "seed": seed,
        "summary": vec![summary],
        "certificates": report.certificates
    });
    for (file, payload) in [("rows.json", rows), ("certs.json", certificates)] {
        let want = serde_json::to_string_pretty(&payload).expect("render") + "\n";
        let got = std::fs::read_to_string(dir.join(file)).expect("read report");
        assert!(got == want, "{file} differs from the Value-tree rendering");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn zero_row_report_files_match_their_value_tree_rendering() {
    // No tree on two nodes has a feasible start pair, so the grid plans no
    // cell: the rows file closes an array it never wrote into, and the
    // certificates file holds an empty summary and no certificate.
    let dir = scratch("zero-rows");
    let args = ["--experiment", "e9", "--sizes", "2"];
    let outputs = ["--json", "rows.json", "--certificates", "certs.json"];
    let out = experiments(&dir, &[&args[..], &outputs].concat());
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let seed = 0x5EED_2010u64;
    let empty: Vec<u64> = Vec::new();
    let rows = json!({
        "schema": "rvz-sweep/v2",
        "experiments": vec!["e9"],
        "seed": seed,
        "sizes": vec![2usize],
        "rows": empty
    });
    let certificates = json!({
        "schema": "rvz-certificates/v1",
        "experiments": vec!["e9"],
        "seed": seed,
        "summary": vec![json!({"experiment": "e9", "sizes": empty})],
        "certificates": empty
    });
    for (file, payload) in [("rows.json", rows), ("certs.json", certificates)] {
        let want = serde_json::to_string_pretty(&payload).expect("render") + "\n";
        let got = std::fs::read_to_string(dir.join(file)).expect("read report");
        assert!(got == want, "{file} differs from the Value-tree rendering:\n{got}");
    }
    let left: Vec<_> =
        std::fs::read_dir(&dir).expect("list").map(|e| e.unwrap().file_name()).collect();
    assert_eq!(left.len(), 2, "only the two reports remain: {left:?}");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn repeated_experiment_id_runs_once() {
    let outputs = ["--json", "rows.json", "--certificates", "certs.json"];
    // In process, and under supervised workers, which re-resolve the
    // forwarded arguments and must not repeat the warning.
    let modes: [&[&str]; 2] = [&[], &["--workers", "2", "--threads", "1"]];
    for mode in modes {
        let run = |name: &str, ids: &str| {
            let dir = scratch(name);
            let args = [&["--experiment", ids, "--sizes", "3"][..], &outputs, mode].concat();
            let out = experiments(&dir, &args);
            assert!(
                out.status.success(),
                "{args:?}: stderr {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let read = |file: &str| std::fs::read(dir.join(file)).expect("read report");
            let files = (read("rows.json"), read("certs.json"));
            std::fs::remove_dir_all(&dir).expect("remove scratch dir");
            (out, files)
        };
        let (once, once_files) = run("e9-once", "e9");
        let (twice, twice_files) = run("e9-twice", "e9,E9");
        assert_eq!(twice.stdout, once.stdout, "the e9 table prints once ({mode:?})");
        assert!(twice_files == once_files, "rows and certificates are written once ({mode:?})");
        let stderr = String::from_utf8_lossy(&twice.stderr);
        let warnings: Vec<&str> = stderr.lines().filter(|l| l.starts_with("warning:")).collect();
        assert_eq!(warnings.len(), 1, "{mode:?}: {stderr}");
        assert!(warnings[0].contains("--experiment listed 1 duplicate id"), "{stderr}");
    }
}

#[test]
fn empty_experiment_list_is_a_clean_error() {
    let dir = scratch("no-ids");
    let out = experiments(&dir, &["--experiment", ",", "--sizes", "3", "--json", "rows.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr was {stderr}");
    assert!(stderr.contains("error: --experiment lists no experiment"), "{stderr}");
    assert!(!dir.join("rows.json").exists(), "no report for an empty list");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn resuming_a_version_1_journal_names_both_versions() {
    let dir = scratch("v1-journal");
    // A version 1 journal: a JSON header, then JSON records (this one is a
    // dropped-cell marker).
    let mut journal = Vec::new();
    wire::frame_record(&mut journal, br#"{"kind":"rvz-journal","version":1,"fingerprint":7}"#);
    wire::frame_record(&mut journal, br#"{"cell":1}"#);
    std::fs::write(dir.join("old.ckpt"), &journal).expect("write the journal");
    let args = ["--experiment", "e9", "--sizes", "3", "--json", "rows.json"];
    let out = experiments(&dir, &[&args[..], &["--checkpoint", "old.ckpt", "--resume"]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr was {stderr}");
    assert!(stderr.contains("error: old.ckpt is a version 1 journal"), "{stderr}");
    assert!(stderr.contains(&format!("reads version {JOURNAL_VERSION} only")), "{stderr}");
    assert!(stderr.contains("use a fresh --checkpoint path"), "{stderr}");
    assert!(!stderr.contains("no readable journal header"), "{stderr}");
    let kept = std::fs::read(dir.join("old.ckpt")).expect("read the journal");
    assert_eq!(kept, journal, "a refused journal is left as it was");
    assert!(!dir.join("rows.json").exists(), "no report from a refused resume");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
