//! The `experiments` binary's report files, end to end: the streamed
//! `--json` / `--certificates` envelopes are byte-identical to the
//! rendering of the same payload built as a `Value` tree, and a `--json`
//! directory that cannot be created is a clean exit-2 error, not a panic.

use rvz_bench::{e11, sweep};
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
