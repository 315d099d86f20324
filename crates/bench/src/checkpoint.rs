//! The sweep checkpoint journal: an append-only, per-record-checksummed
//! log of completed cells, so a killed sweep resumes instead of restarting.
//!
//! **Model.** Every grid cell's result is a pure function of the spec
//! (deterministic per-cell seeding, see [`crate::sweep`]), and every cell
//! owns a unique [`crate::sweep::Cell::cell_seed`]. The journal maps that
//! seed to the cell's outcome — its [`SweepRow`] plus optional
//! [`Certificate`], or an explicit "dropped" marker for cells whose
//! instance had too few feasible start pairs. A resumed sweep
//! ([`crate::sweep::run_with_options`]) skips journaled cells and recomputes
//! the rest; because rows are collected in grid order either way, the final
//! report — and its JSON serialization — is byte-identical to an
//! uninterrupted run, for any `--threads` value. That identity is asserted
//! by `crates/bench/tests/crash_resume.rs` and the CI `crash-resume` job.
//!
//! **Framing.** Records use the shared [`crate::wire`] frame
//! (`len | crc32 | body`); bodies are compact JSON, written and read by
//! the serde shim's derives on the row and certificate structs. The first
//! record is a header carrying a fingerprint of everything that determines
//! the rows (experiments, sizes, delays, variants, pairs, seed, executor —
//! not `--threads`); resuming against a journal written for a different
//! spec is a hard error, because equal cell seeds under a different spec
//! would splice wrong rows into the output. Loading accepts the longest
//! clean prefix: a torn tail (kill mid-append) or a corrupted record loses
//! that record and everything after it — those cells simply recompute. On
//! resume the journal is compacted (rewritten atomically from the
//! recovered records) so fresh appends never land after garbage.
//!
//! **Appends.** Records reach the file in batches: [`Journal::record`]
//! frames a cell into a pending batch that is written in one `write` once
//! it holds [`wire::BATCH_BYTES`], and at [`Journal::sync`];
//! [`Journal::append`] writes frames a `--workers` worker already framed
//! at once, without decoding them. A write that crosses a multiple of 64
//! records is fsynced, and so is the end of the sweep. A process kill
//! therefore loses at most the pending batch, and a power loss at most 64
//! records plus one write.
//!
//! See docs/persistence.md for the crash model and format reference.

use crate::sweep::{Certificate, SweepRow};
use crate::{faults, wire};
use serde::{Deserialize, JsonReader, JsonWriter, Serialize};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Journal format version (the header record's `version` field).
pub const JOURNAL_VERSION: u64 = 1;

/// One journaled cell outcome. `row: None` is the explicit "dropped cell"
/// marker (the instance had fewer feasible pairs than the cell's index).
#[derive(Debug, Clone)]
pub struct CellRecord {
    pub cell_seed: u64,
    pub row: Option<SweepRow>,
    pub certificate: Option<Certificate>,
}

/// FNV-1a, the journal's fingerprint hash.
fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fingerprint of everything that determines a batch of sweeps' rows —
/// the experiment grids minus `threads` (thread count never changes rows).
/// The CLI opens one journal per invocation covering all `--experiment`
/// ids, so the fingerprint spans all their specs.
pub fn spec_fingerprint(specs: &[&crate::sweep::SweepSpec]) -> u64 {
    let desc: Vec<String> = specs
        .iter()
        .map(|s| {
            let mut d = format!(
                "{}|{:?}|{:?}|{:?}|{:?}|pairs={}|seed={}|{:?}",
                s.experiment,
                s.families,
                s.sizes,
                s.delays,
                s.variants,
                s.pairs_per_cell,
                s.seed,
                s.executor
            );
            // The ensemble axis joins the fingerprint only when it widens
            // the grid, so journals written before the axis existed keep
            // matching their (pair) specs.
            if s.agents != 2 {
                d.push_str(&format!("|agents={}", s.agents));
            }
            d
        })
        .collect();
    fnv64(&desc.join("\n"))
}

// ---------------------------------------------------------------------------
// JSON (de)serialization of records. Rows and certificates are written and
// read by their derives, so their schema is written down once, in
// `crate::sweep`; a decoded record re-serializes through the same writer as
// a fresh one, which is what makes resumed output byte-identical.

/// The journal's first record.
#[derive(Serialize, Deserialize)]
struct Header {
    /// Always `"rvz-journal"`.
    kind: String,
    version: u64,
    fingerprint: u64,
}

/// The compact JSON body of one cell record: a journal frame's body, and
/// the body of a `--workers` result frame ([`crate::supervisor`]).
pub fn record_body(rec: &CellRecord) -> Vec<u8> {
    let mut w = JsonWriter::new(false);
    w.begin_object();
    w.field("cell", &rec.cell_seed);
    if let Some(row) = &rec.row {
        w.field("row", row);
    }
    if let Some(cert) = &rec.certificate {
        w.field("certificate", cert);
    }
    w.end_object();
    w.into_bytes()
}

fn header_body(fingerprint: u64) -> Vec<u8> {
    let mut w = JsonWriter::new(false);
    Header { kind: "rvz-journal".into(), version: JOURNAL_VERSION, fingerprint }.write_json(&mut w);
    w.into_bytes()
}

/// Serializes a whole journal (header + records) — the compaction writer,
/// also handy for tests that build journals without touching disk.
pub fn encode_journal<'a>(
    fingerprint: u64,
    records: impl IntoIterator<Item = &'a CellRecord>,
) -> Vec<u8> {
    let mut out = Vec::new();
    wire::frame_record(&mut out, &header_body(fingerprint));
    for rec in records {
        wire::frame_record(&mut out, &record_body(rec));
    }
    out
}

/// What a journal parse recovered: the clean-prefix records (last write
/// per cell seed wins, though duplicates only arise from pre-compaction
/// crash overlap), plus damage counters for reporting.
#[derive(Debug, Default)]
pub struct JournalSnapshot {
    /// Fingerprint from the header record, when one parsed.
    pub fingerprint: Option<u64>,
    /// Recovered outcomes keyed by cell seed.
    pub cells: HashMap<u64, CellRecord>,
    /// Frame-valid records whose JSON failed to parse or validate.
    pub bad_records: usize,
    /// `true` when the byte stream ended mid-frame or failed a checksum —
    /// the torn tail was dropped.
    pub torn_tail: bool,
}

/// Decodes one [`record_body`] straight into its structs: `None` on a
/// body that is not one JSON object, or whose `cell`, `row` or
/// `certificate` is missing where required, mistyped or malformed. The
/// journal counts such a record as bad; the supervisor treats it as its
/// worker's death.
pub fn decode_record(body: &[u8]) -> Option<CellRecord> {
    let mut r = JsonReader::new(body);
    let (mut cell, mut row, mut certificate) = (None, None, None);
    r.object(|r, key| match key {
        "cell" => r.field(&mut cell),
        "row" => r.field(&mut row),
        "certificate" => r.field(&mut certificate),
        _ => r.skip(),
    })
    .ok()?;
    r.end().ok()?;
    Some(CellRecord { cell_seed: cell?, row, certificate })
}

/// Parses journal bytes into the recovered clean prefix. Never panics:
/// any truncation or corruption at any byte offset degrades to fewer
/// recovered cells (the journal-recovery proptests pin this).
pub fn parse_journal(bytes: &[u8]) -> JournalSnapshot {
    let (records, clean) = wire::read_records(bytes);
    let mut snap = JournalSnapshot { torn_tail: !clean, ..Default::default() };
    let Some((header, records)) = records.split_first() else { return snap };
    match serde_json::from_slice::<Header>(header) {
        Ok(h) if h.kind == "rvz-journal" && h.version == JOURNAL_VERSION => {
            snap.fingerprint = Some(h.fingerprint);
        }
        _ => snap.bad_records += 1,
    }
    for body in records {
        match decode_record(body) {
            Some(rec) => {
                snap.cells.insert(rec.cell_seed, rec);
            }
            None => snap.bad_records += 1,
        }
    }
    snap
}

/// How often written records are fsynced: after every write that crosses
/// a multiple of this many records, and at [`Journal::sync`]. Between
/// fsyncs a record survives a process kill (the OS holds it) but not a
/// power loss — in which case it is a torn tail, recovered from by
/// recomputing that cell.
const SYNC_EVERY: u64 = 64;

/// An open checkpoint journal: the recovered cells of a `--resume`, plus
/// an append handle for cells computed this run. Records gather in a
/// pending batch that is written in one `write` once it holds
/// [`wire::BATCH_BYTES`], by [`Journal::append`] and by [`Journal::sync`];
/// cells finish on many threads, so the batch sits behind a mutex. A
/// failed write or fsync (e.g. injected ENOSPC) disables further
/// checkpointing with a warning rather than failing the sweep — the
/// journal degrades, the results do not.
#[derive(Debug)]
pub struct Journal {
    appender: Mutex<Appender>,
    path: PathBuf,
    /// Outcomes recovered from the resumed file, keyed by cell seed.
    recovered: HashMap<u64, CellRecord>,
    /// Records whose append failed or was skipped because the journal was
    /// already dead — surfaced as [`crate::sweep::SweepReport::append_failures`].
    lost: AtomicU64,
    /// `--strict-checkpoint`: the first append failure exits the process
    /// instead of degrading to a dead journal.
    strict: AtomicBool,
}

/// The file side of a [`Journal`], behind its mutex.
#[derive(Debug)]
struct Appender {
    file: std::fs::File,
    /// Whole frames not written yet, and how many records they hold.
    pending: Vec<u8>,
    pending_records: u64,
    /// Records written, and how many of them the last fsync covered.
    written: u64,
    synced: u64,
    /// Set by the first failed write or fsync; nothing is written after.
    dead: bool,
}

impl Appender {
    /// Writes the pending batch in one `write` — the journal's one path to
    /// its file — and fsyncs when that write crosses a multiple of
    /// [`SYNC_EVERY`] records. The `journal-append` fault site fires once
    /// per record, in order, so an injected fault lands on the same record
    /// however the records were batched. On failure returns the error and
    /// how many of the batch's records did not land. The batch is spent
    /// either way.
    fn write_pending(&mut self) -> Result<(), (std::io::Error, u64)> {
        let records = std::mem::take(&mut self.pending_records);
        let result = (|| {
            let mut start = 0;
            for k in 0..records {
                let header = &self.pending[start..start + 4];
                let end =
                    start + 8 + u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize;
                match faults::mangle_write(
                    faults::Site::JournalAppend,
                    &mut self.pending[start..end],
                ) {
                    Ok(faults::WriteFate::Full) => start = end,
                    Ok(faults::WriteFate::Short(half)) => {
                        let torn = &self.pending[..start + half];
                        let _ = self.file.write_all(torn).and_then(|()| self.file.sync_all());
                        faults::finish_short_write();
                    }
                    Err(e) => {
                        // The records before the failing one still land.
                        self.file.write_all(&self.pending[..start]).map_err(|e| (e, records))?;
                        self.written += k;
                        return Err((e, records - k));
                    }
                }
            }
            self.file.write_all(&self.pending).map_err(|e| (e, records))?;
            let before = self.written;
            self.written += records;
            if before / SYNC_EVERY != self.written / SYNC_EVERY {
                self.file.sync_all().map_err(|e| (e, 1))?;
                self.synced = self.written;
            }
            Ok(())
        })();
        self.pending.clear();
        result
    }
}

impl Journal {
    /// Opens (or resumes) the journal at `path`. Fresh open truncates and
    /// writes the header; resume parses the existing file, verifies the
    /// fingerprint, compacts the clean prefix back to disk atomically, and
    /// reopens for append. A `--resume` against a missing file starts
    /// fresh (nothing to skip) with a warning.
    pub fn open(path: &Path, resume: bool, fingerprint: u64) -> Result<Journal, String> {
        let mut recovered = HashMap::new();
        if resume {
            match std::fs::read(path) {
                Ok(bytes) => {
                    let snap = parse_journal(&bytes);
                    match snap.fingerprint {
                        Some(fp) if fp == fingerprint => {}
                        Some(fp) => {
                            return Err(format!(
                                "{} was written for a different sweep configuration \
                                 (fingerprint {fp:#018x}, this run is {fingerprint:#018x}); \
                                 resuming would splice wrong rows — use a fresh --checkpoint \
                                 path or drop --resume",
                                path.display()
                            ));
                        }
                        None => {
                            return Err(format!(
                                "{} has no readable journal header; use a fresh --checkpoint \
                                 path or drop --resume",
                                path.display()
                            ));
                        }
                    }
                    if snap.bad_records > 0 || snap.torn_tail {
                        eprintln!(
                            "warning: {}: recovered {} cell(s); dropped {} bad record(s){} — \
                             dropped cells will be recomputed",
                            path.display(),
                            snap.cells.len(),
                            snap.bad_records,
                            if snap.torn_tail { " and a torn tail" } else { "" },
                        );
                    }
                    recovered = snap.cells;
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    eprintln!(
                        "warning: --resume: {} does not exist yet; starting a fresh journal",
                        path.display()
                    );
                }
                Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
            }
        }
        // Compact (or initialize): header + recovered records, written
        // atomically so appends never land after a torn tail.
        let mut records: Vec<&CellRecord> = recovered.values().collect();
        records.sort_by_key(|r| r.cell_seed);
        wire::atomic_write(path, &encode_journal(fingerprint, records))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
        Ok(Journal {
            appender: Mutex::new(Appender {
                file,
                pending: Vec::new(),
                pending_records: 0,
                written: 0,
                synced: 0,
                dead: false,
            }),
            path: path.to_path_buf(),
            recovered,
            lost: AtomicU64::new(0),
            strict: AtomicBool::new(false),
        })
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `--strict-checkpoint`: make any append failure fatal (exit code 1)
    /// instead of degrading to a dead journal with a warning.
    pub fn set_strict(&self, strict: bool) {
        self.strict.store(strict, Ordering::Relaxed);
    }

    /// Appends that failed or were silently skipped (dead journal) so far.
    pub fn appends_lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }

    /// The recovered outcome for a cell seed, if the journal has one.
    pub fn lookup(&self, cell_seed: u64) -> Option<&CellRecord> {
        self.recovered.get(&cell_seed)
    }

    /// Number of cells the resume recovered.
    pub fn recovered_cells(&self) -> usize {
        self.recovered.len()
    }

    /// The appender, unless the journal is dead — then `records` more
    /// appends are counted as lost.
    fn live(&self, records: u64) -> Option<MutexGuard<'_, Appender>> {
        let appender = self.appender.lock().expect("journal lock");
        if appender.dead {
            self.lost.fetch_add(records, Ordering::Relaxed);
            return None;
        }
        Some(appender)
    }

    /// Adds one completed cell to the pending batch, writing the batch once
    /// it holds [`wire::BATCH_BYTES`]; [`sync`](Self::sync) writes the
    /// rest. A process kill loses what is still pending; those cells
    /// recompute on `--resume`.
    pub fn record(&self, rec: &CellRecord) {
        let body = record_body(rec);
        let Some(mut a) = self.live(1) else { return };
        wire::frame_record(&mut a.pending, &body);
        a.pending_records += 1;
        if a.pending.len() >= wire::BATCH_BYTES {
            self.write(&mut a);
        }
    }

    /// Appends `frames`, which must be exactly `records` whole record
    /// frames — the bytes a `--workers` worker framed — and writes them at
    /// once, behind anything [`record`](Self::record) left pending, so the
    /// supervisor never re-encodes a record and a process kill loses none
    /// it appended.
    pub fn append(&self, frames: &[u8], records: u64) {
        let Some(mut a) = self.live(records) else { return };
        a.pending.extend_from_slice(frames);
        a.pending_records += records;
        self.write(&mut a);
    }

    /// End of sweep: writes the pending batch and fsyncs everything
    /// written since the last fsync. A failure of either is an append
    /// failure like any other.
    pub fn sync(&self) {
        let Some(mut a) = self.live(0) else { return };
        self.write(&mut a);
        if !a.dead && a.synced < a.written {
            match a.file.sync_all() {
                Ok(()) => a.synced = a.written,
                Err(e) => self.fail(&mut a, e, 1),
            }
        }
    }

    fn write(&self, a: &mut Appender) {
        if let Err((e, lost)) = a.write_pending() {
            self.fail(a, e, lost);
        }
    }

    /// A failed write or fsync that lost `lost` records: fatal under
    /// `--strict-checkpoint`, otherwise the journal goes dead with a
    /// warning (the sweep's results are unaffected; only crash coverage is
    /// lost from that point).
    fn fail(&self, a: &mut Appender, e: std::io::Error, lost: u64) {
        self.lost.fetch_add(lost, Ordering::Relaxed);
        if self.strict.load(Ordering::Relaxed) {
            eprintln!(
                "error: --strict-checkpoint: journal {} append failed: {e}",
                self.path.display()
            );
            std::process::exit(1);
        }
        a.dead = true;
        eprintln!(
            "warning: checkpoint journal {} disabled after append error: {e} \
             (the sweep continues without crash coverage)",
            self.path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepSpec;
    use crate::sweep::{cells, preset, run_cell, run_cell_with_executor, Executor, SweepInstance};

    fn sample_records() -> Vec<CellRecord> {
        let spec = SweepSpec {
            experiment: "journal-test".into(),
            families: vec![crate::sweep::Family::Line],
            sizes: vec![6],
            delays: vec![crate::sweep::Delay::Zero, crate::sweep::Delay::Fixed(2)],
            variants: vec![crate::sweep::Variant::BasicWalkFsa],
            pairs_per_cell: 2,
            seed: 0x1A,
            threads: 1,
            executor: crate::sweep::Executor::TraceReplay,
            agents: 2,
        };
        cells(&spec)
            .iter()
            .map(|c| CellRecord { cell_seed: c.cell_seed(), row: run_cell(c), certificate: None })
            .collect()
    }

    #[test]
    fn journal_round_trips_rows_byte_identically() {
        let records = sample_records();
        assert!(records.iter().any(|r| r.row.is_some()));
        let bytes = encode_journal(7, &records);
        let snap = parse_journal(&bytes);
        assert_eq!(snap.fingerprint, Some(7));
        assert_eq!(snap.cells.len(), records.len());
        assert!(!snap.torn_tail);
        assert_eq!(snap.bad_records, 0);
        for rec in &records {
            let back = &snap.cells[&rec.cell_seed];
            assert_eq!(
                serde_json::to_string(&back.row).unwrap(),
                serde_json::to_string(&rec.row).unwrap(),
                "recovered row must re-serialize byte-identically"
            );
        }
    }

    #[test]
    fn journal_survives_truncation_anywhere() {
        let records = sample_records();
        let bytes = encode_journal(3, &records);
        for cut in 0..bytes.len() {
            let snap = parse_journal(&bytes[..cut]);
            assert!(snap.cells.len() <= records.len());
            // Every recovered cell must be one we wrote, with the row intact.
            for (seed, rec) in &snap.cells {
                let original = records.iter().find(|r| r.cell_seed == *seed).expect("known cell");
                assert_eq!(
                    serde_json::to_string(&rec.row).unwrap(),
                    serde_json::to_string(&original.row).unwrap()
                );
            }
        }
    }

    #[test]
    fn journal_open_resume_compacts_and_verifies_fingerprint() {
        let dir = std::env::temp_dir().join(format!("rvz-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.ckpt");
        let records = sample_records();
        let fp = 0xABCD;
        // Simulate a crashed run: full journal plus a torn trailing frame.
        let mut bytes = encode_journal(fp, &records[..2]);
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
        std::fs::write(&path, &bytes).unwrap();
        let journal = Journal::open(&path, true, fp).expect("resume");
        assert_eq!(journal.recovered_cells(), 2);
        journal.record(&records[2]);
        journal.sync();
        drop(journal);
        // The compacted file now parses cleanly with all three records.
        let snap = parse_journal(&std::fs::read(&path).unwrap());
        assert!(!snap.torn_tail);
        assert_eq!(snap.cells.len(), 3);
        // A different fingerprint is a hard error.
        assert!(Journal::open(&path, true, fp ^ 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decoded_e9_e10_e11_records_re_encode_byte_identically() {
        let mut seen = Vec::new();
        for id in ["e9", "e10", "e11"] {
            let mut spec = preset(id, &[2, 3, 4, 5], 1, 0x5EED_2010).expect("a preset");
            spec.executor = Executor::ExactDecide;
            for cell in cells(&spec) {
                let inst = SweepInstance::for_cell(&cell);
                let (row, certificate) = run_cell_with_executor(&cell, &inst, spec.executor);
                let body =
                    record_body(&CellRecord { cell_seed: cell.cell_seed(), row, certificate });
                let back = decode_record(&body).expect("a record the writer wrote decodes");
                assert_eq!(record_body(&back), body, "{id} cell {:#x}", cell.cell_seed());
                seen.push(String::from_utf8(body).unwrap());
            }
        }
        for field in ["\"certificate\":", "\"schedule\":", "\"start_rest\":", "\"lasso_stem\":"] {
            assert!(seen.iter().any(|body| body.contains(field)), "no record carries {field}");
        }
    }

    #[test]
    fn decoder_skips_unknown_keys_and_rejects_bad_required_fields() {
        let mut rec = sample_records().into_iter().find(|r| r.row.is_some()).unwrap();
        let row = rec.row.as_mut().unwrap();
        row.rounds = Some(17);
        row.schedule = Some("intermittent(2,0)".into());
        let n = format!("\"n\":{},", row.n);
        let body = String::from_utf8(record_body(&rec)).unwrap();
        assert!(body.contains("\"rounds\":17,") && body.contains(&n));
        let decoded = |text: &str| decode_record(text.as_bytes()).map(|r| record_body(&r));

        // Unknown keys are skipped, however deeply nested their values.
        let noisy = body
            .replacen("{\"cell\"", "{\"later\":[[{}],{\"a\":null}],\"cell\"", 1)
            .replacen("\"rounds\"", "\"extra\":{\"b\":[1,-2.5e3,\"\\u00e9\"]},\"rounds\"", 1);
        assert_eq!(decoded(&noisy), Some(body.clone().into_bytes()));

        // `null` and absent optionals both decode to `None`.
        let mut bare = rec.clone();
        let bare_row = bare.row.as_mut().unwrap();
        (bare_row.rounds, bare_row.schedule) = (None, None);
        let want = Some(record_body(&bare));
        let nulls = body.replace("17,", "null,").replace("\"intermittent(2,0)\"", "null");
        assert_eq!(decoded(&nulls), want);
        let absent =
            body.replace("\"rounds\":17,", "").replace("\"schedule\":\"intermittent(2,0)\",", "");
        assert_eq!(decoded(&absent), want);

        // A missing, negative, fractional or mistyped required field, or a
        // `null` row, rejects the whole record.
        for bad in ["", "\"n\":-6,", "\"n\":6.5,", "\"n\":6e0,", "\"n\":\"6\",", "\"n\":null,"] {
            assert_eq!(decoded(&body.replacen(&n, bad, 1)), None, "n as `{bad}`");
        }
        let met = format!("\"met\":{}", rec.row.as_ref().unwrap().met);
        assert_eq!(decoded(&body.replacen(&met, "\"met\":0", 1)), None, "a number for a bool");
        let cell = format!("{{\"cell\":{}}}", rec.cell_seed);
        assert!(decoded(&cell).is_some(), "a dropped-cell marker");
        assert_eq!(decoded(&format!("{{\"cell\":{},\"row\":null}}", rec.cell_seed)), None);
        assert_eq!(decoded("{\"row\":{}}"), None, "no cell");
        assert_eq!(decoded(&format!("{body} {{}}")), None, "trailing characters");
    }
}
