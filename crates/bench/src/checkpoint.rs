//! The sweep checkpoint journal: an append-only, per-record-checksummed
//! log of completed cells, so a killed sweep resumes instead of restarting.
//!
//! **Model.** Every grid cell's result is a pure function of the spec
//! (deterministic per-cell seeding, see [`crate::sweep`]), and every cell
//! owns a unique [`crate::sweep::Cell::cell_seed`]. The journal maps that
//! seed to what the cell computed — its [`CellOutcome`], or an explicit
//! "dropped" marker for a cell past the end of its instance's start pool —
//! and nothing else: every other field of the cell's row and certificate
//! follows from the grid coordinates. A resumed sweep
//! ([`crate::sweep::run_with_options`]) renders each journaled outcome
//! through the same [`crate::sweep`] renderer a fresh one goes through,
//! on its own instance plan, and recomputes the rest; because rows are
//! collected in grid order either way, the final report — and its JSON
//! serialization — is byte-identical to an uninterrupted run, for any
//! `--threads` value. That identity is asserted by
//! `crates/bench/tests/crash_resume.rs` and the CI `crash-resume` job.
//!
//! **Framing.** Records use the shared [`crate::wire`] frame
//! (`len | crc32 | body`). The first record is a JSON header carrying the
//! format version and a fingerprint of everything that determines the rows
//! (experiments, sizes, delays, variants, pairs, seed, executor — not
//! `--threads`); resuming against a journal written for a different spec
//! is a hard error, because equal cell seeds under a different spec would
//! splice wrong rows into the output, and so is resuming one of another
//! version. Every other body is binary ([`encode_record`]): the cell seed
//! as 8 little-endian bytes, then, unless the cell was dropped, a `u16`
//! flags word and the outcome's numbers as LEB128 varints — about 15
//! bytes. The decoder is strict ([`decode_record`]): a body the encoder
//! would not write is a bad record, never a guess. Loading accepts the
//! longest clean prefix: a torn tail (kill mid-append) or a corrupted
//! record loses that record and everything after it — those cells simply
//! recompute, as does a cell whose record does not fit it
//! ([`Journal::lookup`]). On resume the journal is compacted (rewritten
//! atomically from the recovered records) so fresh appends never land
//! after garbage.
//!
//! **Appends.** Records reach the file in batches:
//! [`Journal::record_outcome`] frames a cell into a pending batch that is
//! written in one `write` once it holds [`wire::BATCH_BYTES`], and at
//! [`Journal::sync`]; [`Journal::append`] writes frames a `--workers`
//! worker already framed at once, without decoding them. A write that
//! crosses a multiple of 64 records is fsynced, and so is the end of the
//! sweep. A process kill therefore loses at most the pending batch, and a
//! power loss at most 64 records plus one write.
//!
//! See docs/persistence.md for the crash model and format reference.

use crate::sweep::{CellOutcome, Certificate, Evidence, QuarantineKind, SweepRow, VERDICTS};
use crate::{faults, wire};
use serde::{Deserialize, JsonWriter, Serialize};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Journal format version (the header record's `version` field): 2 since
/// records carry outcomes, not rendered rows.
pub const JOURNAL_VERSION: u64 = 2;

/// A cell's rendered row and certificate beside its seed. `row: None` is
/// the dropped-cell marker. Kept, with [`Journal::record`], for
/// `perfbench/trace`, which renders rows itself, until the benchmark is
/// re-anchored on the CLI (ROADMAP item 1); the journal stores the outcome
/// behind them.
#[derive(Debug, Clone)]
pub struct CellRecord {
    pub cell_seed: u64,
    pub row: Option<SweepRow>,
    pub certificate: Option<Certificate>,
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
    crate::sweep::fnv(&desc.join("\n"))
}

/// The journal's first record, in JSON.
#[derive(Serialize, Deserialize)]
struct Header {
    /// Always `"rvz-journal"`.
    kind: String,
    version: u64,
    fingerprint: u64,
}

fn header_body(fingerprint: u64) -> Vec<u8> {
    let mut w = JsonWriter::new(false);
    Header { kind: "rvz-journal".into(), version: JOURNAL_VERSION, fingerprint }.write_json(&mut w);
    w.into_bytes()
}

// ---------------------------------------------------------------------------
// The binary body of a cell record: the body of a journal frame, and of a
// `--workers` result frame ([`crate::supervisor`]).

// The flags word: which optional numbers follow, and the outcome's bits.
const HAS_ROUNDS: u16 = 1;
const CERTIFIED: u16 = 1 << 1;
const TIMED_OUT: u16 = 1 << 2;
const POISONED: u16 = 1 << 3;
const HAS_EVIDENCE: u16 = 1 << 4;
/// Two bits: the index of the evidence's verdict in [`VERDICTS`].
const VERDICT_SHIFT: u32 = 5;
const VERDICT: u16 = 0b11 << VERDICT_SHIFT;
const HAS_DELAYS_CHECKED: u16 = 1 << 7;
const HAS_LASSO: u16 = 1 << 8;
const LASSO_VERIFIED: u16 = 1 << 9;
/// Every bit a body may set.
const KNOWN: u16 = (1 << 10) - 1;

/// Appends the body of one cell record to `out`: `cell_seed` as 8
/// little-endian bytes, and nothing more for a dropped cell (`None`).
/// Otherwise a little-endian `u16` of flags follows — has-rounds,
/// certified, timed-out, poisoned, has-evidence, the verdict's 2-bit index,
/// has-`delays_checked`, has-lasso, lasso-verified, from bit 0 up — then
/// LEB128 varints in this order: rounds (if any), crossings, measured
/// bits, delay, budget, `delays_checked` (if any), the lasso's stem and
/// period (if any).
///
/// # Panics
///
/// On evidence whose verdict is not one of [`VERDICTS`].
pub fn encode_record(out: &mut Vec<u8>, cell_seed: u64, outcome: Option<&CellOutcome>) {
    out.extend_from_slice(&cell_seed.to_le_bytes());
    let Some(o) = outcome else { return };
    let flag = |set: bool, bit: u16| if set { bit } else { 0 };
    let mut flags = flag(o.rounds.is_some(), HAS_ROUNDS)
        | flag(o.certified, CERTIFIED)
        | flag(o.quarantine == Some(QuarantineKind::TimedOut), TIMED_OUT)
        | flag(o.quarantine == Some(QuarantineKind::Poisoned), POISONED);
    if let Some(e) = &o.certificate {
        let verdict = VERDICTS.iter().position(|&v| v == e.verdict).unwrap_or_else(|| {
            panic!("the verdict `{}` has no index in a journal record", e.verdict)
        });
        flags |= HAS_EVIDENCE
            | (verdict as u16) << VERDICT_SHIFT
            | flag(e.delays_checked.is_some(), HAS_DELAYS_CHECKED)
            | flag(e.lasso.is_some(), HAS_LASSO)
            | flag(e.lasso.is_some_and(|(_, _, verified)| verified), LASSO_VERIFIED);
    }
    out.extend_from_slice(&flags.to_le_bytes());
    let evidence = o.certificate.as_ref();
    let lasso = evidence.and_then(|e| e.lasso);
    let numbers = [
        o.rounds,
        Some(o.crossings),
        Some(o.measured_bits),
        Some(o.delay),
        Some(o.budget),
        evidence.and_then(|e| e.delays_checked),
        lasso.map(|(stem, _, _)| stem),
        lasso.map(|(_, period, _)| period),
    ];
    for mut v in numbers.into_iter().flatten() {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
}

/// The varints of a record body, read front to back.
struct Varints<'a>(&'a [u8]);

impl Varints<'_> {
    /// The next LEB128 varint: `None` when the bytes run out first, or on
    /// an encoding [`encode_record`] never writes — overlong (a zero final
    /// byte after the first) or over 64 bits.
    fn next(&mut self) -> Option<u64> {
        let mut value = 0;
        for (i, &byte) in self.0.iter().enumerate().take(10) {
            if i > 0 && byte == 0 || i == 9 && byte > 1 {
                return None;
            }
            value |= u64::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                self.0 = &self.0[i + 1..];
                return Some(value);
            }
        }
        None
    }

    /// The next varint when `present`; `Some(None)` when not.
    fn next_if(&mut self, present: bool) -> Option<Option<u64>> {
        if present {
            self.next().map(Some)
        } else {
            Some(None)
        }
    }
}

/// Decodes one [`encode_record`] body: the cell seed and its outcome
/// (`None`: the dropped-cell marker). `None` on any body the encoder would
/// not write: a missing or trailing byte, an unknown flag bit, both
/// quarantine bits, verdict or lasso bits without evidence, the verified
/// bit without a lasso, or an overlong or overflowing varint. The journal
/// counts such a record as bad; the supervisor treats it as its worker's
/// death.
pub fn decode_record(body: &[u8]) -> Option<(u64, Option<CellOutcome>)> {
    let (seed, rest) = body.split_first_chunk::<8>()?;
    let cell_seed = u64::from_le_bytes(*seed);
    if rest.is_empty() {
        return Some((cell_seed, None));
    }
    let (flags, rest) = rest.split_first_chunk::<2>()?;
    let flags = u16::from_le_bytes(*flags);
    let has = |bit: u16| flags & bit != 0;
    let evidence_bits = VERDICT | HAS_DELAYS_CHECKED | HAS_LASSO | LASSO_VERIFIED;
    if flags & !KNOWN != 0
        || has(TIMED_OUT) && has(POISONED)
        || !has(HAS_EVIDENCE) && flags & evidence_bits != 0
        || has(LASSO_VERIFIED) && !has(HAS_LASSO)
    {
        return None;
    }
    let mut v = Varints(rest);
    let rounds = v.next_if(has(HAS_ROUNDS))?;
    let (crossings, measured_bits, delay, budget) = (v.next()?, v.next()?, v.next()?, v.next()?);
    let delays_checked = v.next_if(has(HAS_DELAYS_CHECKED))?;
    let lasso =
        if has(HAS_LASSO) { Some((v.next()?, v.next()?, has(LASSO_VERIFIED))) } else { None };
    if !v.0.is_empty() {
        return None;
    }
    let quarantine = match (has(TIMED_OUT), has(POISONED)) {
        (true, _) => Some(QuarantineKind::TimedOut),
        (_, true) => Some(QuarantineKind::Poisoned),
        _ => None,
    };
    let certificate = has(HAS_EVIDENCE).then(|| Evidence {
        verdict: VERDICTS[usize::from((flags & VERDICT) >> VERDICT_SHIFT)],
        delays_checked,
        lasso,
    });
    let outcome = CellOutcome {
        rounds,
        crossings,
        measured_bits,
        certified: has(CERTIFIED),
        delay,
        budget,
        quarantine,
        certificate,
    };
    Some((cell_seed, Some(outcome)))
}

/// Serializes a whole journal (header + records) — the compaction writer,
/// also handy for tests that build journals without touching disk.
pub fn encode_journal<'a>(
    fingerprint: u64,
    records: impl IntoIterator<Item = (u64, Option<&'a CellOutcome>)>,
) -> Vec<u8> {
    let mut out = Vec::new();
    wire::frame_record(&mut out, &header_body(fingerprint));
    for (cell_seed, outcome) in records {
        wire::frame_with(&mut out, |body| encode_record(body, cell_seed, outcome));
    }
    out
}

/// What a journal parse recovered: the clean-prefix records (last write
/// per cell seed wins, though duplicates only arise from pre-compaction
/// crash overlap), plus damage counters for reporting.
#[derive(Debug, Default)]
pub struct JournalSnapshot {
    /// The header record's format version, when a journal header parsed.
    pub version: Option<u64>,
    /// Fingerprint from the header record, when one of
    /// [`JOURNAL_VERSION`] parsed.
    pub fingerprint: Option<u64>,
    /// Recovered outcomes keyed by cell seed (`None`: dropped).
    pub cells: HashMap<u64, Option<CellOutcome>>,
    /// Frame-valid records that failed to decode.
    pub bad_records: usize,
    /// `true` when the byte stream ended mid-frame or failed a checksum —
    /// the torn tail was dropped.
    pub torn_tail: bool,
}

/// Parses journal bytes into the recovered clean prefix. Never panics:
/// any truncation or corruption at any byte offset degrades to fewer
/// recovered cells (the journal-recovery proptests pin this).
pub fn parse_journal(bytes: &[u8]) -> JournalSnapshot {
    let (records, clean) = wire::read_records(bytes);
    let mut snap = JournalSnapshot { torn_tail: !clean, ..Default::default() };
    let Some((header, records)) = records.split_first() else { return snap };
    match serde_json::from_slice::<Header>(header) {
        Ok(h) if h.kind == "rvz-journal" => {
            snap.version = Some(h.version);
            snap.fingerprint = (h.version == JOURNAL_VERSION).then_some(h.fingerprint);
        }
        _ => snap.bad_records += 1,
    }
    for body in records {
        match decode_record(body) {
            Some((cell_seed, outcome)) => {
                snap.cells.insert(cell_seed, outcome);
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
    /// Outcomes recovered from the resumed file, keyed by cell seed
    /// (`None`: dropped).
    recovered: HashMap<u64, Option<CellOutcome>>,
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
    /// format version and the fingerprint, compacts the clean prefix back
    /// to disk atomically, and reopens for append. A `--resume` against a
    /// missing file starts fresh (nothing to skip) with a warning; one
    /// against a journal of another version is refused and leaves it as it
    /// was.
    pub fn open(path: &Path, resume: bool, fingerprint: u64) -> Result<Journal, String> {
        let mut recovered = HashMap::new();
        if resume {
            match std::fs::read(path) {
                Ok(bytes) => {
                    let snap = parse_journal(&bytes);
                    match (snap.version, snap.fingerprint) {
                        (Some(version), _) if version != JOURNAL_VERSION => {
                            return Err(format!(
                                "{} is a version {version} journal, and this binary reads \
                                 version {JOURNAL_VERSION} only; use a fresh --checkpoint path \
                                 or drop --resume",
                                path.display()
                            ));
                        }
                        (_, Some(fp)) if fp == fingerprint => {}
                        (_, Some(fp)) => {
                            return Err(format!(
                                "{} was written for a different sweep configuration \
                                 (fingerprint {fp:#018x}, this run is {fingerprint:#018x}); \
                                 resuming would splice wrong rows — use a fresh --checkpoint \
                                 path or drop --resume",
                                path.display()
                            ));
                        }
                        (_, None) => {
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
        let mut records: Vec<_> = recovered.iter().map(|(&s, o)| (s, o.as_ref())).collect();
        records.sort_unstable_by_key(|&(cell_seed, _)| cell_seed);
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

    /// The recovered outcome of the cell with seed `cell_seed` (`Some(None)`:
    /// dropped), if the journal holds one that fits the cell: an outcome
    /// exactly when the cell has starts (`has_starts`). A record that does
    /// not fit is a bad record, and the cell recomputes.
    pub fn lookup(&self, cell_seed: u64, has_starts: bool) -> Option<Option<CellOutcome>> {
        let outcome = self.recovered.get(&cell_seed)?;
        (outcome.is_some() == has_starts).then(|| outcome.clone())
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

    /// Adds one completed cell's outcome (`None`: dropped) to the pending
    /// batch, writing the batch once it holds [`wire::BATCH_BYTES`];
    /// [`sync`](Self::sync) writes the rest. A process kill loses what is
    /// still pending; those cells recompute on `--resume`.
    pub fn record_outcome(&self, cell_seed: u64, outcome: Option<&CellOutcome>) {
        let Some(mut a) = self.live(1) else { return };
        wire::frame_with(&mut a.pending, |body| encode_record(body, cell_seed, outcome));
        a.pending_records += 1;
        if a.pending.len() >= wire::BATCH_BYTES {
            self.write(&mut a);
        }
    }

    /// [`record_outcome`](Self::record_outcome) for a rendered cell: the
    /// same bytes, from the outcome its row and certificate render
    /// ([`CellOutcome::of_rendered`]). Kept for `perfbench/trace` with
    /// [`CellRecord`].
    pub fn record(&self, rec: &CellRecord) {
        let outcome = CellOutcome::of_rendered(rec.row.as_ref(), rec.certificate.as_ref());
        self.record_outcome(rec.cell_seed, outcome.as_ref());
    }

    /// Appends `frames`, which must be exactly `records` whole record
    /// frames — the bytes a `--workers` worker framed — and writes them at
    /// once, behind anything [`record_outcome`](Self::record_outcome) left
    /// pending, so the
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
    use crate::sweep::{
        instances, preset, run_cell_decide_certified, Cell, Executor, SweepInstance,
    };
    use std::sync::Arc;

    /// Every e9, e10 and e11 cell at n ≤ 6 on the decider, beside its
    /// instance, with its outcome.
    fn decided_cells() -> Vec<(Cell, Arc<SweepInstance>, Option<CellOutcome>)> {
        let mut out = Vec::new();
        for id in ["e9", "e10", "e11"] {
            let mut spec = preset(id, &[2, 3, 4, 5, 6], 1, 0x5EED_2010).expect("a preset");
            spec.executor = Executor::ExactDecide;
            for inst in instances(&spec) {
                for cell in inst.cells(&spec) {
                    let outcome = run_cell_decide_certified(&cell, &inst);
                    out.push((cell, Arc::clone(&inst), outcome));
                }
            }
        }
        out
    }

    /// What a journal can hold: every decided cell's outcome, each cell
    /// timed out and poisoned, a dropped cell, and hand-made outcomes that
    /// reach what the small grids do not — every verdict, an unverified
    /// lasso, and numbers of every varint width.
    fn sample_records() -> Vec<(u64, Option<CellOutcome>)> {
        let mut records = Vec::new();
        for (cell, inst, outcome) in decided_cells() {
            let seed = cell.cell_seed();
            records.push((seed, outcome));
            for (k, kind) in
                [QuarantineKind::TimedOut, QuarantineKind::Poisoned].into_iter().enumerate()
            {
                let outcome = CellOutcome::quarantined(&cell, &inst, kind);
                records.push((seed.rotate_left(k as u32 + 1), outcome));
            }
        }
        records.push((0xD50F, None));
        for (k, verdict) in VERDICTS.into_iter().enumerate() {
            let k = k as u64;
            let outcome = CellOutcome {
                rounds: k.is_multiple_of(2).then_some(u64::MAX - k),
                crossings: 1 << (63 - k),
                measured_bits: 127 + k,
                certified: true,
                delay: 128 << (7 * k),
                budget: u64::MAX >> k,
                quarantine: None,
                certificate: Some(Evidence {
                    verdict,
                    delays_checked: (k > 1).then_some(k * 16_383),
                    lasso: (k != 2).then_some((16_383 * k, 16_384, k == 3)),
                }),
            };
            records.push((u64::MAX - k, Some(outcome)));
        }
        records
    }

    fn body(cell_seed: u64, outcome: Option<&CellOutcome>) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record(&mut out, cell_seed, outcome);
        out
    }

    #[test]
    fn records_round_trip_through_their_bodies() {
        let records = sample_records();
        let verdicts: Vec<&str> =
            records.iter().filter_map(|(_, o)| Some(o.as_ref()?.certificate?.verdict)).collect();
        for verdict in VERDICTS {
            assert!(verdicts.contains(&verdict), "no cell carries the verdict {verdict}");
        }
        for (seed, outcome) in &records {
            let bytes = body(*seed, outcome.as_ref());
            assert_eq!(decode_record(&bytes).as_ref(), Some(&(*seed, outcome.clone())));
        }
        // Outcome bodies stay small: a seed, the flags and a few varints.
        let longest = records.iter().map(|(s, o)| body(*s, o.as_ref()).len()).max().unwrap();
        assert!(longest <= 8 + 2 + 8 * 10, "{longest} bytes");
    }

    #[test]
    fn render_then_its_inverse_is_the_identity() {
        for (cell, inst, outcome) in decided_cells() {
            let mut outcomes = vec![outcome];
            for kind in [QuarantineKind::TimedOut, QuarantineKind::Poisoned] {
                outcomes.push(CellOutcome::quarantined(&cell, &inst, kind));
            }
            for outcome in outcomes {
                let seed = cell.cell_seed();
                let (row, certificate) = crate::sweep::render(&cell, &inst, seed, outcome.clone());
                assert_eq!(CellOutcome::of_rendered(row.as_ref(), certificate.as_ref()), outcome);
            }
        }
        assert_eq!(CellOutcome::of_rendered(None, None), None, "a dropped cell");
    }

    #[test]
    fn the_decoder_rejects_every_body_the_encoder_would_not_write() {
        for (seed, outcome) in sample_records() {
            let bytes = body(seed, outcome.as_ref());
            // Every truncation is rejected, except the one that leaves the
            // seed alone: a dropped marker, which `lookup` refuses for a
            // cell with starts.
            for cut in 0..bytes.len() {
                let want = (cut == 8).then_some((seed, None));
                assert_eq!(decode_record(&bytes[..cut]), want, "{seed:#x} cut at {cut}");
            }
            for extra in 0..=u8::MAX {
                let mut longer = bytes.clone();
                longer.push(extra);
                assert_eq!(decode_record(&longer), None, "{seed:#x} with {extra} appended");
            }
            if outcome.is_none() {
                continue;
            }
            let flags = u16::from_le_bytes([bytes[8], bytes[9]]);
            let with_flags = |flags: u16| {
                let mut bad = bytes.clone();
                bad[8..10].copy_from_slice(&flags.to_le_bytes());
                decode_record(&bad)
            };
            for bit in 10..16 {
                assert_eq!(with_flags(flags | 1 << bit), None, "unknown flag bit {bit}");
            }
            assert_eq!(with_flags(flags | TIMED_OUT | POISONED), None, "both quarantines");
            if flags & HAS_EVIDENCE == 0 {
                for bit in [VERDICT, HAS_DELAYS_CHECKED, HAS_LASSO, LASSO_VERIFIED] {
                    assert_eq!(with_flags(flags | bit), None, "{bit:#x} without evidence");
                }
            }
            if flags & HAS_LASSO == 0 {
                assert_eq!(with_flags(flags | LASSO_VERIFIED), None, "verified without a lasso");
            }
        }
    }

    #[test]
    fn varints_reject_overlong_and_overflowing_encodings() {
        let read = |bytes: &[u8]| {
            let mut v = Varints(bytes);
            v.next().filter(|_| v.0.is_empty())
        };
        let written = |value: u64| {
            let outcome = CellOutcome {
                rounds: None,
                crossings: value,
                measured_bits: 0,
                certified: false,
                delay: 0,
                budget: 0,
                quarantine: None,
                certificate: None,
            };
            body(0, Some(&outcome))[10..].to_vec()
        };
        for value in [0, 1, 127, 128, 300, 1 << 35, u64::MAX / 3, u64::MAX] {
            let mut bytes = written(value);
            bytes.truncate(bytes.len() - 3);
            assert_eq!(read(&bytes), Some(value), "{value}");
        }
        assert_eq!(read(&[0x80, 0x00]), None, "0 in two bytes");
        assert_eq!(read(&[0xAC, 0x82, 0x00]), None, "300 in three bytes");
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert_eq!(read(&max), Some(u64::MAX));
        let mut over = max;
        over[9] = 0x02;
        assert_eq!(read(&over), None, "bit 64");
        assert_eq!(read(&[0xFF; 10]), None, "an eleventh byte");
        assert_eq!(read(&[0x80]), None, "cut short");
    }

    #[test]
    fn journal_round_trips_outcomes() {
        let records = sample_records();
        let bytes = encode_journal(7, records.iter().map(|(s, o)| (*s, o.as_ref())));
        let snap = parse_journal(&bytes);
        assert_eq!((snap.version, snap.fingerprint), (Some(JOURNAL_VERSION), Some(7)));
        assert!(!snap.torn_tail);
        assert_eq!(snap.bad_records, 0);
        let want: HashMap<u64, Option<CellOutcome>> = records.into_iter().collect();
        assert_eq!(snap.cells, want);
    }

    #[test]
    fn journal_survives_truncation_anywhere() {
        let records: Vec<_> = sample_records().into_iter().take(40).collect();
        let bytes = encode_journal(3, records.iter().map(|(s, o)| (*s, o.as_ref())));
        let want: HashMap<u64, Option<CellOutcome>> = records.into_iter().collect();
        for cut in 0..bytes.len() {
            let snap = parse_journal(&bytes[..cut]);
            assert_eq!(snap.bad_records, 0, "a clean prefix holds no bad record");
            // Every recovered cell must be one we wrote, with its outcome.
            for (seed, outcome) in &snap.cells {
                assert_eq!(Some(outcome), want.get(seed), "cell {seed:#x}");
            }
        }
    }

    #[test]
    fn lookup_returns_only_records_that_fit_their_cell() {
        let dir = std::env::temp_dir().join(format!("rvz-journal-fit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.ckpt");
        let outcome = sample_records().into_iter().find_map(|(_, o)| o).unwrap();
        let records = [(1, Some(&outcome)), (2, None)];
        std::fs::write(&path, encode_journal(9, records)).unwrap();
        let journal = Journal::open(&path, true, 9).expect("resume");
        assert_eq!(journal.lookup(1, true), Some(Some(outcome)));
        assert_eq!(journal.lookup(1, false), None, "an outcome for a cell with no starts");
        assert_eq!(journal.lookup(2, false), Some(None));
        assert_eq!(journal.lookup(2, true), None, "a dropped marker for a cell with starts");
        assert_eq!(journal.lookup(3, true), None, "a cell the journal does not hold");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rendered_records_journal_the_bytes_of_their_outcomes() {
        let dir = std::env::temp_dir().join(format!("rvz-journal-rendered-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (by_row, by_outcome) = (dir.join("rows.ckpt"), dir.join("outcomes.ckpt"));
        let rows = Journal::open(&by_row, false, 5).unwrap();
        let outcomes = Journal::open(&by_outcome, false, 5).unwrap();
        for (cell, inst, outcome) in decided_cells() {
            let seed = cell.cell_seed();
            let (row, certificate) = crate::sweep::render(&cell, &inst, seed, outcome.clone());
            rows.record(&CellRecord { cell_seed: seed, row, certificate });
            outcomes.record_outcome(seed, outcome.as_ref());
        }
        rows.record(&CellRecord { cell_seed: 11, row: None, certificate: None });
        outcomes.record_outcome(11, None);
        rows.sync();
        outcomes.sync();
        assert_eq!(std::fs::read(&by_row).unwrap(), std::fs::read(&by_outcome).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_open_resume_compacts_and_verifies_its_header() {
        let dir = std::env::temp_dir().join(format!("rvz-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.ckpt");
        let records = sample_records();
        let fp = 0xABCD;
        // Simulate a crashed run: full journal plus a torn trailing frame.
        let mut bytes = encode_journal(fp, records[..2].iter().map(|(s, o)| (*s, o.as_ref())));
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
        std::fs::write(&path, &bytes).unwrap();
        let journal = Journal::open(&path, true, fp).expect("resume");
        assert_eq!(journal.recovered_cells(), 2);
        journal.record_outcome(records[2].0, records[2].1.as_ref());
        journal.sync();
        drop(journal);
        // The compacted file now parses cleanly with all three records.
        let snap = parse_journal(&std::fs::read(&path).unwrap());
        assert!(!snap.torn_tail);
        assert_eq!(snap.cells.len(), 3);
        // A different fingerprint is a hard error.
        assert!(Journal::open(&path, true, fp ^ 1).is_err());

        // So is another version, named beside this one, and the journal is
        // left as it was.
        let mut old = Vec::new();
        wire::frame_record(
            &mut old,
            b"{\"kind\":\"rvz-journal\",\"version\":1,\"fingerprint\":43981}",
        );
        wire::frame_record(&mut old, b"{\"cell\":7}");
        std::fs::write(&path, &old).unwrap();
        let snap = parse_journal(&old);
        assert_eq!((snap.version, snap.fingerprint), (Some(1), None));
        let err = Journal::open(&path, true, fp).expect_err("a version 1 journal");
        assert!(err.contains("version 1 journal") && err.contains("version 2"), "{err}");
        assert!(err.contains("fresh --checkpoint path"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), old);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
