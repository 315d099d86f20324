//! A sweep's report files (`--json` rows, `--certificates`), filled block
//! by block while the sweep runs, in process or under `--workers`, so no
//! run holds all of its rows.
//!
//! Whoever built a block (a sweep thread, or the supervisor) renders it
//! ([`RowsBlock`], [`CertificatesBlock`]): each row or certificate as the
//! element of its file's array it will be, so the rows are dropped where
//! they were allocated, and only bytes reach the sink. The sink appends
//! each rendered block to its file.
//!
//! A [`RowsFile`] streams into its temp sibling ([`wire::Pending`]) from
//! the first block on: every member before the rows, then each block's
//! rows, then the closing brackets. Its schema tag depends on every row,
//! so the header carries a placeholder that the final tag overwrites in
//! place; every tag has the same length ([`ROW_TAGS`]). A
//! [`CertificatesFile`] opens with the e9/e10/e11 summaries, which exist
//! only once the last block is folded, so its certificates pass through a
//! spool beside it (`NAME.spool`) and are copied in behind the header at
//! the end. Either way nothing appears under the real name before the
//! last block: a killed run leaves a `.tmp` sibling or a spool, never a
//! published report.
//!
//! [`wire::Pending`]: crate::wire::Pending

use crate::sweep::{Certificate, SweepRow};
use crate::wire::Pending;
use serde::{JsonWriter, Serialize};
use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Every schema tag of a rows file, oldest first; all have one length, so
/// the final tag overwrites the placeholder exactly (v6 is retired: no row
/// carries its `planned` field).
pub(crate) const ROW_TAGS: [&str; 5] =
    ["rvz-sweep/v2", "rvz-sweep/v3", "rvz-sweep/v4", "rvz-sweep/v5", "rvz-sweep/v7"];

/// Render buffers the sink has written out, for the workers to render the
/// next blocks into. Reusing them spares the workers a block's worth of
/// allocation per block, and the allocator the page faults of handing
/// that memory back to the system and taking it again.
#[derive(Debug, Default)]
pub(crate) struct Buffers(Mutex<Vec<Vec<u8>>>);

impl Buffers {
    fn take(&self) -> Vec<u8> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).pop().unwrap_or_default()
    }

    fn give(&self, buf: Vec<u8>) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(buf);
    }
}

/// Elements of a report's array (its rows or its certificates), rendered
/// as the members they are in the file, two containers deep, each after a
/// comma; the first elements of the array drop theirs.
#[derive(Debug, Default)]
struct Elements {
    json: Vec<u8>,
    count: usize,
}

impl Elements {
    fn render<T: Serialize>(items: &[T], buffers: &Buffers) -> Elements {
        let mut w = JsonWriter::resume(buffers.take(), true, 2, false);
        for item in items {
            w.element();
            item.write_json(&mut w);
        }
        Elements { json: w.into_bytes(), count: items.len() }
    }
}

/// The array a report file fills, block by block.
#[derive(Debug, Default)]
struct Array {
    /// Elements written so far.
    count: usize,
    /// The first failed write; nothing is written after it.
    error: Option<io::Error>,
}

impl Array {
    /// Appends `elements` to the array in `file`, without their leading
    /// comma when they are its first, and hands their buffer back to
    /// `buffers`.
    fn append(&mut self, file: &mut File, elements: Elements, buffers: &Buffers) {
        if self.error.is_none() && elements.count > 0 {
            let first = usize::from(self.count == 0);
            if let Err(e) = file.write_all(&elements.json[first..]) {
                self.error = Some(e);
            }
            self.count += elements.count;
        }
        buffers.give(elements.json);
    }

    /// The bytes that close the array and the object around it, and end
    /// the file.
    fn closing(&self) -> Vec<u8> {
        let mut w = JsonWriter::resume(Vec::new(), true, 2, self.count == 0);
        w.end_array();
        w.end_object();
        let mut bytes = w.into_bytes();
        bytes.push(b'\n');
        bytes
    }
}

/// Which optional fields the rows of a file carry: they decide its schema
/// tag.
#[derive(Debug, Default)]
struct RowFields {
    agents: bool,
    poisoned: bool,
    timed_out: bool,
    schedule: bool,
}

impl RowFields {
    fn of(rows: &[SweepRow]) -> RowFields {
        RowFields {
            agents: rows.iter().any(|r| r.agents.is_some()),
            poisoned: rows.iter().any(|r| r.poisoned.is_some()),
            timed_out: rows.iter().any(|r| r.timed_out.is_some()),
            schedule: rows.iter().any(|r| r.schedule.is_some()),
        }
    }

    fn merge(&mut self, other: RowFields) {
        self.agents |= other.agents;
        self.poisoned |= other.poisoned;
        self.timed_out |= other.timed_out;
        self.schedule |= other.schedule;
    }

    /// The schema tag, gated on what the rows actually carry so legacy
    /// payloads stay byte-identical (see docs/schemas.md): `rvz-sweep/v7`
    /// once any row has the optional `agents` field (an ensemble sweep ran
    /// with `--agents` k > 2 — checked first, so an ensemble payload is v7
    /// whatever else it carries), `rvz-sweep/v5` once any row has the
    /// optional `poisoned` field (a `--workers` shard hit the attempt
    /// cap), `rvz-sweep/v4` once any row has the optional `timed_out`
    /// field (the `--cell-timeout` watchdog fired), `rvz-sweep/v3` once
    /// any row has the optional `schedule` field, the legacy
    /// `rvz-sweep/v2` otherwise.
    fn tag(&self) -> &'static str {
        let [v2, v3, v4, v5, v7] = ROW_TAGS;
        if self.agents {
            v7
        } else if self.poisoned {
            v5
        } else if self.timed_out {
            v4
        } else if self.schedule {
            v3
        } else {
            v2
        }
    }
}

/// One block's rows, rendered for a [`RowsFile`].
#[derive(Debug, Default)]
pub(crate) struct RowsBlock {
    elements: Elements,
    fields: RowFields,
}

impl RowsBlock {
    pub(crate) fn render(rows: &[SweepRow], buffers: &Buffers) -> RowsBlock {
        RowsBlock { elements: Elements::render(rows, buffers), fields: RowFields::of(rows) }
    }
}

/// A `--json` rows file under way: its temp sibling holds the header and
/// every row written so far.
#[derive(Debug)]
pub(crate) struct RowsFile {
    pending: Pending,
    /// The offset of the schema tag's placeholder.
    tag_at: u64,
    fields: RowFields,
    rows: Array,
}

impl RowsFile {
    /// Creates `path`'s temp sibling and writes every member before the
    /// rows: schema (a placeholder), experiments, seed and sizes.
    pub(crate) fn create(
        path: &Path,
        experiments: &[&str],
        seed: u64,
        sizes: &[usize],
    ) -> io::Result<RowsFile> {
        let mut pending = Pending::create(path)?;
        let mut w = JsonWriter::new(true);
        w.begin_object();
        w.field("schema", ROW_TAGS[0]);
        w.field("experiments", experiments);
        w.field("seed", &seed);
        w.field("sizes", sizes);
        w.key("rows");
        w.begin_array();
        let head = w.into_bytes();
        let tag = ROW_TAGS[0].as_bytes();
        let tag_at = head.windows(tag.len()).position(|bytes| bytes == tag).expect("the tag");
        pending.file.write_all(&head)?;
        Ok(RowsFile {
            pending,
            tag_at: tag_at as u64,
            fields: RowFields::default(),
            rows: Array::default(),
        })
    }

    /// Appends the next block's rows.
    pub(crate) fn write(&mut self, block: RowsBlock, buffers: &Buffers) {
        self.fields.merge(block.fields);
        self.rows.append(&mut self.pending.file, block.elements, buffers);
    }

    /// Closes the rows array and the object, writes the schema tag in
    /// place and publishes the file under its real name.
    pub(crate) fn publish(mut self) -> io::Result<()> {
        if let Some(e) = self.rows.error.take() {
            return Err(e);
        }
        let file = &mut self.pending.file;
        file.write_all(&self.rows.closing())?;
        file.seek(SeekFrom::Start(self.tag_at))?;
        file.write_all(self.fields.tag().as_bytes())?;
        self.pending.publish()
    }
}

/// The `summary` entry an exhaustive sweep (e9/e10/e11) contributes to the
/// certificates file: its summary rows under `key`.
pub(crate) struct Summary {
    pub experiment: String,
    pub key: &'static str,
    pub rows: Box<dyn Serialize>,
}

/// One block's certificates, rendered for a [`CertificatesFile`].
#[derive(Debug, Default)]
pub(crate) struct CertificatesBlock {
    elements: Elements,
    /// Any certificate has the optional `agents` field.
    agents: bool,
    /// Any certificate has the optional `schedule` field.
    schedule: bool,
}

impl CertificatesBlock {
    pub(crate) fn render(certificates: &[Certificate], buffers: &Buffers) -> CertificatesBlock {
        CertificatesBlock {
            elements: Elements::render(certificates, buffers),
            agents: certificates.iter().any(|c| c.agents.is_some()),
            schedule: certificates.iter().any(|c| c.schedule.is_some()),
        }
    }
}

/// A `--certificates` file under way: the certificates written so far, in
/// its spool.
#[derive(Debug)]
pub(crate) struct CertificatesFile {
    path: PathBuf,
    spool: File,
    spool_path: PathBuf,
    agents: bool,
    schedule: bool,
    certificates: Array,
}

impl CertificatesFile {
    /// Creates the spool beside `path`, empty.
    pub(crate) fn create(path: &Path) -> io::Result<CertificatesFile> {
        let mut spool_name = path.file_name().unwrap_or_default().to_os_string();
        spool_name.push(".spool");
        let spool_path = path.with_file_name(spool_name);
        let spool =
            File::options().read(true).write(true).create(true).truncate(true).open(&spool_path)?;
        Ok(CertificatesFile {
            path: path.to_path_buf(),
            spool,
            spool_path,
            agents: false,
            schedule: false,
            certificates: Array::default(),
        })
    }

    /// Spools the next block's certificates.
    pub(crate) fn write(&mut self, block: CertificatesBlock, buffers: &Buffers) {
        self.agents |= block.agents;
        self.schedule |= block.schedule;
        self.certificates.append(&mut self.spool, block.elements, buffers);
    }

    /// Writes the file under its temp sibling — schema, experiments, seed
    /// and `summaries`, then the spooled certificates — publishes it, and
    /// removes the spool.
    pub(crate) fn publish(
        mut self,
        experiments: &[&str],
        seed: u64,
        summaries: &[Summary],
    ) -> io::Result<()> {
        if let Some(e) = self.certificates.error.take() {
            return Err(e);
        }
        // Same gating as the rows' tag: v3 = v2 plus the optional
        // per-certificate `agents`/`start_rest` fields (ensemble
        // never-gathers lassos — checked first), v2 = v1 plus the
        // optional `schedule` field, each tagged only when present.
        let schema = if self.agents {
            "rvz-certificates/v3"
        } else if self.schedule {
            "rvz-certificates/v2"
        } else {
            "rvz-certificates/v1"
        };
        let mut w = JsonWriter::new(true);
        w.begin_object();
        w.field("schema", schema);
        w.field("experiments", experiments);
        w.field("seed", &seed);
        w.key("summary");
        w.begin_array();
        for summary in summaries {
            w.element();
            w.begin_object();
            w.field("experiment", &summary.experiment);
            w.field(summary.key, summary.rows.as_ref());
            w.end_object();
        }
        w.end_array();
        w.key("certificates");
        w.begin_array();
        let mut pending = Pending::create(&self.path)?;
        pending.file.write_all(&w.into_bytes())?;
        self.spool.seek(SeekFrom::Start(0))?;
        io::copy(&mut self.spool, &mut pending.file)?;
        pending.file.write_all(&self.certificates.closing())?;
        pending.publish()?;
        drop(self.spool);
        std::fs::remove_file(&self.spool_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{self, Block, CellOutcome, Executor, QuarantineKind};
    use serde_json::json;

    #[test]
    fn every_row_tag_has_the_placeholders_length() {
        assert!(ROW_TAGS.iter().all(|tag| tag.len() == ROW_TAGS[0].len()), "{ROW_TAGS:?}");
    }

    /// A scratch directory for one test.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rvz-reports-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn a_quarantine_in_the_last_block_sets_the_tag_written_first() {
        // The e9 blocks of n = 4, 5 with the last cell's row replaced by a
        // quarantine row: the only row that makes the file v4 (timed out)
        // or v5 (poisoned) arrives after every other row was written.
        let mut spec = sweep::preset("e9", &[4, 5], 1, 77).expect("e9 preset");
        spec.executor = Executor::ExactDecide;
        let mut blocks: Vec<Block> = Vec::new();
        sweep::run_into(&spec, &Default::default(), |block| block, |block| blocks.push(block));
        let plan = sweep::instances(&spec);
        let last = plan.last().expect("an instance");
        let cell = last.cells(&spec).pop().expect("a cell");
        let dir = scratch("quarantine");
        for (kind, tag) in
            [(QuarantineKind::TimedOut, "rvz-sweep/v4"), (QuarantineKind::Poisoned, "rvz-sweep/v5")]
        {
            let path = dir.join("rows.json");
            let mut file = RowsFile::create(&path, &["e9"], 77, &[4, 5]).expect("create");
            let buffers = Buffers::default();
            let mut rows = Vec::new();
            for (i, block) in blocks.iter().enumerate() {
                let mut block_rows = block.rows.clone();
                if i + 1 == blocks.len() {
                    let outcome = CellOutcome::quarantined(&cell, last, kind);
                    *block_rows.last_mut().expect("a row") =
                        sweep::render(&cell, last, cell.cell_seed(), outcome)
                            .0
                            .expect("a quarantine row");
                }
                file.write(RowsBlock::render(&block_rows, &buffers), &buffers);
                rows.extend(block_rows);
            }
            file.publish().expect("publish");
            let payload = json!({
                "schema": tag,
                "experiments": vec!["e9"],
                "seed": 77u64,
                "sizes": vec![4usize, 5],
                "rows": rows
            });
            let want = serde_json::to_string_pretty(&payload).expect("render") + "\n";
            let got = std::fs::read_to_string(&path).expect("read");
            assert!(got == want, "the {tag} file differs from its Value-tree rendering");
        }
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}
