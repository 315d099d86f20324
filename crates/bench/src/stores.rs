//! Persistent on-disk form of the per-instance memos (`memo`): the solo
//! trajectories behind the trace-replay executor and the solo lassos
//! behind the exact decider, so a resumed or repeated sweep warms up from
//! disk instead of re-stepping agents (`experiments --store DIR`).
//!
//! **Format.** One file per store (`trace.store` / `solo.store`), built
//! from the shared [`crate::wire`] frames (`len | crc32 | body`). The
//! first record is a magic + version header; every other record is a key
//! (family name, variant name, `n`, tree seed, start node) followed by
//! the entry's own versioned wire form ([`Trajectory::to_bytes`] /
//! [`SoloLasso::to_bytes`]). A snapshot holds every entry the process
//! has, in canonical key order, written through [`wire::atomic_write`]:
//! equal contents give byte-identical files, whatever the thread count or
//! the order entries were made in, and a kill mid-flush leaves the
//! previous store intact.
//!
//! **Degrade, never lie.** Loading validates everything before trusting
//! anything: frame checksums, the header, key decode, the entry's
//! structural invariants (`from_bytes`), node-range checks against the
//! rebuilt tree — and then *semantic re-verification*: every restored
//! lasso is fully re-checked by independent stepping
//! ([`SoloLasso::verify_solo`], `O(stem+period)` — tabulation cost, minus
//! the decide executor's per-cell product scans it saves), and every
//! restored trajectory is spot-checked against a freshly stepped recorder
//! over its first [`SPOT_ROUNDS`] rounds (full re-stepping would cost
//! what the cache saves; beyond the spot window, trust rests on the
//! checksums, the version tags, and the agents' determinism — and row
//! claims that matter are certified and re-verified independently of any
//! cache). A record failing any check is dropped with a warning and its
//! key recomputes on demand; a valid store never changes a single row,
//! a corrupt one merely stops saving work.

use crate::sweep::{Family, Variant};
use crate::{faults, memo, wire};
use rvz_lowerbounds::decide::SoloLasso;
use rvz_sim::Trajectory;
use rvz_trees::{NodeId, Tree};
use std::collections::HashMap;
use std::io;
use std::path::Path;

/// File names under the `--store` directory.
pub const TRACE_STORE_FILE: &str = "trace.store";
pub const SOLO_STORE_FILE: &str = "solo.store";

/// Store format version (bumped with any change to agent semantics, not
/// just the byte layout — a stored trajectory is only as true as the
/// stepper that recorded it).
pub const STORE_VERSION: u32 = 1;

const TRACE_MAGIC: &[u8] = b"rvz-trace-store";
const SOLO_MAGIC: &[u8] = b"rvz-solo-store";

/// Rounds of the fresh-stepped prefix a restored trajectory is checked
/// against at load time.
pub const SPOT_ROUNDS: u64 = 256;

/// Hard caps a loader enforces before *building* anything from a key:
/// a corrupt or hostile record must not make the loader construct a
/// million-node tree or index past an enumeration.
const MAX_LOAD_N: usize = 1 << 16;

fn header(magic: &[u8]) -> Vec<u8> {
    let mut h = magic.to_vec();
    h.extend_from_slice(&STORE_VERSION.to_le_bytes());
    h
}

fn encode_key(
    out: &mut Vec<u8>,
    family: Family,
    n: usize,
    tree_seed: u64,
    start: NodeId,
    variant: Variant,
) {
    let f = family.name().as_bytes();
    let v = variant.name().as_bytes();
    out.push(f.len() as u8);
    out.extend_from_slice(f);
    out.push(v.len() as u8);
    out.extend_from_slice(v);
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&tree_seed.to_le_bytes());
    out.extend_from_slice(&start.to_le_bytes());
}

/// Splits a record body into its decoded key and the entry payload.
fn decode_key(body: &[u8]) -> Option<(Family, usize, u64, NodeId, Variant, &[u8])> {
    let mut pos = 0usize;
    let mut take = |len: usize| -> Option<&[u8]> {
        let piece = body.get(pos..pos + len)?;
        pos += len;
        Some(piece)
    };
    let flen = take(1)?[0] as usize;
    let family = Family::from_name(std::str::from_utf8(take(flen)?).ok()?)?;
    let vlen = take(1)?[0] as usize;
    let variant = Variant::from_name(std::str::from_utf8(take(vlen)?).ok()?)?;
    let n = u64::from_le_bytes(take(8)?.try_into().ok()?);
    let n = usize::try_from(n).ok()?;
    let tree_seed = u64::from_le_bytes(take(8)?.try_into().ok()?);
    let start = NodeId::from_le_bytes(take(4)?.try_into().ok()?);
    Some((family, n, tree_seed, start, variant, &body[pos..]))
}

/// Frames a store file: the header, then one record per entry.
fn encode_store(magic: &[u8], entries: &[memo::Entry]) -> (Vec<u8>, usize) {
    let mut out = Vec::new();
    wire::frame_record(&mut out, &header(magic));
    let mut count = 0usize;
    for (family, n, tree_seed, start, variant, payload) in entries {
        let mut body = Vec::with_capacity(40 + payload.len());
        encode_key(&mut body, *family, *n, *tree_seed, *start, *variant);
        body.extend_from_slice(payload);
        if body.len() <= wire::MAX_RECORD_BYTES {
            wire::frame_record(&mut out, &body);
            count += 1;
        }
    }
    (out, count)
}

/// Serializes every in-memory trajectory; returns the file bytes plus the
/// entry count.
pub fn encode_trace_store() -> (Vec<u8>, usize) {
    encode_store(TRACE_MAGIC, &memo::export_recordings())
}

/// Serializes every in-memory solo lasso; returns the file bytes plus the
/// entry count.
pub fn encode_solo_store() -> (Vec<u8>, usize) {
    encode_store(SOLO_MAGIC, &memo::export_lassos())
}

/// What one store load recovered.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoadStats {
    /// Entries validated, verified, and installed.
    pub loaded: usize,
    /// Entries rejected by any validation or verification step.
    pub dropped: usize,
    /// Valid entries not installed (key already live).
    pub skipped: usize,
}

/// Builds (and memoizes per load) the tree a key names, refusing keys
/// that would panic or allocate absurdly instead of building them.
fn tree_for(
    trees: &mut HashMap<(Family, usize, u64), Option<Tree>>,
    family: Family,
    n: usize,
    tree_seed: u64,
) -> Option<&Tree> {
    trees
        .entry((family, n, tree_seed))
        .or_insert_with(|| {
            if n == 0 || n > MAX_LOAD_N {
                return None;
            }
            if family == Family::EnumFree
                && (n > crate::sweep::MAX_ENUM_SIZE
                    || tree_seed >= rvz_trees::enumerate::free_tree_count(n))
            {
                return None;
            }
            Some(family.build(n, tree_seed))
        })
        .as_ref()
}

/// The load-time spot check of a restored trajectory: re-step a fresh
/// recorder for `min(rounds, SPOT_ROUNDS)` rounds and demand identical
/// positions and memory marks throughout.
fn verify_trajectory(tree: &Tree, variant: Variant, start: NodeId, traj: &Trajectory) -> bool {
    let n = tree.num_nodes();
    if traj.start() != start || (start as usize) >= n || (traj.max_node() as usize) >= n {
        return false;
    }
    let spot = traj.rounds().min(SPOT_ROUNDS);
    let mut probe = memo::VariantRecorder::rebuild(variant, start, tree);
    probe.record_to(tree, spot);
    let fresh = probe.trajectory();
    (0..=spot).all(|r| fresh.position(r) == traj.position(r))
        && (0..=spot).all(|a| fresh.bits_at(a) == traj.bits_at(a))
}

/// Parses + verifies + installs trace-store bytes. Never panics on
/// corrupt input; every reject is counted (and the file-level caller
/// reports them).
pub fn load_trace_store_bytes(bytes: &[u8]) -> LoadStats {
    load_store_bytes(bytes, TRACE_MAGIC, |(family, n, tree_seed, start, variant), tree, payload| {
        let traj = Trajectory::from_bytes(payload).ok()?;
        verify_trajectory(tree, variant, start, &traj)
            .then(|| memo::install_recording(family, n, tree_seed, tree, start, variant, traj))
    })
}

/// Parses + verifies + installs solo-store bytes. Every restored lasso is
/// *fully* re-verified by independent stepping before installation.
pub fn load_solo_store_bytes(bytes: &[u8]) -> LoadStats {
    load_store_bytes(bytes, SOLO_MAGIC, |(family, n, tree_seed, start, variant), tree, payload| {
        // Only the automaton variant has an exported configuration space.
        if variant != Variant::BasicWalkFsa {
            return None;
        }
        let lasso = SoloLasso::from_bytes(payload).ok()?;
        let fsa = rvz_agent::Fsa::basic_walk(tree.max_degree().max(1));
        (lasso.position(0) == start && lasso.verify_solo(tree, &fsa))
            .then(|| memo::install_lasso(family, n, tree_seed, tree, start, lasso))
    })
}

/// The loader both store files share: frame parse, header check (a wrong
/// magic or version drops the whole file), torn-tail count, key decode and
/// one tree per instance key. `install` decodes, verifies and installs one
/// record's payload on the tree its key names: `None` drops the record,
/// `Some(false)` skips it (its key is already live).
fn load_store_bytes(
    bytes: &[u8],
    magic: &[u8],
    install: impl Fn((Family, usize, u64, NodeId, Variant), &Tree, &[u8]) -> Option<bool>,
) -> LoadStats {
    let (records, clean) = wire::read_records(bytes);
    let mut stats = LoadStats::default();
    if records.first().map(|r| *r != header(magic)).unwrap_or(true) {
        // Wrong magic or version: a whole-file reject, not a prefix.
        stats.dropped = records.len().max(1);
        return stats;
    }
    if !clean {
        stats.dropped += 1;
    }
    let mut trees: HashMap<(Family, usize, u64), Option<Tree>> = HashMap::new();
    for body in &records[1..] {
        let installed =
            decode_key(body).and_then(|(family, n, tree_seed, start, variant, payload)| {
                let tree = tree_for(&mut trees, family, n, tree_seed)?;
                install((family, n, tree_seed, start, variant), tree, payload)
            });
        match installed {
            Some(true) => stats.loaded += 1,
            Some(false) => stats.skipped += 1,
            None => stats.dropped += 1,
        }
    }
    stats
}

/// Reads a store file with the `cache-load` fail point applied (the
/// fault-injection harness corrupts, truncates, aborts, or errors here).
fn read_store_file(path: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = std::fs::read(path)?;
    match faults::check(faults::Site::CacheLoad) {
        None => {}
        Some(faults::Action::Abort) => std::process::abort(),
        Some(faults::Action::BitFlip) => {
            let mid = bytes.len() / 2;
            if let Some(b) = bytes.get_mut(mid) {
                *b ^= 0x10;
            }
        }
        Some(faults::Action::ShortWrite) => {
            let half = bytes.len() / 2;
            bytes.truncate(half);
        }
        Some(faults::Action::Enospc) => {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected read error (rvz-faults)",
            ));
        }
    }
    Ok(bytes)
}

fn load_one(path: &Path, load: fn(&[u8]) -> LoadStats, what: &str) -> LoadStats {
    match read_store_file(path) {
        Ok(bytes) => {
            let stats = load(&bytes);
            if stats.dropped > 0 {
                eprintln!(
                    "warning: {}: dropped {} corrupt/unverifiable {what} record(s); \
                     {} loaded — dropped entries will be recomputed on demand",
                    path.display(),
                    stats.dropped,
                    stats.loaded
                );
            }
            stats
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => LoadStats::default(),
        Err(e) => {
            eprintln!(
                "warning: cannot read {} ({e}); continuing with a cold {what} store",
                path.display()
            );
            LoadStats::default()
        }
    }
}

/// Loads both stores from `DIR` (missing files are simply cold starts;
/// unreadable or corrupt ones degrade with a warning, never an error).
pub fn load_all(dir: &Path) -> (LoadStats, LoadStats) {
    (
        load_one(&dir.join(TRACE_STORE_FILE), load_trace_store_bytes, "trajectory"),
        load_one(&dir.join(SOLO_STORE_FILE), load_solo_store_bytes, "lasso"),
    )
}

fn write_store(path: &Path, mut bytes: Vec<u8>) -> io::Result<()> {
    match faults::mangle_write(faults::Site::StoreFlush, &mut bytes)? {
        faults::WriteFate::Full => wire::atomic_write(path, &bytes),
        faults::WriteFate::Short(k) => {
            // The injected torn flush deliberately bypasses the atomic
            // path: it writes a ragged prefix under the real name — the
            // legacy failure the clean-prefix loader must absorb.
            std::fs::write(path, &bytes[..k])?;
            faults::finish_short_write()
        }
    }
}

/// Flushes every in-memory trajectory and lasso to `DIR` atomically;
/// returns the entry counts `(trace, solo)`.
pub fn save_all(dir: &Path) -> io::Result<(usize, usize)> {
    std::fs::create_dir_all(dir)?;
    let (trace_bytes, trace_count) = encode_trace_store();
    write_store(&dir.join(TRACE_STORE_FILE), trace_bytes)?;
    let (solo_bytes, solo_count) = encode_solo_store();
    write_store(&dir.join(SOLO_STORE_FILE), solo_bytes)?;
    Ok((trace_count, solo_count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{self, Delay, Executor, SweepSpec};

    /// Runs a tiny sweep so both stores hold entries keyed by `seed`.
    fn warm_stores(seed: u64) -> sweep::SweepReport {
        let spec = SweepSpec {
            experiment: "stores-test",
            families: vec![sweep::Family::Line, sweep::Family::Spider3],
            sizes: vec![6, 7],
            delays: vec![Delay::Zero, Delay::Fixed(2)],
            variants: vec![sweep::Variant::BasicWalkFsa],
            pairs_per_cell: 2,
            seed,
            threads: 1,
            executor: Executor::ExactDecide,
            agents: 2,
        };
        sweep::run(&spec)
    }

    #[test]
    fn stores_round_trip_and_survive_any_corruption() {
        let report = warm_stores(0xC0FFEE);
        assert!(!report.rows.is_empty());
        let (trace_bytes, trace_count) = encode_trace_store();
        let (solo_bytes, solo_count) = encode_solo_store();
        assert!(solo_count > 0, "the decide executor must have tabulated lassos");

        // A clean load re-validates everything; entries are skipped (the
        // live store already holds those keys) or loaded, never dropped.
        let stats = load_solo_store_bytes(&solo_bytes);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.loaded + stats.skipped, solo_count);
        let stats = load_trace_store_bytes(&trace_bytes);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.loaded + stats.skipped, trace_count);

        // Truncation at every byte: never a panic, never more entries than
        // written, and what does load passed the same verification. Both
        // sweeps fuzz a bounded *prefix* of the encoding: the stores are
        // process-wide, so under the full `cargo test` run they hold every
        // other test's trajectories and an unstrided sweep is quadratic in
        // the file size (each load re-parses up to its cut — unbounded, it
        // once pinned the debug suite for 20+ minutes). The header and the
        // first records are where every framing decision lives, and a
        // solo run (small store) still covers the whole file.
        const FUZZ_CAP: usize = 1 << 14;
        for bytes in [&trace_bytes, &solo_bytes] {
            let load = if std::ptr::eq(bytes, &trace_bytes) {
                load_trace_store_bytes as fn(&[u8]) -> LoadStats
            } else {
                load_solo_store_bytes
            };
            let cap = bytes.len().min(FUZZ_CAP);
            for cut in (0..cap).step_by(7) {
                let stats = load(&bytes[..cut]);
                assert!(stats.loaded + stats.skipped <= trace_count.max(solo_count));
            }
            // Single-bit flips across the capped prefix (stride keeps the
            // test fast): a flip either hits a checksum (record dropped)
            // or the header (file dropped) — never a wrong entry.
            for bit in (0..cap * 8).step_by(41) {
                let mut bad = bytes[..cap].to_vec();
                bad[bit / 8] ^= 1 << (bit % 8);
                let _ = load(&bad);
            }
        }
    }

    #[test]
    fn every_lasso_is_flushed() {
        // Distinct base seeds mint distinct tree seeds, hence distinct
        // keys, on the same line family: warm more lassos than the old
        // 2,048-entry cap kept, and find every one in the flush.
        let mut warmed = Vec::new();
        for seed in 0..260u64 {
            let cell = sweep::Cell {
                experiment: "stores-flush-test",
                family: Family::Line,
                n: 8,
                delay: Delay::Zero,
                variant: Variant::BasicWalkFsa,
                pair_index: 0,
                pairs_total: 1,
                base_seed: 0xF1A5_0000 + seed,
                tree_index: None,
                agents: 2,
            };
            let inst = sweep::SweepInstance::for_cell(&cell);
            for start in 0..8 {
                let _ = inst.solo_lasso(start);
                warmed.push((inst.tree_seed, start));
            }
        }
        assert!(warmed.len() > 2048);
        let (bytes, count) = encode_solo_store();
        let (records, clean) = wire::read_records(&bytes);
        assert!(clean);
        assert_eq!(records.len(), count + 1, "a header, then one record per lasso");
        let saved: std::collections::HashSet<(u64, NodeId)> = records[1..]
            .iter()
            .filter_map(|body| decode_key(body))
            .filter(|&(family, n, ..)| family == Family::Line && n == 8)
            .map(|(_, _, tree_seed, start, ..)| (tree_seed, start))
            .collect();
        for key in &warmed {
            assert!(saved.contains(key), "lasso {key:?} missing from the flush");
        }
    }

    #[test]
    fn save_all_writes_loadable_files() {
        let _ = warm_stores(0xBEEF);
        let dir = std::env::temp_dir().join(format!("rvz-stores-test-{}", std::process::id()));
        let (trace_count, solo_count) = save_all(&dir).expect("save");
        let (trace_stats, solo_stats) = load_all(&dir);
        assert_eq!(trace_stats.dropped, 0);
        assert_eq!(solo_stats.dropped, 0);
        assert_eq!(trace_stats.loaded + trace_stats.skipped, trace_count);
        assert_eq!(solo_stats.loaded + solo_stats.skipped, solo_count);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
