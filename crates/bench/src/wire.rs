//! Shared crash-safety plumbing: CRC-32 checksums, length-prefixed record
//! framing, and atomic file replacement.
//!
//! Both persistence layers — the checkpoint journal ([`crate::checkpoint`])
//! and the on-disk trajectory/lasso stores ([`crate::stores`], fed by
//! the private per-instance `memo`) — frame their records the same way: a
//! little-endian length, a CRC-32 over the body, then the body. A reader
//! accepts the longest *clean prefix* of a file: the first record whose
//! frame is truncated, whose length is implausible, or whose checksum
//! disagrees ends the parse, and everything before it is kept. That is the
//! whole crash model — a killed writer loses at most its last in-flight
//! record, and detected corruption degrades to recomputation, never to a
//! wrong value ("degrade, never lie"; see docs/persistence.md).
//!
//! [`atomic_write`] / [`atomic_write_with`] are the other half: report
//! files (`--json`, `--certificates`, `BENCH_sweep.json`) and store
//! snapshots are written (or streamed) to a temporary sibling, fsynced,
//! and renamed into place, so a kill during a write can never leave a
//! half-written file under the real name.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the same
/// checksum gzip/zip use, implemented locally because the offline build
/// bakes in no checksum crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Largest record body either persistence layer will frame or accept.
/// Generous (a worst-case `MAX_RECORD_ROUNDS` trajectory is ~128 MiB of
/// runs) but finite, so a corrupted length prefix cannot drive a reader
/// into a multi-gigabyte allocation.
pub const MAX_RECORD_BYTES: usize = 1 << 28;

/// Appends one framed record — `len: u32 | crc32: u32 | body` — to `out`.
pub fn frame_record(out: &mut Vec<u8>, body: &[u8]) {
    assert!(body.len() <= MAX_RECORD_BYTES, "record body over the frame cap");
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
}

/// Reads the framed records of `bytes` as a clean prefix: every record up
/// to (not including) the first truncated, oversized, or checksum-failing
/// frame. Returns the record bodies plus `true` when the whole input was
/// consumed cleanly (`false` ⇒ the tail was dropped).
pub fn read_records(bytes: &[u8]) -> (Vec<&[u8]>, bool) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + 8) else {
            return (records, false);
        };
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let want = u32::from_le_bytes(header[4..].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            return (records, false);
        }
        let Some(body) = bytes.get(pos + 8..pos + 8 + len) else {
            return (records, false);
        };
        if crc32(body) != want {
            return (records, false);
        }
        records.push(body);
        pos += 8 + len;
    }
    (records, true)
}

/// Writes `bytes` to `path` atomically (see [`atomic_write_with`]).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(path, |f| f.write_all(bytes))
}

/// Replaces `path` atomically with what `write` streams into a temp
/// sibling: temp sibling → write → flush → fsync → rename (then a
/// best-effort directory fsync, so the rename itself is durable). A kill
/// at any point leaves either the old file or the new one under `path`,
/// never a torn mix; at worst a stale `.tmp` sibling survives, which the
/// next write truncates. An error from `write` leaves `path` untouched.
pub fn atomic_write_with(
    path: &Path,
    write: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = dir.join(tmp_name);
    let mut f = File::create(&tmp)?;
    write(&mut f)?;
    f.flush()?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    if let Ok(d) = File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Writes a single framed record as the whole content of `path`,
/// atomically — the supervisor/worker control files (shard plan, lease
/// heartbeats) are all single-record files replaced wholesale, so a
/// reader never observes a torn one.
pub fn write_framed(path: &Path, body: &[u8]) -> io::Result<()> {
    let mut framed = Vec::with_capacity(body.len() + 8);
    frame_record(&mut framed, body);
    atomic_write(path, &framed)
}

/// Reads a file written by [`write_framed`]: exactly one clean record, or
/// `None` (missing file, torn frame, checksum failure, or trailing
/// garbage — a control file that is not perfectly intact is ignored).
pub fn read_framed(path: &Path) -> Option<Vec<u8>> {
    let bytes = std::fs::read(path).ok()?;
    match read_records(&bytes) {
        (records, true) if records.len() == 1 => Some(records[0].to_vec()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn framed_records_round_trip() {
        let mut buf = Vec::new();
        frame_record(&mut buf, b"alpha");
        frame_record(&mut buf, b"");
        frame_record(&mut buf, &[0xFFu8; 100]);
        let (records, clean) = read_records(&buf);
        assert!(clean);
        assert_eq!(records, vec![b"alpha".as_slice(), b"", &[0xFFu8; 100]]);
    }

    #[test]
    fn clean_prefix_survives_truncation_and_flips() {
        let mut buf = Vec::new();
        frame_record(&mut buf, b"first");
        frame_record(&mut buf, b"second");
        let full = read_records(&buf).0.len();
        assert_eq!(full, 2);
        for cut in 0..buf.len() {
            let (records, clean) = read_records(&buf[..cut]);
            assert!(records.len() <= 2);
            assert!(clean || records.len() < 2 || cut >= buf.len());
            for r in &records {
                assert!(*r == b"first" || *r == b"second");
            }
        }
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                // Never a panic, never a record that was not written.
                let (records, _) = read_records(&bad);
                for r in records {
                    assert!(r == b"first" || r == b"second", "forged record {r:?}");
                }
            }
        }
    }

    #[test]
    fn framed_file_round_trips_and_rejects_damage() {
        let dir = std::env::temp_dir().join(format!("rvz-wire-framed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("control.bin");
        assert_eq!(read_framed(&path), None, "missing file reads as None");
        write_framed(&path, b"payload").unwrap();
        assert_eq!(read_framed(&path).as_deref(), Some(b"payload".as_slice()));
        // A flipped byte or trailing garbage invalidates the whole file.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_framed(&path), None);
        write_framed(&path, b"payload").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0xFF);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_framed(&path), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let dir = std::env::temp_dir().join(format!("rvz-wire-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        atomic_write(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        atomic_write(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        // A stream that fails halfway never reaches the real name.
        let failed = atomic_write_with(&path, |f| {
            f.write_all(b"half a rep")?;
            Err(io::Error::other("encoder failed"))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
