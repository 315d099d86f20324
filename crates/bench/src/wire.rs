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
//! whole crash model — a killed writer loses at most what it had not yet
//! written whole, and detected corruption degrades to recomputation, never
//! to a wrong value ("degrade, never lie"; see docs/persistence.md).
//!
//! [`atomic_write`] / [`atomic_write_with`] are the other half: report
//! files (`--json`, `--certificates`, `BENCH_sweep.json`) and store
//! snapshots are written (or streamed) to a temporary sibling, fsynced,
//! and renamed into place, so a kill during a write can never leave a
//! half-written file under the real name.
//!
//! The same frame also carries the `--workers` pipe protocol
//! ([`crate::supervisor`]): [`read_frame`] reads one whole frame at a
//! time from a worker's stdin or stdout, keeping its header, so result
//! frames reach the journal as the bytes the worker framed.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// The slicing-by-8 tables of CRC-32: `TABLES[0]` is the classic
/// byte-at-a-time table, and `TABLES[k][b]` advances the byte `b` through
/// `k` further zero bytes, so eight lookups consume eight input bytes.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the same
/// checksum gzip/zip use, implemented locally because the offline build
/// bakes in no checksum crate. Eight bytes per step (slicing-by-8), then
/// the tail byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Largest record body either persistence layer will frame or accept.
/// Generous (a worst-case `MAX_RECORD_ROUNDS` trajectory is ~128 MiB of
/// runs) but finite, so a corrupted length prefix cannot drive a reader
/// into a multi-gigabyte allocation.
pub const MAX_RECORD_BYTES: usize = 1 << 28;

/// How many bytes of frames are gathered into one `write`: a `--workers`
/// worker's result batch, a reader's buffer and the journal's pending
/// batch. 64 KiB is the default pipe capacity on Linux.
pub const BATCH_BYTES: usize = 64 << 10;

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

/// Reads the next frame from a stream, such as a pipe, and appends it
/// whole — header and body — to `out`: `Ok(false)` at a clean end of
/// stream (EOF before the first header byte), `Ok(true)` otherwise, with
/// the body at `out[start + 8..]` for the `start` the caller saw. A frame
/// cut short by EOF, an oversized length or a checksum mismatch is an
/// error and leaves `out` as it was — a live stream has no clean prefix
/// to fall back to. The body grows as bytes arrive, so a corrupted length
/// cannot force a large allocation up front.
pub fn read_frame(r: &mut impl Read, out: &mut Vec<u8>) -> io::Result<bool> {
    let start = out.len();
    let result = (|| {
        // Up to `n` more bytes into `out`, fewer only at EOF.
        let mut take = |n: usize, out: &mut Vec<u8>| r.by_ref().take(n as u64).read_to_end(out);
        if take(8, out)? == 0 {
            return Ok(false);
        }
        let cut_short = || io::Error::from(io::ErrorKind::UnexpectedEof);
        let header: [u8; 8] = out[start..].try_into().map_err(|_| cut_short())?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("an 8-byte header")) as usize;
        if len > MAX_RECORD_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "frame length over the cap"));
        }
        if take(len, out)? < len {
            return Err(cut_short());
        }
        if crc32(&out[start + 8..]) != u32::from_le_bytes(header[4..].try_into().expect("8 bytes"))
        {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "frame checksum mismatch"));
        }
        Ok(true)
    })();
    if result.is_err() {
        out.truncate(start);
    }
    result
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
    let mut pending = Pending::create(path)?;
    write(&mut pending.file)?;
    pending.publish()
}

/// A file being filled under its temp sibling (`NAME.tmp`), for as long
/// as its writer needs: [`atomic_write_with`] fills one in a single call,
/// and a sweep's report files fill theirs block by block while the sweep
/// runs. Nothing appears under the real name until [`Pending::publish`].
#[derive(Debug)]
pub struct Pending {
    /// The temp sibling, created (or truncated) empty.
    pub file: File,
    path: std::path::PathBuf,
    tmp: std::path::PathBuf,
}

impl Pending {
    /// Creates `path`'s temp sibling, empty.
    pub fn create(path: &Path) -> io::Result<Pending> {
        let file_name = path
            .file_name()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        Ok(Pending { file: File::create(&tmp)?, path: path.to_path_buf(), tmp })
    }

    /// Flushes and fsyncs the temp sibling and renames it over the real
    /// path (then a best-effort directory fsync, so the rename itself is
    /// durable).
    pub fn publish(mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.sync_all()?;
        drop(self.file);
        std::fs::rename(&self.tmp, &self.path)?;
        let dir = match self.path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

/// Writes a single framed record as the whole content of `path`,
/// atomically — the `--workers` plan file is one record replaced
/// wholesale, so a worker never reads a torn one.
pub fn write_framed(path: &Path, body: &[u8]) -> io::Result<()> {
    let mut framed = Vec::with_capacity(body.len() + 8);
    frame_record(&mut framed, body);
    atomic_write(path, &framed)
}

/// Reads a file written by [`write_framed`]: exactly one clean record, or
/// `None` (missing file, torn frame, checksum failure, or trailing
/// garbage — a plan file that is not perfectly intact is ignored).
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

    /// CRC-32 one byte per table lookup: the reference the sliced loop
    /// must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_loop() {
        // Random bytes (splitmix64), every length up to 2 KiB at every
        // start offset modulo the 8-byte step.
        let mut state = 0x5EED_C4C3_u64;
        let bytes: Vec<u8> = (0..2048 + 8)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (z ^ (z >> 27)) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=2048 {
                let input = &bytes[start..start + len];
                assert_eq!(crc32(input), crc32_bytewise(input), "start {start}, length {len}");
            }
        }
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
    fn stream_frames_round_trip_and_reject_damage() {
        let mut buf = Vec::new();
        frame_record(&mut buf, b"alpha");
        frame_record(&mut buf, b"");
        let mut r = buf.as_slice();
        let mut out = b"kept".to_vec();
        assert!(read_frame(&mut r, &mut out).unwrap());
        assert!(read_frame(&mut r, &mut out).unwrap());
        assert!(!read_frame(&mut r, &mut out).unwrap(), "clean EOF between frames");
        assert_eq!(out[..4], *b"kept");
        assert_eq!(out[4..], buf, "whole frames, headers included, appended as read");
        // The first frame is 13 bytes. Cut anywhere after its first byte,
        // or with any byte flipped, it is an error that appends nothing,
        // never a shorter body.
        for cut in 1..13 {
            let mut out = b"kept".to_vec();
            assert!(read_frame(&mut &buf[..cut], &mut out).is_err(), "cut at {cut}");
            assert_eq!(out, b"kept");
        }
        for byte in 0..13 {
            let mut bad = buf.clone();
            bad[byte] ^= 0x40;
            let mut out = Vec::new();
            assert!(read_frame(&mut bad.as_slice(), &mut out).is_err(), "flipped byte {byte}");
            assert!(out.is_empty());
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
