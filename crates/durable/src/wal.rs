//! The logical write-ahead log.
//!
//! The WAL records **committed submissions** — whole batches of interval
//! operations, exactly as the serving engine's writer applies them — not
//! physical page images. The batches determine the index's content
//! (recovery folds them into the checkpoint's, see
//! [`crate::Recovered::try_rebuild_sharded_on`]), so logical logging is sufficient for
//! the recovery invariant (*acknowledged ⇒ recovered*).
//!
//! ## On-disk format
//!
//! ```text
//! header   : [magic  8B = "CCIXWAL\x01"]
//! record   : [len u32][crc u32][payload len bytes]      (little-endian)
//! payload  : [kind u8 = 2][ops_after u64][n u32][n × (tag u8, lo i64, hi i64, id u64)]
//! ```
//!
//! `crc` covers the payload only; `len` is the payload length. `ops_after`
//! is the cumulative operation count *after* this batch, which makes
//! replay-after-checkpoint a pure filter (`ops_after > ckpt.ops_applied`)
//! and stale tails harmless.
//!
//! ## Torn tails
//!
//! [`Wal::open`] scans from the header and stops at the first record whose
//! length or CRC does not check out — a crash mid-append leaves exactly
//! that state — then truncates the file back to the last valid boundary.
//! A torn tail is **never** an error: the lost suffix was by construction
//! never acknowledged (acks wait for the covering fsync).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ccix_interval::{Interval, IntervalOp};

use crate::crc32;
use ccix_extmem::fs::{read_exact_at, retry_interrupted, write_all_at, Fs, RawFile};

/// File magic: identifies a WAL and pins its format version.
pub const WAL_MAGIC: [u8; 8] = *b"CCIXWAL\x01";

/// Record kind: a committed batch of interval operations.
const KIND_COMMIT: u8 = 2;

/// Operation tags inside a commit payload.
const TAG_INSERT: u8 = 0;
const TAG_DELETE: u8 = 1;

/// Per-record framing overhead (`len` + `crc`).
const FRAME: u64 = 8;

/// Hard cap on one record's payload, against garbage length fields. A
/// batch of a million ops is ~25 MB; anything past this is corruption.
const MAX_RECORD: u32 = 64 << 20;

/// One committed batch as read back from the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Cumulative operation count after applying this batch.
    pub ops_after: u64,
    /// The batch, in application order.
    pub ops: Vec<IntervalOp>,
}

/// What [`Wal::open`] found.
#[derive(Debug)]
pub struct WalOpen {
    /// The log, positioned for appending.
    pub wal: Wal,
    /// Every valid commit record, in log order.
    pub records: Vec<CommitRecord>,
    /// Bytes discarded from a torn or corrupt tail (0 for a clean log).
    pub truncated_bytes: u64,
}

/// An append-only, CRC-framed log of committed batches.
pub struct Wal {
    file: Box<dyn RawFile>,
    path: PathBuf,
    /// Next append offset (end of the last valid record).
    end: u64,
    /// Bytes appended since the last [`Wal::sync`].
    unsynced: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("end", &self.end)
            .field("unsynced", &self.unsynced)
            .finish()
    }
}

fn encode_commit(ops_after: u64, ops: &[IntervalOp], out: &mut Vec<u8>) {
    out.push(KIND_COMMIT);
    out.extend_from_slice(&ops_after.to_le_bytes());
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        let (tag, iv) = match op {
            IntervalOp::Insert(iv) => (TAG_INSERT, iv),
            IntervalOp::Delete(iv) => (TAG_DELETE, iv),
        };
        out.push(tag);
        out.extend_from_slice(&iv.lo.to_le_bytes());
        out.extend_from_slice(&iv.hi.to_le_bytes());
        out.extend_from_slice(&iv.id.to_le_bytes());
    }
}

fn decode_commit(payload: &[u8]) -> Option<CommitRecord> {
    if payload.len() < 13 || payload[0] != KIND_COMMIT {
        return None;
    }
    let ops_after = u64::from_le_bytes(payload[1..9].try_into().ok()?);
    let n = u32::from_le_bytes(payload[9..13].try_into().ok()?) as usize;
    let body = &payload[13..];
    if body.len() != n * 25 {
        return None;
    }
    let mut ops = Vec::with_capacity(n);
    for rec in body.chunks_exact(25) {
        let lo = i64::from_le_bytes(rec[1..9].try_into().ok()?);
        let hi = i64::from_le_bytes(rec[9..17].try_into().ok()?);
        let id = u64::from_le_bytes(rec[17..25].try_into().ok()?);
        if hi < lo {
            return None;
        }
        let iv = Interval::new(lo, hi, id);
        ops.push(match rec[0] {
            TAG_INSERT => IntervalOp::Insert(iv),
            TAG_DELETE => IntervalOp::Delete(iv),
            _ => return None,
        });
    }
    Some(CommitRecord { ops_after, ops })
}

impl Wal {
    /// Create a fresh, empty log at `path` (truncating any existing file)
    /// and make the empty state durable.
    pub fn create(fs: &Arc<dyn Fs>, path: &Path) -> io::Result<Wal> {
        let mut file = fs.open(path, true)?;
        retry_interrupted(|| file.set_len(0))?;
        write_all_at(file.as_mut(), 0, &WAL_MAGIC)?;
        retry_interrupted(|| file.sync())?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            end: WAL_MAGIC.len() as u64,
            unsynced: 0,
        })
    }

    /// Open an existing log, replay-scanning every valid record and
    /// truncating any torn or corrupt tail back to the last valid record
    /// boundary. A file shorter than the header is a crash inside
    /// [`Wal::create`] (the magic is synced before `create` returns, and
    /// nothing can be acknowledged before that): the empty log is rebuilt
    /// in place. A full-length header that is not the magic is a foreign
    /// file, and *that* is an error.
    pub fn open(fs: &Arc<dyn Fs>, path: &Path) -> io::Result<WalOpen> {
        let mut file = fs.open(path, false)?;
        let len = file.len()?;
        if len < WAL_MAGIC.len() as u64 {
            let truncated_bytes = len;
            retry_interrupted(|| file.set_len(0))?;
            write_all_at(file.as_mut(), 0, &WAL_MAGIC)?;
            retry_interrupted(|| file.sync())?;
            return Ok(WalOpen {
                wal: Wal {
                    file,
                    path: path.to_path_buf(),
                    end: WAL_MAGIC.len() as u64,
                    unsynced: 0,
                },
                records: Vec::new(),
                truncated_bytes,
            });
        }
        let mut magic = [0u8; 8];
        read_exact_at(file.as_ref(), 0, &mut magic)?;
        if magic != WAL_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a WAL (bad magic)", path.display()),
            ));
        }
        let mut records = Vec::new();
        let mut off = WAL_MAGIC.len() as u64;
        loop {
            // Stop — cleanly — at the first frame that does not check out.
            let mut frame = [0u8; 8];
            if off + FRAME > len {
                break;
            }
            read_exact_at(file.as_ref(), off, &mut frame)?;
            let plen = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes"));
            let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
            if plen > MAX_RECORD || off + FRAME + plen as u64 > len {
                break;
            }
            let mut payload = vec![0u8; plen as usize];
            read_exact_at(file.as_ref(), off + FRAME, &mut payload)?;
            if crc32(&payload) != crc {
                break;
            }
            let Some(rec) = decode_commit(&payload) else {
                break;
            };
            records.push(rec);
            off += FRAME + plen as u64;
        }
        let truncated_bytes = len - off;
        if truncated_bytes > 0 {
            retry_interrupted(|| file.set_len(off))?;
            retry_interrupted(|| file.sync())?;
        }
        Ok(WalOpen {
            wal: Wal {
                file,
                path: path.to_path_buf(),
                end: off,
                unsynced: 0,
            },
            records,
            truncated_bytes,
        })
    }

    /// Append one committed batch. The record is **not** durable until the
    /// next [`Wal::sync`]; callers must not acknowledge before then.
    pub fn append_commit(&mut self, ops_after: u64, ops: &[IntervalOp]) -> io::Result<()> {
        let mut payload = Vec::with_capacity(13 + ops.len() * 25);
        encode_commit(ops_after, ops, &mut payload);
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        write_all_at(self.file.as_mut(), self.end, &frame)?;
        self.end += frame.len() as u64;
        self.unsynced += frame.len() as u64;
        Ok(())
    }

    /// Flush appended records to stable storage. Acknowledgements may be
    /// released for every record appended before this call returns.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        retry_interrupted(|| self.file.sync())?;
        self.unsynced = 0;
        Ok(())
    }

    /// Whether appends are waiting on a [`Wal::sync`].
    pub fn has_unsynced(&self) -> bool {
        self.unsynced > 0
    }

    /// Truncate the log to empty (after a checkpoint has made its contents
    /// redundant) and make the truncation durable.
    pub fn reset(&mut self) -> io::Result<()> {
        retry_interrupted(|| self.file.set_len(WAL_MAGIC.len() as u64))?;
        retry_interrupted(|| self.file.sync())?;
        self.end = WAL_MAGIC.len() as u64;
        self.unsynced = 0;
        Ok(())
    }

    /// Current log length in bytes (header included).
    pub fn len_bytes(&self) -> u64 {
        self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::TempDir;
    use ccix_extmem::fs::RealFs;

    fn iv(lo: i64, hi: i64, id: u64) -> Interval {
        Interval::new(lo, hi, id)
    }

    fn sample_batches() -> Vec<(u64, Vec<IntervalOp>)> {
        vec![
            (
                2,
                vec![
                    IntervalOp::Insert(iv(1, 5, 10)),
                    IntervalOp::Insert(iv(-3, 2, 11)),
                ],
            ),
            (3, vec![IntervalOp::Delete(iv(1, 5, 10))]),
            (
                5,
                vec![
                    IntervalOp::Insert(iv(i64::MIN, i64::MAX, 12)),
                    IntervalOp::Insert(iv(0, 0, 13)),
                ],
            ),
        ]
    }

    /// The bytes on disk do not move: one commit frame's payload and
    /// checksum are the ones the bytewise CRC gave.
    #[test]
    fn a_commit_frame_encodes_to_its_pinned_checksum() {
        let ops = [
            IntervalOp::Insert(iv(1, 5, 10)),
            IntervalOp::Delete(iv(-3, 2, 11)),
        ];
        let mut payload = Vec::new();
        encode_commit(2, &ops, &mut payload);
        assert_eq!(payload.len(), 63);
        assert_eq!(crc32(&payload), 0x875C_FF83);
    }

    #[test]
    fn append_sync_reopen_roundtrip() {
        let tmp = TempDir::new("wal-roundtrip");
        let path = tmp.path().join("wal");
        let fs = RealFs::shared();
        let mut wal = Wal::create(&fs, &path).expect("create");
        for (ops_after, ops) in sample_batches() {
            wal.append_commit(ops_after, &ops).expect("append");
        }
        assert!(wal.has_unsynced());
        wal.sync().expect("sync");
        assert!(!wal.has_unsynced());
        drop(wal);

        let opened = Wal::open(&fs, &path).expect("open");
        assert_eq!(opened.truncated_bytes, 0);
        assert_eq!(opened.records.len(), 3);
        for (rec, (ops_after, ops)) in opened.records.iter().zip(sample_batches()) {
            assert_eq!(rec.ops_after, ops_after);
            assert_eq!(rec.ops, ops);
        }
    }

    #[test]
    fn torn_tail_is_truncated_not_an_error() {
        let tmp = TempDir::new("wal-torn");
        let path = tmp.path().join("wal");
        let fs = RealFs::shared();
        let mut wal = Wal::create(&fs, &path).expect("create");
        for (ops_after, ops) in sample_batches() {
            wal.append_commit(ops_after, &ops).expect("append");
        }
        wal.sync().expect("sync");
        drop(wal);

        // Tear the file mid-record, at every byte boundary inside the last
        // record: recovery must always surface exactly the intact prefix.
        let full = std::fs::read(&path).expect("read");
        let clean2 = {
            // Length of the first two records: reopen and measure.
            let mut w = Wal::create(&fs, &tmp.path().join("wal2")).expect("create");
            for (ops_after, ops) in sample_batches().iter().take(2) {
                w.append_commit(*ops_after, ops).expect("append");
            }
            w.len_bytes()
        };
        for cut in clean2 + 1..full.len() as u64 {
            std::fs::write(&path, &full[..cut as usize]).expect("tear");
            let opened = Wal::open(&fs, &path).expect("open torn");
            assert_eq!(opened.records.len(), 2, "cut at {cut}");
            assert_eq!(opened.truncated_bytes, cut - clean2);
            assert_eq!(opened.wal.len_bytes(), clean2);
            // Restore for the next cut.
            std::fs::write(&path, &full).expect("restore");
        }
    }

    #[test]
    fn garbage_tail_stops_at_bad_crc() {
        let tmp = TempDir::new("wal-garbage");
        let path = tmp.path().join("wal");
        let fs = RealFs::shared();
        let mut wal = Wal::create(&fs, &path).expect("create");
        wal.append_commit(1, &[IntervalOp::Insert(iv(0, 9, 1))])
            .expect("append");
        wal.sync().expect("sync");
        let clean = wal.len_bytes();
        drop(wal);

        // Append a frame with a plausible length but wrong CRC, then junk.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&20u32.to_le_bytes());
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 20]);
        bytes.extend_from_slice(&[0xFF; 7]);
        std::fs::write(&path, &bytes).expect("write");

        let opened = Wal::open(&fs, &path).expect("open");
        assert_eq!(opened.records.len(), 1);
        assert_eq!(opened.wal.len_bytes(), clean);
        // And after truncation a clean reopen sees no tail at all.
        let again = Wal::open(&fs, &path).expect("reopen");
        assert_eq!(again.truncated_bytes, 0);
        assert_eq!(again.records.len(), 1);
    }

    #[test]
    fn reset_empties_the_log() {
        let tmp = TempDir::new("wal-reset");
        let path = tmp.path().join("wal");
        let fs = RealFs::shared();
        let mut wal = Wal::create(&fs, &path).expect("create");
        wal.append_commit(1, &[IntervalOp::Insert(iv(0, 1, 1))])
            .expect("append");
        wal.sync().expect("sync");
        wal.reset().expect("reset");
        drop(wal);
        let opened = Wal::open(&fs, &path).expect("open");
        assert!(opened.records.is_empty());
        assert_eq!(opened.truncated_bytes, 0);
    }

    #[test]
    fn torn_header_recovers_to_an_empty_log() {
        let tmp = TempDir::new("wal-torn-header");
        let path = tmp.path().join("wal");
        let fs = RealFs::shared();
        // A crash inside create leaves a prefix of the magic — any length
        // short of the full header must reopen as a fresh empty log.
        for cut in 0..WAL_MAGIC.len() {
            std::fs::write(&path, &WAL_MAGIC[..cut]).expect("tear header");
            let opened = Wal::open(&fs, &path).expect("open torn header");
            assert!(opened.records.is_empty(), "cut at {cut}");
            assert_eq!(opened.truncated_bytes, cut as u64);
            assert_eq!(opened.wal.len_bytes(), WAL_MAGIC.len() as u64);
            // The rebuilt header is durable and appendable.
            let again = Wal::open(&fs, &path).expect("reopen");
            assert_eq!(again.truncated_bytes, 0);
        }
    }

    #[test]
    fn non_wal_file_is_rejected() {
        let tmp = TempDir::new("wal-magic");
        let path = tmp.path().join("wal");
        std::fs::write(&path, b"definitely not a wal").expect("write");
        let fs = RealFs::shared();
        let err = Wal::open(&fs, &path).expect_err("bad magic");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
