//! Checkpoints: durable snapshots of the index's **logical** content.
//!
//! A checkpoint is not a page dump. The in-memory stores are a cost-model
//! simulator whose physical layout (metablock graph, corner structures,
//! tombstone mirrors) is an artifact of the exact operation history; what
//! recovery must reproduce is the *content* — the live set of intervals —
//! plus the construction parameters that make a rebuild deterministic. So
//! a checkpoint serialises:
//!
//! * [`Meta`] — the block geometry and the full [`IntervalOptions`]
//!   (every `Tuning` knob), so the recovered index is built
//!   with the same layout and write-path behaviour as the one that
//!   crashed. Nothing of the machine that wrote it is recorded: thread
//!   counts come from the machine that recovers;
//! * the **shard split points** of the x-range routing directory (empty
//!   for an unsharded engine), so recovery re-partitions the content into
//!   the same shards;
//! * `ops_applied` — the cumulative operation count at the snapshot, the
//!   watermark WAL replay filters against;
//! * the live intervals, as fixed-width records via the
//!   [`ccix_extmem::ser`] encoding hooks.
//!
//! ## On-disk format
//!
//! ```text
//! [magic 8B = "CCIXCKP\x04"][len u64][crc u32][body len bytes]
//! body = meta || k u64 || k × split i64 || ops_applied u64
//!             || n u64 || n × Point-encoded interval
//! meta = B u64 || the nine `Tuning` knobs in field order
//! ```
//!
//! ## Atomic publication
//!
//! [`write_checkpoint`] writes to a sidecar `checkpoint.tmp`, fsyncs it,
//! renames over `checkpoint`, then fsyncs the directory. A crash at any
//! point leaves either the old checkpoint or the new one — never a blend —
//! and a torn tmp file is invisible to recovery (and overwritten by the
//! next attempt).

use std::io;
use std::path::Path;
use std::sync::Arc;

use ccix_extmem::ser::{decode_records, encode_records};
use ccix_extmem::{FixedBytes, Geometry};
use ccix_interval::{Interval, IntervalOptions};

use crate::crc32;
use ccix_extmem::fs::{read_exact_at, retry_interrupted, write_all_at, Fs};

/// File magic: identifies a checkpoint and pins its format version
/// (`\x02` added the shard split points; `\x03` dropped the two thread
/// counts and the B+-tree leaf fill from the meta; `\x04` dropped the
/// endpoint-mode byte).
pub const CKPT_MAGIC: [u8; 8] = *b"CCIXCKP\x04";

/// Sentinel for `None` in `Option<usize>` fields (no real knob is ever
/// `u64::MAX` pages).
const NONE_SENTINEL: u64 = u64::MAX;

/// Construction parameters a recovery rebuild needs to reproduce the
/// crashed index's layout exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Meta {
    /// Block geometry (records per page).
    pub geometry: Geometry,
    /// Full layout/tuning options, including every [`ccix_core::Tuning`]
    /// knob.
    pub options: IntervalOptions,
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_opt(out: &mut Vec<u8>, v: Option<usize>) {
    push_u64(out, v.map_or(NONE_SENTINEL, |x| x as u64));
}

struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn u64(&mut self) -> Option<u64> {
        let (head, rest) = self.0.split_at_checked(8)?;
        self.0 = rest;
        Some(u64::from_le_bytes(head.try_into().ok()?))
    }

    fn u8(&mut self) -> Option<u8> {
        let (head, rest) = self.0.split_at_checked(1)?;
        self.0 = rest;
        Some(head[0])
    }

    fn usize(&mut self) -> Option<usize> {
        Some(self.u64()? as usize)
    }

    fn opt(&mut self) -> Option<Option<usize>> {
        let v = self.u64()?;
        Some((v != NONE_SENTINEL).then_some(v as usize))
    }
}

impl Meta {
    /// Capture the meta of a live configuration.
    pub fn new(geometry: Geometry, options: IntervalOptions) -> Self {
        Self { geometry, options }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        let t = self.options.tuning;
        push_u64(out, self.geometry.b as u64);
        push_u64(out, t.update_batch_pages as u64);
        push_u64(out, t.td_batch_pages as u64);
        push_u64(out, t.tomb_batch_pages as u64);
        push_u64(out, t.shrink_deletes_pct as u64);
        push_opt(out, t.ts_snapshot_pages);
        push_u64(out, t.corner_alpha as u64);
        push_u64(out, t.pack_h_pages as u64);
        out.push(t.resident_root as u8);
        push_u64(out, t.reorg_pages_per_op as u64);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        // The model needs `B ≥ 2` (`Geometry::new` asserts it).
        let b = r.usize().filter(|&b| b >= 2)?;
        // Struct-literal fields evaluate in source order, matching the
        // encoder's write order exactly.
        let tuning = ccix_core::Tuning {
            update_batch_pages: r.usize()?,
            td_batch_pages: r.usize()?,
            tomb_batch_pages: r.usize()?,
            shrink_deletes_pct: r.usize()?,
            ts_snapshot_pages: r.opt()?,
            corner_alpha: r.usize()?,
            pack_h_pages: r.usize()?,
            resident_root: r.u8()? != 0,
            reorg_pages_per_op: r.usize()?,
        };
        Some(Meta {
            geometry: Geometry::new(b),
            options: IntervalOptions { tuning },
        })
    }
}

/// A decoded checkpoint: construction meta, the operation watermark, and
/// the live interval set at that watermark.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Construction parameters for the deterministic rebuild.
    pub meta: Meta,
    /// Split points of the x-range routing directory (ascending; empty
    /// for a single-shard/unsharded engine), so recovery rebuilds the
    /// same sharding.
    pub shard_splits: Vec<i64>,
    /// Cumulative operation count at the snapshot; WAL records with
    /// `ops_after` at or below this are stale.
    pub ops_applied: u64,
    /// Live intervals at the snapshot (order irrelevant — ids are unique).
    pub intervals: Vec<Interval>,
}

/// Header bytes before the body: magic, body length, CRC.
const HEADER: usize = 20;

/// Serialise a checkpoint into one buffer: the header with its length and
/// CRC left blank, the body after it, then the two patched in.
fn encode(meta: Meta, shard_splits: &[i64], ops_applied: u64, intervals: &[Interval]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        HEADER + 128 + 8 * shard_splits.len() + Interval::SIZE * intervals.len(),
    );
    out.extend_from_slice(&CKPT_MAGIC);
    out.resize(HEADER, 0);
    meta.encode_into(&mut out);
    push_u64(&mut out, shard_splits.len() as u64);
    for &s in shard_splits {
        push_u64(&mut out, s as u64);
    }
    push_u64(&mut out, ops_applied);
    push_u64(&mut out, intervals.len() as u64);
    encode_records(intervals, &mut out);
    let body_len = (out.len() - HEADER) as u64;
    let crc = crc32(&out[HEADER..]);
    out[8..16].copy_from_slice(&body_len.to_le_bytes());
    out[16..HEADER].copy_from_slice(&crc.to_le_bytes());
    out
}

fn decode_checkpoint(body: &[u8]) -> Option<Checkpoint> {
    let mut r = Reader(body);
    let meta = Meta::decode(&mut r)?;
    let k = r.u64()? as usize;
    // A directory can't have more splits than the body has bytes — reject
    // absurd counts before allocating.
    if k > body.len() / 8 {
        return None;
    }
    let mut shard_splits = Vec::with_capacity(k);
    for _ in 0..k {
        shard_splits.push(r.u64()? as i64);
    }
    if !shard_splits.windows(2).all(|w| w[0] < w[1]) {
        return None;
    }
    let ops_applied = r.u64()?;
    let n = r.u64()?;
    // Rejects a record with `hi < lo`.
    let intervals = decode_records::<Interval>(r.0)?;
    if intervals.len() as u64 != n {
        return None;
    }
    Some(Checkpoint {
        meta,
        shard_splits,
        ops_applied,
        intervals,
    })
}

/// Serialise `ckpt` and publish it atomically at `path` (tmp + fsync +
/// rename + directory fsync).
pub fn write_checkpoint(fs: &Arc<dyn Fs>, path: &Path, ckpt: &Checkpoint) -> io::Result<()> {
    let Checkpoint {
        meta,
        ref shard_splits,
        ops_applied,
        ref intervals,
    } = *ckpt;
    write_checkpoint_of(fs, path, meta, shard_splits, ops_applied, intervals)
}

/// As [`write_checkpoint`], from borrowed parts: the live content is
/// serialised where it lies, never copied into a [`Checkpoint`] first.
pub(crate) fn write_checkpoint_of(
    fs: &Arc<dyn Fs>,
    path: &Path,
    meta: Meta,
    shard_splits: &[i64],
    ops_applied: u64,
    intervals: &[Interval],
) -> io::Result<()> {
    let bytes = encode(meta, shard_splits, ops_applied, intervals);
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs.open(&tmp, true)?;
        retry_interrupted(|| file.set_len(0))?;
        write_all_at(file.as_mut(), 0, &bytes)?;
        retry_interrupted(|| file.sync())?;
    }
    retry_interrupted(|| fs.rename(&tmp, path))?;
    let dir = path.parent().unwrap_or(Path::new("."));
    retry_interrupted(|| fs.sync_dir(dir))
}

/// Load the checkpoint at `path`. Returns `Ok(None)` when no checkpoint
/// exists yet; a present-but-corrupt checkpoint is an error (the atomic
/// publication protocol never leaves one, so corruption here is real
/// damage, not a crash artifact).
pub fn read_checkpoint(fs: &Arc<dyn Fs>, path: &Path) -> io::Result<Option<Checkpoint>> {
    if !fs.exists(path) {
        return Ok(None);
    }
    let file = fs.open(path, false)?;
    let corrupt = |what: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checkpoint {}: {what}", path.display()),
        )
    };
    let len = file.len()?;
    if len < HEADER as u64 {
        return Err(corrupt("too short"));
    }
    let mut head = [0u8; HEADER];
    read_exact_at(file.as_ref(), 0, &mut head)?;
    if head[0..8] != CKPT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let body_len = u64::from_le_bytes(head[8..16].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(head[16..20].try_into().expect("4 bytes"));
    // `body_len` is bytes from disk: a flipped header must not overflow.
    if body_len.checked_add(HEADER as u64) != Some(len) {
        return Err(corrupt("length mismatch"));
    }
    let mut body = vec![0u8; body_len as usize];
    read_exact_at(file.as_ref(), HEADER as u64, &mut body)?;
    if crc32(&body) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    decode_checkpoint(&body)
        .map(Some)
        .ok_or_else(|| corrupt("undecodable body"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::TempDir;
    use ccix_core::Tuning;
    use ccix_extmem::fs::RealFs;

    fn encode_checkpoint(ckpt: &Checkpoint) -> Vec<u8> {
        encode(
            ckpt.meta,
            &ckpt.shard_splits,
            ckpt.ops_applied,
            &ckpt.intervals,
        )
    }

    fn sample() -> Checkpoint {
        let options = IntervalOptions {
            tuning: Tuning {
                update_batch_pages: 3,
                td_batch_pages: 5,
                tomb_batch_pages: 2,
                shrink_deletes_pct: 40,
                ts_snapshot_pages: None,
                corner_alpha: 4,
                pack_h_pages: 2,
                resident_root: true,
                reorg_pages_per_op: 4,
            },
        };
        Checkpoint {
            meta: Meta::new(Geometry::new(16), options),
            shard_splits: vec![-100, 0, 250],
            ops_applied: 12345,
            intervals: vec![
                Interval::new(-5, 5, 1),
                Interval::new(i64::MIN, i64::MAX, 2),
                Interval::new(7, 7, 3),
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_meta_and_content() {
        let tmp = TempDir::new("ckpt-roundtrip");
        let path = tmp.path().join("checkpoint");
        let fs = RealFs::shared();
        let ckpt = sample();
        write_checkpoint(&fs, &path, &ckpt).expect("write");
        let back = read_checkpoint(&fs, &path).expect("read").expect("present");
        assert_eq!(back, ckpt);
    }

    /// The bytes on disk do not move: `sample()` encodes to the length and
    /// checksum the bytewise CRC of the format's first `\x04` writer gave.
    #[test]
    fn the_sample_checkpoint_encodes_to_its_pinned_length_and_checksum() {
        let bytes = encode_checkpoint(&sample());
        assert_eq!(bytes.len(), 213);
        assert_eq!(u64::from_le_bytes(bytes[8..16].try_into().expect("8")), 193);
        assert_eq!(
            u32::from_le_bytes(bytes[16..20].try_into().expect("4")),
            0x09F6_5075
        );
        assert_eq!(crc32(&bytes[20..]), 0x09F6_5075);
    }

    #[test]
    fn missing_checkpoint_is_none() {
        let tmp = TempDir::new("ckpt-missing");
        let fs = RealFs::shared();
        assert!(read_checkpoint(&fs, &tmp.path().join("checkpoint"))
            .expect("read")
            .is_none());
    }

    #[test]
    fn corrupt_checkpoint_is_an_error() {
        let tmp = TempDir::new("ckpt-corrupt");
        let path = tmp.path().join("checkpoint");
        let fs = RealFs::shared();
        write_checkpoint(&fs, &path, &sample()).expect("write");
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt");
        let err = read_checkpoint(&fs, &path).expect_err("corrupt");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn flipped_length_header_is_a_typed_error_not_an_overflow() {
        let tmp = TempDir::new("ckpt-len");
        let path = tmp.path().join("checkpoint");
        let fs = RealFs::shared();
        write_checkpoint(&fs, &path, &sample()).expect("write");
        let good = std::fs::read(&path).expect("read");
        // Every length within 20 of u64::MAX wraps `20 + body_len`; the
        // off-by-one lengths are plain mismatches.
        let real = u64::from_le_bytes(good[8..16].try_into().expect("8 bytes"));
        for body_len in [u64::MAX, u64::MAX - 19, u64::MAX - 20, real + 1, real - 1] {
            let mut bytes = good.clone();
            bytes[8..16].copy_from_slice(&body_len.to_le_bytes());
            std::fs::write(&path, &bytes).expect("corrupt");
            let err = read_checkpoint(&fs, &path).expect_err("length mismatch");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{body_len:#x}");
            assert!(err.to_string().contains("length mismatch"), "{err}");
        }
    }

    /// Write `sample()` at `path` with its body patched by `patch` and the
    /// checksum recomputed, so only the decoder can refuse it.
    fn write_patched(path: &Path, patch: impl FnOnce(&mut [u8])) {
        let mut bytes = encode_checkpoint(&sample());
        patch(&mut bytes[20..]);
        let crc = crc32(&bytes[20..]);
        bytes[16..20].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(path, &bytes).expect("write patched");
    }

    #[test]
    fn a_block_size_below_two_is_invalid_data_not_a_panic() {
        let tmp = TempDir::new("ckpt-small-b");
        let path = tmp.path().join("checkpoint");
        let fs = RealFs::shared();
        for b in [0u64, 1] {
            write_patched(&path, |body| body[..8].copy_from_slice(&b.to_le_bytes()));
            let err = read_checkpoint(&fs, &path).expect_err("B < 2");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "B = {b}");
            assert!(err.to_string().contains("undecodable body"), "{err}");
        }
        write_patched(&path, |body| body[..8].copy_from_slice(&2u64.to_le_bytes()));
        let back = read_checkpoint(&fs, &path)
            .expect("B = 2")
            .expect("present");
        assert_eq!(back.meta.geometry, Geometry::new(2));
    }

    #[test]
    fn a_version_two_checkpoint_is_refused() {
        let tmp = TempDir::new("ckpt-v2");
        let path = tmp.path().join("checkpoint");
        let fs = RealFs::shared();
        // Both older formats, v2 and v3, are refused by their magic.
        for magic in [b"CCIXCKP\x02", b"CCIXCKP\x03"] {
            let mut bytes = encode_checkpoint(&sample());
            bytes[..8].copy_from_slice(magic);
            std::fs::write(&path, &bytes).expect("write old format");
            let err = read_checkpoint(&fs, &path).expect_err("old format");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{magic:?}");
            assert!(err.to_string().contains("bad magic"), "{err}");
        }
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let tmp = TempDir::new("ckpt-rewrite");
        let path = tmp.path().join("checkpoint");
        let fs = RealFs::shared();
        let mut ckpt = sample();
        write_checkpoint(&fs, &path, &ckpt).expect("write 1");
        ckpt.ops_applied = 99999;
        ckpt.intervals.push(Interval::new(0, 1, 4));
        write_checkpoint(&fs, &path, &ckpt).expect("write 2");
        let back = read_checkpoint(&fs, &path).expect("read").expect("present");
        assert_eq!(back.ops_applied, 99999);
        assert_eq!(back.intervals.len(), 4);
        assert!(!fs.exists(&path.with_extension("tmp")));
    }
}
