//! Page-store backends: the in-memory model and a real file.
//!
//! Every store in this crate keeps its pages in memory — that *is* the
//! paper's cost model, and it stays the source of truth for every exact-I/O
//! gate. [`BackendSpec`] adds a second, physical backend: a store opened on
//! [`BackendSpec::File`] additionally mirrors every page onto an actual
//! file through [`crate::fs`] positioned I/O, so the same charged
//! page-transfer counts turn into measurable milliseconds.
//!
//! The contract between the two backends:
//!
//! * **The model is authoritative.** Page contents, I/O charges, free-list
//!   order and fork semantics are decided by the in-memory tables exactly
//!   as before; a file-backed store produces bit-identical counters and
//!   query results to a model-backed one on the same operation sequence.
//! * **Every mutation is written through.** `alloc`/`write`/`append`/
//!   `alloc_run` serialize the page with [`crate::ser::FixedBytes`] and
//!   `pwrite` it into the page's file slot; `free`/`free_run` return the
//!   slot to the free list so the next allocation recycles it on disk.
//! * **Every charged read really reads.** Each read the cost model charges
//!   performs the physical read path too: a bounded in-process page cache
//!   is consulted first (a **warm** hit costs no syscall), and on a miss
//!   the slot is `pread` from the file (a **cold** read). Uncharged
//!   accesses (`read_unbilled`, pin-resident re-touches) stay free on both
//!   backends, which is exactly the model's working-memory assumption.
//! * **Forks are model-backed.** [`crate::TypedStore::fork`] publishes an
//!   in-memory epoch; snapshot readers never touch the writer's file, so
//!   overwrites of copy-on-write-shared slots cannot tear a snapshot.
//!
//! Slots are page-aligned ([`SLOT_ALIGN`]) and sized from the store's
//! capacity, so a record page at `B = 4096 / record size` occupies exactly
//! one 4 KiB disk block. A sidecar `<file>.meta` (written by `persist`,
//! atomically via temp-file + rename) carries the free list and per-page
//! record counts, so `open_from_file` can rebuild the store from the file
//! pair alone.
//!
//! In debug builds every file read is compared byte-for-byte against the
//! encoding of the model page it mirrors, so any divergence between the
//! backends fails the nearest test instead of skewing a benchmark.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::fs::{read_exact_at, retry_interrupted, write_all_at, Fs, RawFile, RealFs};
use crate::ser::{decode_records, encode_records, FixedBytes};
use crate::store::PageId;

/// File slots are padded to this alignment (one conventional disk block),
/// so positioned reads and writes never straddle a block boundary.
pub const SLOT_ALIGN: usize = 4096;

/// Default bound on the in-process page cache, in pages.
pub const DEFAULT_CACHE_PAGES: usize = 64;

/// Which physical backend a store opens on.
///
/// The default, [`BackendSpec::Model`], is the in-memory simulator every
/// structure has always run on. [`BackendSpec::File`] mirrors pages onto a
/// real file (see the module docs for the contract).
#[derive(Clone, Debug, Default)]
pub enum BackendSpec {
    /// In-memory pages only — the paper's cost model, and the source of
    /// truth for all exact-I/O gates.
    #[default]
    Model,
    /// Pages mirrored onto real files under the configured directory.
    File(FileConfig),
}

impl BackendSpec {
    /// A file backend rooted at `dir` with default cache and the production
    /// filesystem.
    pub fn file(dir: impl Into<PathBuf>) -> Self {
        Self::File(FileConfig::new(dir))
    }

    /// Whether this spec opens file-backed stores.
    pub fn is_file(&self) -> bool {
        matches!(self, Self::File(_))
    }
}

/// Configuration of the file backend: where page files live, how large the
/// in-process page cache is, and which [`Fs`] to write through (the seam
/// the fault injector interposes on).
#[derive(Clone)]
pub struct FileConfig {
    dir: PathBuf,
    cache_pages: usize,
    fs: Arc<dyn Fs>,
    /// Shared sequence for unique per-store file names; cloned configs
    /// share it so sharded builds on worker threads never collide.
    seq: Arc<AtomicU64>,
}

impl std::fmt::Debug for FileConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileConfig")
            .field("dir", &self.dir)
            .field("cache_pages", &self.cache_pages)
            .finish_non_exhaustive()
    }
}

impl FileConfig {
    /// A config over the production filesystem ([`RealFs`]).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_fs(dir, RealFs::shared())
    }

    /// A config writing through an explicit [`Fs`] (fault injection).
    pub fn with_fs(dir: impl Into<PathBuf>, fs: Arc<dyn Fs>) -> Self {
        Self {
            dir: dir.into(),
            cache_pages: DEFAULT_CACHE_PAGES,
            fs,
            seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Set the page-cache bound (0 disables caching: every charged read is
    /// cold).
    pub fn cache_pages(mut self, pages: usize) -> Self {
        self.cache_pages = pages;
        self
    }

    /// The directory page files are created under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The filesystem this config writes through.
    pub fn fs(&self) -> &Arc<dyn Fs> {
        &self.fs
    }

    /// Reserve a fresh unique page-file path under the directory.
    fn next_path(&self) -> PathBuf {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("store-{n:06}.pages"))
    }
}

/// Bounded LRU of decoded-length page images keyed by page id. Linear
/// scans are deliberate: the cache is `O(B)` entries, the same shape as
/// [`crate::PathPin`].
#[derive(Debug)]
struct PageCache {
    cap: usize,
    clock: u64,
    entries: Vec<(u32, u64, Vec<u8>)>,
}

impl PageCache {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            clock: 0,
            entries: Vec::with_capacity(cap.min(64)),
        }
    }

    fn get(&mut self, page: u32) -> Option<&[u8]> {
        self.clock += 1;
        let clock = self.clock;
        self.entries
            .iter_mut()
            .find(|(p, _, _)| *p == page)
            .map(|e| {
                e.1 = clock;
                e.2.as_slice()
            })
    }

    fn insert(&mut self, page: u32, bytes: Vec<u8>) {
        if self.cap == 0 {
            return;
        }
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|(p, _, _)| *p == page) {
            e.1 = self.clock;
            e.2 = bytes;
            return;
        }
        if self.entries.len() >= self.cap {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, used, _))| *used)
                .map(|(i, _)| i)
                .expect("cap > 0 ⇒ nonempty");
            self.entries.swap_remove(oldest);
        }
        self.entries.push((page, self.clock, bytes));
    }

    fn remove(&mut self, page: u32) {
        self.entries.retain(|(p, _, _)| *p != page);
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

struct MirrorInner {
    file: Box<dyn RawFile>,
    cache: PageCache,
    /// Charged reads served by a real file read (cache miss).
    cold: u64,
    /// Charged reads served by the in-process cache.
    warm: u64,
}

/// The file half of a file-backed store: a write-through mirror of the
/// model page table plus the physical read path. Held inside
/// [`crate::TypedStore`]; all entry points take `&self`
/// (the inner state is a mutex) so charged reads stay `&self`.
pub(crate) struct FileMirror<T> {
    path: PathBuf,
    fs: Arc<dyn Fs>,
    record_size: usize,
    slot_bytes: u64,
    encode: fn(&[T], &mut Vec<u8>),
    decode: fn(&[u8]) -> Option<Vec<T>>,
    inner: Mutex<MirrorInner>,
}

impl<T> std::fmt::Debug for FileMirror<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileMirror")
            .field("path", &self.path)
            .field("slot_bytes", &self.slot_bytes)
            .finish_non_exhaustive()
    }
}

/// FNV-1a 64-bit — the sidecar's integrity check (torn metas must fail to
/// open, not decode to garbage).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const META_MAGIC: &[u8; 8] = b"CCIXPGS1";

/// The model-side state `load` rebuilds: every live page's records, plus
/// the free list in pop order.
pub(crate) struct PersistImage<T> {
    pub pages: Vec<Option<Vec<T>>>,
    pub free: Vec<PageId>,
    pub capacity: usize,
}

impl<T: FixedBytes> FileMirror<T> {
    /// Create the mirror on a fresh file (unique name under the config's
    /// directory), sized for pages of `capacity` records.
    pub(crate) fn create(cfg: &FileConfig, capacity: usize) -> Self {
        let path = cfg.next_path();
        if let Err(e) = retry_interrupted(|| cfg.fs.create_dir_all(&cfg.dir)) {
            panic!("file backend: create dir {:?} failed: {e}", cfg.dir);
        }
        let file = match retry_interrupted(|| cfg.fs.open(&path, true)) {
            Ok(f) => f,
            Err(e) => panic!("file backend: create {path:?} failed: {e}"),
        };
        Self::from_parts(path, cfg, capacity, file)
    }

    fn from_parts(
        path: PathBuf,
        cfg: &FileConfig,
        capacity: usize,
        file: Box<dyn RawFile>,
    ) -> Self {
        let record_size = T::SIZE;
        let slot_bytes = (capacity * record_size).next_multiple_of(SLOT_ALIGN) as u64;
        Self {
            path,
            fs: Arc::clone(&cfg.fs),
            record_size,
            slot_bytes,
            encode: encode_records::<T>,
            decode: decode_records::<T>,
            inner: Mutex::new(MirrorInner {
                file,
                cache: PageCache::new(cfg.cache_pages),
                cold: 0,
                warm: 0,
            }),
        }
    }

    /// Reopen a persisted store: parse the sidecar meta, `pread` every
    /// live page and decode it. Returns the mirror plus the rebuilt model
    /// image. Panics on a missing, torn or inconsistent file pair — an
    /// unrecoverable store should fail loudly, recovery policy lives a
    /// layer up (the WAL/checkpoint machinery in `ccix-durable`).
    pub(crate) fn load(cfg: &FileConfig, path: &Path) -> (Self, PersistImage<T>) {
        let mut meta_path = path.to_path_buf().into_os_string();
        meta_path.push(".meta");
        let meta_path = PathBuf::from(meta_path);
        let meta_file = match cfg.fs.open(&meta_path, false) {
            Ok(f) => f,
            Err(e) => panic!("file backend: open {meta_path:?} failed: {e}"),
        };
        let len = meta_file.len().expect("meta len") as usize;
        let mut buf = vec![0u8; len];
        if let Err(e) = read_exact_at(meta_file.as_ref(), 0, &mut buf) {
            panic!("file backend: read {meta_path:?} failed: {e}");
        }
        let parsed = parse_meta(&buf)
            .unwrap_or_else(|why| panic!("file backend: {meta_path:?} invalid: {why}"));
        assert_eq!(
            parsed.record_size,
            T::SIZE as u32,
            "file backend: {meta_path:?} record size mismatch"
        );
        let file = match cfg.fs.open(path, false) {
            Ok(f) => f,
            Err(e) => panic!("file backend: open {path:?} failed: {e}"),
        };
        let mirror = Self::from_parts(path.to_path_buf(), cfg, parsed.capacity as usize, file);
        assert_eq!(
            mirror.slot_bytes, parsed.slot_bytes,
            "file backend: {meta_path:?} slot size mismatch"
        );
        let mut pages: Vec<Option<Vec<T>>> = (0..parsed.n_slots).map(|_| None).collect();
        {
            let inner = mirror.inner.lock().expect("file mirror");
            for &(id, rec_len) in &parsed.live {
                let mut bytes = vec![0u8; rec_len as usize * mirror.record_size];
                let off = u64::from(id) * mirror.slot_bytes;
                if let Err(e) = read_exact_at(inner.file.as_ref(), off, &mut bytes) {
                    panic!("file backend: load of page {id} from {path:?} failed: {e}");
                }
                let records = (mirror.decode)(&bytes).unwrap_or_else(|| {
                    panic!("file backend: page {id} of {path:?} failed to decode")
                });
                pages[id as usize] = Some(records);
            }
        }
        let image = PersistImage {
            pages,
            free: parsed.free.into_iter().map(PageId).collect(),
            capacity: parsed.capacity as usize,
        };
        (mirror, image)
    }
}

impl<T> FileMirror<T> {
    fn offset(&self, id: PageId) -> u64 {
        u64::from(id.0) * self.slot_bytes
    }

    fn meta_path(&self) -> PathBuf {
        let mut p = self.path.clone().into_os_string();
        p.push(".meta");
        PathBuf::from(p)
    }

    /// Write-through of one page mutation: encode and `pwrite` the record
    /// area of the page's slot, and install the image in the cache (a page
    /// just written is hot, like any real buffer pool).
    pub(crate) fn write_page(&self, id: PageId, records: &[T]) {
        let mut bytes = Vec::with_capacity(records.len() * self.record_size);
        (self.encode)(records, &mut bytes);
        let off = self.offset(id);
        let mut inner = self.inner.lock().expect("file mirror");
        if let Err(e) = write_all_at(inner.file.as_mut(), off, &bytes) {
            panic!(
                "file backend: write of page {id:?} to {:?} failed: {e}",
                self.path
            );
        }
        inner.cache.insert(id.0, bytes);
    }

    /// The physical read path of one *charged* read: a cache hit is warm
    /// (no syscall), a miss `pread`s the slot (cold). `records` is the
    /// authoritative model page — it supplies the live record count and,
    /// in debug builds, the bytes the file must agree with.
    pub(crate) fn read_page(&self, id: PageId, records: &[T]) {
        let byte_len = records.len() * self.record_size;
        let off = self.offset(id);
        let mut inner = self.inner.lock().expect("file mirror");
        if let Some(_cached) = inner.cache.get(id.0) {
            #[cfg(debug_assertions)]
            {
                let mut expect = Vec::with_capacity(byte_len);
                (self.encode)(records, &mut expect);
                assert_eq!(
                    _cached, expect,
                    "file backend cache divergence on page {id:?} of {:?}",
                    self.path
                );
            }
            inner.warm += 1;
            return;
        }
        let mut bytes = vec![0u8; byte_len];
        if let Err(e) = read_exact_at(inner.file.as_ref(), off, &mut bytes) {
            panic!(
                "file backend: read of page {id:?} from {:?} failed: {e}",
                self.path
            );
        }
        #[cfg(debug_assertions)]
        {
            let mut expect = Vec::with_capacity(byte_len);
            (self.encode)(records, &mut expect);
            assert_eq!(
                bytes, expect,
                "file backend divergence on page {id:?} of {:?}",
                self.path
            );
        }
        inner.cold += 1;
        inner.cache.insert(id.0, bytes);
    }

    /// Drop the cached image of a freed page; the slot itself is recycled
    /// by the next allocation that pops it off the free list.
    pub(crate) fn free_page(&self, id: PageId) {
        self.inner.lock().expect("file mirror").cache.remove(id.0);
    }

    /// `(cold, warm)` charged-read counts so far.
    pub(crate) fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("file mirror");
        (inner.cold, inner.warm)
    }

    /// Empty the page cache, so the next charged reads are all cold.
    pub(crate) fn clear_cache(&self) {
        self.inner.lock().expect("file mirror").cache.clear();
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Raw record-area bytes of a slot, read straight from the file with
    /// the cache bypassed and nothing charged — the differential suite's
    /// view of the on-disk page image.
    pub(crate) fn slot_bytes_raw(&self, id: PageId, records_len: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; records_len * self.record_size];
        let off = self.offset(id);
        let inner = self.inner.lock().expect("file mirror");
        if let Err(e) = read_exact_at(inner.file.as_ref(), off, &mut bytes) {
            panic!(
                "file backend: raw read of page {id:?} from {:?} failed: {e}",
                self.path
            );
        }
        bytes
    }

    /// Make the store durable: fsync the page file, then publish the
    /// sidecar meta (capacity, per-page record counts, free list)
    /// atomically via temp-file + rename + directory sync. After this,
    /// `load` can rebuild the store from the file pair alone. `n_slots`
    /// counts every slot ever allocated (live + free).
    pub(crate) fn persist(
        &self,
        capacity: usize,
        n_slots: usize,
        live: &[(u32, u32)],
        free: &[PageId],
    ) {
        {
            let mut inner = self.inner.lock().expect("file mirror");
            if let Err(e) = retry_interrupted(|| inner.file.sync()) {
                panic!("file backend: sync of {:?} failed: {e}", self.path);
            }
        }
        let mut buf = Vec::new();
        buf.extend_from_slice(META_MAGIC);
        buf.extend_from_slice(&(capacity as u32).to_le_bytes());
        buf.extend_from_slice(&(self.record_size as u32).to_le_bytes());
        buf.extend_from_slice(&self.slot_bytes.to_le_bytes());
        buf.extend_from_slice(&(n_slots as u32).to_le_bytes());
        buf.extend_from_slice(&(live.len() as u32).to_le_bytes());
        for (id, len) in live {
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&len.to_le_bytes());
        }
        buf.extend_from_slice(&(free.len() as u32).to_le_bytes());
        for id in free {
            buf.extend_from_slice(&id.0.to_le_bytes());
        }
        let sum = fnv64(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());

        let meta = self.meta_path();
        let mut tmp = meta.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let result = (|| -> std::io::Result<()> {
            // Every step retries `Interrupted`: the fault layer may inject
            // EINTR on any mutating op, not just writes.
            let mut f = retry_interrupted(|| self.fs.open(&tmp, true))?;
            retry_interrupted(|| f.set_len(0))?;
            write_all_at(f.as_mut(), 0, &buf)?;
            retry_interrupted(|| f.sync())?;
            retry_interrupted(|| self.fs.rename(&tmp, &meta))?;
            let dir = meta.parent().unwrap_or(Path::new("."));
            retry_interrupted(|| self.fs.sync_dir(dir))
        })();
        if let Err(e) = result {
            panic!("file backend: persist of {meta:?} failed: {e}");
        }
    }
}

struct ParsedMeta {
    capacity: u32,
    record_size: u32,
    slot_bytes: u64,
    n_slots: u32,
    live: Vec<(u32, u32)>,
    free: Vec<u32>,
}

struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take4(&mut self) -> Result<u32, String> {
        let v = self
            .body
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated".to_string())?;
        self.pos += 4;
        Ok(u32::from_le_bytes(v.try_into().expect("4 bytes")))
    }

    fn take8(&mut self) -> Result<u64, String> {
        let v = self
            .body
            .get(self.pos..self.pos + 8)
            .ok_or_else(|| "truncated".to_string())?;
        self.pos += 8;
        Ok(u64::from_le_bytes(v.try_into().expect("8 bytes")))
    }
}

fn parse_meta(buf: &[u8]) -> Result<ParsedMeta, String> {
    if buf.len() < META_MAGIC.len() + 8 {
        return Err("too short".into());
    }
    let (body, sum_bytes) = buf.split_at(buf.len() - 8);
    let sum = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    if fnv64(body) != sum {
        return Err("checksum mismatch".into());
    }
    if &body[..8] != META_MAGIC {
        return Err("bad magic".into());
    }
    let mut cur = Cursor { body, pos: 8 };
    let capacity = cur.take4()?;
    let record_size = cur.take4()?;
    let slot_bytes = cur.take8()?;
    let n_slots = cur.take4()?;
    let n_live = cur.take4()?;
    let mut live = Vec::with_capacity(n_live as usize);
    for _ in 0..n_live {
        let id = cur.take4()?;
        let len = cur.take4()?;
        if id >= n_slots || u64::from(len) * u64::from(record_size) > slot_bytes {
            return Err(format!("live page {id} out of bounds"));
        }
        live.push((id, len));
    }
    let n_free = cur.take4()?;
    let mut free = Vec::with_capacity(n_free as usize);
    for _ in 0..n_free {
        let id = cur.take4()?;
        if id >= n_slots {
            return Err(format!("free page {id} out of bounds"));
        }
        free.push(id);
    }
    if cur.pos != body.len() {
        return Err("trailing bytes".into());
    }
    if live.len() + free.len() != n_slots as usize {
        return Err("live + free ≠ slots".into());
    }
    Ok(ParsedMeta {
        capacity,
        record_size,
        slot_bytes,
        n_slots,
        live,
        free,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_lru_semantics() {
        let mut c = PageCache::new(2);
        c.insert(1, vec![1]);
        c.insert(2, vec![2]);
        assert!(c.get(1).is_some()); // refresh 1
        c.insert(3, vec![3]); // evicts 2
        assert!(c.get(1).is_some());
        assert!(c.get(2).is_none());
        assert!(c.get(3).is_some());
        c.remove(1);
        assert!(c.get(1).is_none());
        c.clear();
        assert!(c.get(3).is_none());
    }

    #[test]
    fn zero_cap_cache_never_holds() {
        let mut c = PageCache::new(0);
        c.insert(1, vec![1]);
        assert!(c.get(1).is_none());
    }

    #[test]
    fn meta_roundtrip_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("ccix-backend-meta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let cfg = FileConfig::new(&dir);
        let mirror: FileMirror<u64> = FileMirror::create(&cfg, 4);
        mirror.write_page(PageId(0), &[1, 2]);
        mirror.write_page(PageId(2), &[3]);
        mirror.persist(4, 3, &[(0, 2), (2, 1)], &[PageId(1)]);
        let meta = std::fs::read(mirror.meta_path()).expect("meta");
        assert!(parse_meta(&meta).is_ok());
        let mut torn = meta.clone();
        torn.pop();
        assert!(parse_meta(&torn).is_err(), "torn tail fails the checksum");
        let mut flipped = meta.clone();
        flipped[10] ^= 0xFF;
        assert!(parse_meta(&flipped).is_err(), "bit flip fails the checksum");

        let (_m2, loaded) = FileMirror::<u64>::load(&cfg, mirror.path());
        assert_eq!(loaded.capacity, 4);
        assert_eq!(
            loaded.pages,
            vec![Some(vec![1u64, 2]), None, Some(vec![3u64])]
        );
        assert_eq!(loaded.free, vec![PageId(1)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
