//! Deterministic fault injection: a power-loss simulator behind the
//! [`Fs`] seam.
//!
//! [`FailFs`] wraps another filesystem (normally [`ccix_extmem::fs::RealFs`] on
//! a temp directory) and models the failure behaviours a real disk stack
//! exhibits, all driven by a seeded splitmix64 stream so every trial
//! replays exactly from its seed:
//!
//! * **Buffered writes.** Writes land in an in-memory shadow of each file
//!   (the "page cache"); only [`RawFile::sync`] flushes them to the inner
//!   filesystem. A crash loses an arbitrary *suffix* of the unsynced
//!   writes — and may tear the newest surviving write in half — exactly
//!   the state a machine reboot leaves behind. Code that acknowledges a
//!   commit before its covering fsync therefore fails the differential
//!   crash suite, rather than passing by accident because the simulator
//!   was too kind.
//! * **Short writes.** With probability `short_write`, a `write_at`
//!   transfers only a strict prefix and reports the short count, so the
//!   caller's retry loop (not wishful thinking) completes the transfer.
//! * **Transient errors.** With probability `eintr`, an operation fails
//!   with `ErrorKind::Interrupted` before doing anything.
//! * **Crash points.** The `crash_after_ops` budget counts every mutating
//!   operation (writes, syncs, truncates, renames); when it runs out the
//!   filesystem performs its lossy crash flush and then fails everything,
//!   forever — the moment the process "dies".
//!
//! Every mutating operation is also appended to a **trace**
//! ([`FailFs::trace`]): what was done to which file, and whether it was
//! interrupted, counted, or the crash point. Two runs that issue the same
//! operations in the same order draw the same injections and record the
//! same trace, so comparing traces is how a suite proves that its
//! filesystem-operation order does not depend on thread timing — and an
//! operation that *starts while a sync is still running*
//! ([`FailFs::overlapped_syncs`]) is the signature of exactly that bug.
//!
//! The injected rng stream is splitmix64 with the same constants as
//! `ccix_testkit::DetRng`, duplicated here (rather than imported) to keep
//! this crate free of a test-kit dependency cycle.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

use ccix_extmem::fs::{read_exact_at, write_all_at, Fs, RawFile};

/// What to inject, and when. All probabilities are per-operation.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Crash (lossy flush + permanent failure) once this many mutating
    /// operations have run. `None` never crashes.
    pub crash_after_ops: Option<u64>,
    /// Probability a write transfers only a strict prefix.
    pub short_write: f64,
    /// Probability an operation fails with `ErrorKind::Interrupted`.
    pub eintr: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            crash_after_ops: None,
            short_write: 0.1,
            eintr: 0.05,
        }
    }
}

/// splitmix64 — the `ccix_testkit::DetRng` stream, duplicated to avoid a
/// dependency cycle (pinned against the same constants).
#[derive(Debug)]
struct Splitmix(u64);

impl Splitmix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }
}

/// What a traced operation did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FsOpKind {
    /// `RawFile::write_at`.
    Write,
    /// `RawFile::set_len`.
    SetLen,
    /// `RawFile::sync`.
    Sync,
    /// `Fs::rename` (traced under the destination's name).
    Rename,
    /// `Fs::remove_file`.
    Remove,
    /// `Fs::sync_dir`.
    SyncDir,
}

/// One mutating operation as [`FailFs`] saw it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FsOp {
    /// What was asked.
    pub kind: FsOpKind,
    /// The file's name within its directory (temp directories differ from
    /// run to run; names do not), `.` for a directory sync.
    pub file: String,
    /// The operation's 1-based position among the counted ones — the value
    /// of `crash_after_ops` that makes this very operation the crash point
    /// — or `None` when it was interrupted before doing anything.
    pub ordinal: Option<u64>,
}

#[derive(Debug)]
struct FaultState {
    rng: Splitmix,
    plan: FaultPlan,
    ops: u64,
    crashed: bool,
    trace: Vec<FsOp>,
    /// Syncs currently flushing (decided, not yet returned).
    syncing: u32,
    /// Operations that began while a sync was still flushing.
    overlapped: u64,
}

impl FaultState {
    fn crash_error() -> io::Error {
        io::Error::other("injected crash: filesystem is dead")
    }

    /// Gate one mutating operation: transient error, crash, or proceed.
    /// Returns `Ok(true)` when this very operation is the crash point (the
    /// caller must do its lossy flush and then fail).
    fn mutating_op(&mut self, kind: FsOpKind, file: &str) -> io::Result<bool> {
        if self.crashed {
            return Err(Self::crash_error());
        }
        if self.syncing > 0 {
            self.overlapped += 1;
        }
        let interrupted = self.rng.next_f64() < self.plan.eintr;
        if !interrupted {
            self.ops += 1;
        }
        self.trace.push(FsOp {
            kind,
            file: file.to_owned(),
            ordinal: (!interrupted).then_some(self.ops),
        });
        if interrupted {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"));
        }
        if let Some(limit) = self.plan.crash_after_ops {
            if self.ops >= limit {
                self.crashed = true;
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            Err(Self::crash_error())
        } else {
            Ok(())
        }
    }
}

/// The fault-injecting filesystem. Cloneable; all clones share one fault
/// state, so a crash on any handle kills every handle.
#[derive(Clone)]
pub struct FailFs {
    inner: Arc<dyn Fs>,
    state: Arc<Mutex<FaultState>>,
}

impl std::fmt::Debug for FailFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().expect("fault state");
        f.debug_struct("FailFs")
            .field("ops", &st.ops)
            .field("crashed", &st.crashed)
            .field("plan", &st.plan)
            .finish()
    }
}

impl FailFs {
    /// Wrap `inner` with the given plan; `seed` pins the injection stream.
    pub fn new(inner: Arc<dyn Fs>, seed: u64, plan: FaultPlan) -> Self {
        Self {
            inner,
            state: Arc::new(Mutex::new(FaultState {
                rng: Splitmix(seed),
                plan,
                ops: 0,
                crashed: false,
                trace: Vec::new(),
                syncing: 0,
                overlapped: 0,
            })),
        }
    }

    /// Whether the crash point has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().expect("fault state").crashed
    }

    /// Mutating operations performed so far (for sizing crash points).
    pub fn ops(&self) -> u64 {
        self.state.lock().expect("fault state").ops
    }

    /// Gate one mutating namespace operation (see
    /// [`FaultState::mutating_op`]).
    fn mutating_op(&self, kind: FsOpKind, file: &str) -> io::Result<bool> {
        let mut state = self.state.lock().expect("fault state");
        state.mutating_op(kind, file)
    }

    /// Every mutating operation attempted so far, in order.
    pub fn trace(&self) -> Vec<FsOp> {
        self.state.lock().expect("fault state").trace.clone()
    }

    /// Mutating operations that began while a `sync` on this filesystem was
    /// still flushing. Always 0 for a single-threaded user; a user that
    /// syncs on a second thread must keep it 0 too, or its operation order
    /// (and with it every seeded injection) depends on thread timing.
    pub fn overlapped_syncs(&self) -> u64 {
        self.state.lock().expect("fault state").overlapped
    }
}

/// A path's final component, as traced.
fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// One pending (unsynced) write in a file's shadow buffer.
#[derive(Debug)]
struct DirtyWrite {
    off: u64,
    data: Vec<u8>,
}

/// A file whose writes are buffered until `sync`, with lossy crash flush.
struct FailFile {
    inner: Box<dyn RawFile>,
    name: String,
    /// The process's view of the file (synced content + pending writes).
    mem: Vec<u8>,
    /// Writes since the last successful sync, in order.
    dirty: Vec<DirtyWrite>,
    state: Arc<Mutex<FaultState>>,
}

impl FailFile {
    /// Apply one write to the in-memory shadow.
    fn apply_to_mem(mem: &mut Vec<u8>, off: u64, data: &[u8]) {
        let end = off as usize + data.len();
        if mem.len() < end {
            mem.resize(end, 0);
        }
        mem[off as usize..end].copy_from_slice(data);
    }

    /// The crash flush: persist a random prefix of the dirty list (the
    /// newest surviving write possibly torn), leaving the rest lost — then
    /// the filesystem is dead. Errors during the flush are swallowed: a
    /// dying machine does not report them either.
    fn crash_flush(&mut self, rng_cut: usize, torn_len: usize) {
        let mut synced = self.synced_image();
        for (i, w) in self.dirty.iter().enumerate() {
            if i < rng_cut {
                Self::apply_to_mem(&mut synced, w.off, &w.data);
            } else if i == rng_cut && torn_len > 0 {
                Self::apply_to_mem(&mut synced, w.off, &w.data[..torn_len.min(w.data.len())]);
            }
        }
        let _ = self.inner.set_len(synced.len() as u64);
        let _ = write_all_at(self.inner.as_mut(), 0, &synced);
        let _ = self.inner.sync();
    }

    /// Make the whole shadow the inner file's durable content.
    fn flush_shadow(&mut self) -> io::Result<()> {
        self.inner.set_len(self.mem.len() as u64)?;
        write_all_at(self.inner.as_mut(), 0, &self.mem)?;
        self.inner.sync()?;
        self.dirty.clear();
        Ok(())
    }

    /// Reconstruct the last-synced content of the inner file.
    fn synced_image(&self) -> Vec<u8> {
        let len = self.inner.len().unwrap_or(0) as usize;
        let mut buf = vec![0u8; len];
        if read_exact_at(self.inner.as_ref(), 0, &mut buf).is_err() {
            buf.clear();
        }
        buf
    }
}

impl RawFile for FailFile {
    fn len(&self) -> io::Result<u64> {
        self.state.lock().expect("fault state").check_alive()?;
        Ok(self.mem.len() as u64)
    }

    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.state.lock().expect("fault state").check_alive()?;
        let off = off as usize;
        if off >= self.mem.len() {
            return Ok(0);
        }
        let n = buf.len().min(self.mem.len() - off);
        buf[..n].copy_from_slice(&self.mem[off..off + n]);
        Ok(n)
    }

    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<usize> {
        let (crash, cut, torn, n) = {
            let mut st = self.state.lock().expect("fault state");
            let crash = st.mutating_op(FsOpKind::Write, &self.name)?;
            if crash {
                let cut = st.rng.below(self.dirty.len() + 1);
                let torn = st.rng.below(buf.len() + 1);
                (true, cut, torn, 0)
            } else {
                let n = if buf.len() > 1 && st.rng.next_f64() < st.plan.short_write {
                    1 + st.rng.below(buf.len() - 1)
                } else {
                    buf.len()
                };
                (false, 0, 0, n)
            }
        };
        if crash {
            // The crashing write itself joins the dirty list so it can be
            // the torn survivor.
            self.dirty.push(DirtyWrite {
                off,
                data: buf.to_vec(),
            });
            self.crash_flush(cut.min(self.dirty.len() - 1), torn);
            return Err(FaultState::crash_error());
        }
        Self::apply_to_mem(&mut self.mem, off, &buf[..n]);
        self.dirty.push(DirtyWrite {
            off,
            data: buf[..n].to_vec(),
        });
        Ok(n)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let crash = {
            let mut st = self.state.lock().expect("fault state");
            let crash = st.mutating_op(FsOpKind::SetLen, &self.name)?;
            if crash {
                let cut = st.rng.below(self.dirty.len() + 1);
                (true, cut)
            } else {
                (false, 0)
            }
        };
        if crash.0 {
            self.crash_flush(crash.1, 0);
            return Err(FaultState::crash_error());
        }
        self.mem.resize(len as usize, 0);
        // The truncation is metadata the next sync makes durable; dirty
        // writes are clipped to the new length so a later crash flush
        // cannot resurrect bytes past it.
        for w in &mut self.dirty {
            let end = (len.saturating_sub(w.off)) as usize;
            w.data.truncate(end.min(w.data.len()));
        }
        self.dirty.retain(|w| !w.data.is_empty());
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let crash = {
            let mut st = self.state.lock().expect("fault state");
            let crash = st.mutating_op(FsOpKind::Sync, &self.name)?;
            st.syncing += 1;
            if crash {
                let cut = st.rng.below(self.dirty.len() + 1);
                let torn = self
                    .dirty
                    .get(cut)
                    .map(|w| st.rng.below(w.data.len() + 1))
                    .unwrap_or(0);
                (true, cut, torn)
            } else {
                (false, 0, 0)
            }
        };
        let flushed = if crash.0 {
            self.crash_flush(crash.1, crash.2);
            Err(FaultState::crash_error())
        } else {
            // A real sync: the whole shadow becomes the durable image.
            self.flush_shadow()
        };
        self.state.lock().expect("fault state").syncing -= 1;
        flushed
    }
}

impl Fs for FailFs {
    fn open(&self, path: &Path, create: bool) -> io::Result<Box<dyn RawFile>> {
        self.state.lock().expect("fault state").check_alive()?;
        let inner = self.inner.open(path, create)?;
        let len = inner.len()? as usize;
        let mut mem = vec![0u8; len];
        read_exact_at(inner.as_ref(), 0, &mut mem)?;
        Ok(Box::new(FailFile {
            inner,
            name: file_name(path),
            mem,
            dirty: Vec::new(),
            state: Arc::clone(&self.state),
        }))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.state.lock().expect("fault state").check_alive()?;
        self.inner.create_dir_all(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let crash = self.mutating_op(FsOpKind::Rename, &file_name(to))?;
        if crash {
            // Crash at the rename point: the rename never happened.
            return Err(FaultState::crash_error());
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let crash = self.mutating_op(FsOpKind::Remove, &file_name(path))?;
        if crash {
            return Err(FaultState::crash_error());
        }
        self.inner.remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let crash = self.mutating_op(FsOpKind::SyncDir, ".")?;
        if crash {
            return Err(FaultState::crash_error());
        }
        self.inner.sync_dir(path)
    }
}

/// A latch on commit syncs: an [`Fs`] wrapper whose `sync` parks while the
/// gate is held, so a test can stand inside the window between "fsync
/// started" and "fsync returned" for as long as it needs to look around.
///
/// Only a sync that covers written bytes of the one file named at
/// construction (the WAL, in practice) parks; truncation syncs and every
/// other file pass straight through, so checkpoints never trip the gate.
/// Cloneable; clones share the gate. Wrap it *around* a [`FailFs`] to get
/// the trace of the same operations: the gate must see the caller's own
/// writes and truncations, and a `FailFs` rewrites its whole shadow on
/// every sync, so to a gate inside one every sync looks like a commit's.
#[derive(Clone)]
pub struct GateFs {
    inner: Arc<dyn Fs>,
    file: String,
    gate: Arc<(Mutex<Gate>, Condvar)>,
}

#[derive(Debug, Default)]
struct Gate {
    held: bool,
    parked: bool,
    /// The parked sync returns an error when released.
    fail: bool,
}

impl GateFs {
    /// Gate the commit syncs of the file called `file` under `inner`.
    pub fn new(inner: Arc<dyn Fs>, file: &str) -> Self {
        Self {
            inner,
            file: file.to_owned(),
            gate: Arc::default(),
        }
    }

    /// Park the next commit sync until [`GateFs::open`] or
    /// [`GateFs::fail`].
    pub fn hold(&self) {
        self.gate.0.lock().expect("gate").held = true;
    }

    /// Whether a sync is parked at the gate right now.
    pub fn is_parked(&self) -> bool {
        self.gate.0.lock().expect("gate").parked
    }

    /// Release the gate; a parked sync proceeds to the inner filesystem.
    pub fn open(&self) {
        self.release(false);
    }

    /// Release the gate; a parked sync returns an error without reaching
    /// the inner filesystem.
    pub fn fail(&self) {
        self.release(true);
    }

    fn release(&self, fail: bool) {
        let mut gate = self.gate.0.lock().expect("gate");
        gate.held = false;
        gate.fail = fail && gate.parked;
        self.gate.1.notify_all();
    }
}

struct GateFile {
    inner: Box<dyn RawFile>,
    /// `None` for files the gate ignores.
    gate: Option<Arc<(Mutex<Gate>, Condvar)>>,
    /// Bytes written since the last sync: the next one is a commit sync.
    wrote: bool,
}

impl RawFile for GateFile {
    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read_at(off, buf)
    }

    fn write_at(&mut self, off: u64, buf: &[u8]) -> io::Result<usize> {
        self.wrote = true;
        self.inner.write_at(off, buf)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        if let Some((lock, opened)) = self.gate.as_deref().filter(|_| self.wrote) {
            let mut gate = lock.lock().expect("gate");
            if gate.held {
                gate.parked = true;
                gate = opened.wait_while(gate, |g| g.held).expect("gate");
                gate.parked = false;
                if std::mem::take(&mut gate.fail) {
                    return Err(io::Error::other("injected sync failure"));
                }
            }
        }
        self.wrote = false;
        self.inner.sync()
    }
}

impl Fs for GateFs {
    fn open(&self, path: &Path, create: bool) -> io::Result<Box<dyn RawFile>> {
        Ok(Box::new(GateFile {
            inner: self.inner.open(path, create)?,
            gate: (file_name(path) == self.file).then(|| Arc::clone(&self.gate)),
            wrote: false,
        }))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_dir(path)
    }
}

/// A unique temp directory removed on drop — the sandbox each fault trial
/// runs in.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create a fresh directory under the system temp root.
    pub fn new(label: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ccix-{label}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccix_extmem::fs::RealFs;

    #[test]
    fn unsynced_writes_can_be_lost_at_crash() {
        let tmp = TempDir::new("fault-lossy");
        let path = tmp.path().join("f");
        // Crash on the 3rd mutating op; no other noise.
        let fs = FailFs::new(
            RealFs::shared(),
            7,
            FaultPlan {
                crash_after_ops: Some(3),
                short_write: 0.0,
                eintr: 0.0,
            },
        );
        let mut f = fs.open(&path, true).expect("open");
        write_all_at(f.as_mut(), 0, b"aaaa").expect("w1"); // op 1
        write_all_at(f.as_mut(), 4, b"bbbb").expect("w2"); // op 2
        let err = f.write_at(8, b"cccc").expect_err("op 3 crashes");
        assert!(err.to_string().contains("injected crash"));
        assert!(fs.crashed());
        // Everything afterwards fails.
        assert!(f.sync().is_err());
        assert!(fs.open(&path, false).is_err());
        // The real file holds a prefix of the write sequence: its length
        // is whatever survived the lossy flush, never more than was
        // written, and whatever bytes exist match the write order.
        let real = std::fs::read(&path).expect("read real file");
        assert!(real.len() <= 12);
        let full = b"aaaabbbbcccc";
        assert_eq!(&real[..], &full[..real.len()]);
    }

    #[test]
    fn sync_makes_writes_durable_before_crash() {
        let tmp = TempDir::new("fault-sync");
        let path = tmp.path().join("f");
        let fs = FailFs::new(
            RealFs::shared(),
            99,
            FaultPlan {
                crash_after_ops: Some(4),
                short_write: 0.0,
                eintr: 0.0,
            },
        );
        let mut f = fs.open(&path, true).expect("open");
        write_all_at(f.as_mut(), 0, b"keep").expect("w"); // op 1
        f.sync().expect("sync"); // op 2
        write_all_at(f.as_mut(), 4, b"lose").expect("w"); // op 3
        let _ = f.sync().expect_err("op 4 crashes");
        let real = std::fs::read(&path).expect("read real file");
        // The synced prefix always survives a crash.
        assert!(real.len() >= 4, "synced bytes lost: {real:?}");
        assert_eq!(&real[..4], b"keep");
    }

    #[test]
    fn short_writes_and_eintr_are_survivable() {
        let tmp = TempDir::new("fault-transient");
        let path = tmp.path().join("f");
        let fs = FailFs::new(
            RealFs::shared(),
            1234,
            FaultPlan {
                crash_after_ops: None,
                short_write: 0.5,
                eintr: 0.3,
            },
        );
        let mut f = fs.open(&path, true).expect("open");
        let payload: Vec<u8> = (0..=255u8).collect();
        write_all_at(f.as_mut(), 0, &payload).expect("write through noise");
        ccix_extmem::fs::retry_interrupted(|| f.sync()).expect("sync through noise");
        let real = std::fs::read(&path).expect("read");
        assert_eq!(real, payload);
    }

    #[test]
    fn trace_names_every_operation_and_a_held_sync_exposes_overlap() {
        let tmp = TempDir::new("fault-trace");
        // The gate sits *inside* here, parking the shadow flush itself, so
        // the FailFs counts the held sync as in flight.
        let gate = GateFs::new(RealFs::shared(), "wal");
        let fs = FailFs::new(
            Arc::new(gate.clone()),
            5,
            FaultPlan {
                crash_after_ops: None,
                short_write: 0.0,
                eintr: 0.0,
            },
        );
        let mut wal = fs.open(&tmp.path().join("wal"), true).expect("open wal");
        let mut other = fs
            .open(&tmp.path().join("other"), true)
            .expect("open other");
        write_all_at(wal.as_mut(), 0, b"rec").expect("append");
        gate.hold();
        std::thread::scope(|scope| {
            let syncing = scope.spawn(move || wal.sync());
            while !gate.is_parked() {
                std::thread::yield_now();
            }
            assert_eq!(fs.overlapped_syncs(), 0);
            // A second thread touching the filesystem mid-sync is flagged.
            write_all_at(other.as_mut(), 0, b"x").expect("write");
            assert_eq!(fs.overlapped_syncs(), 1);
            gate.open();
            syncing.join().expect("sync thread").expect("sync");
        });
        let op = |kind, file: &str, ordinal| FsOp {
            kind,
            file: file.to_owned(),
            ordinal: Some(ordinal),
        };
        assert_eq!(
            fs.trace(),
            vec![
                op(FsOpKind::Write, "wal", 1),
                op(FsOpKind::Sync, "wal", 2),
                op(FsOpKind::Write, "other", 3),
            ]
        );
        assert_eq!(std::fs::read(tmp.path().join("wal")).expect("read"), b"rec");
    }

    #[test]
    fn a_failed_gate_fails_only_the_parked_sync() {
        let tmp = TempDir::new("fault-gate-fail");
        let gate = GateFs::new(RealFs::shared(), "wal");
        let mut wal = Fs::open(&gate, &tmp.path().join("wal"), true).expect("open wal");
        write_all_at(wal.as_mut(), 0, b"rec").expect("append");
        // Nothing parked: fail() is just open().
        gate.hold();
        gate.fail();
        wal.sync().expect("not parked, not failed");
        write_all_at(wal.as_mut(), 3, b"ord").expect("append");
        gate.hold();
        std::thread::scope(|scope| {
            let syncing = scope.spawn(|| wal.sync());
            while !gate.is_parked() {
                std::thread::yield_now();
            }
            gate.fail();
            assert!(syncing.join().expect("sync thread").is_err());
        });
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let tmp = TempDir::new("fault-det");
            let path = tmp.path().join("f");
            let fs = FailFs::new(
                RealFs::shared(),
                seed,
                FaultPlan {
                    crash_after_ops: Some(9),
                    short_write: 0.4,
                    eintr: 0.2,
                },
            );
            let mut f = fs.open(&path, true).expect("open");
            let mut log = Vec::new();
            for i in 0..40u8 {
                match f.write_at(i as u64, &[i; 3]) {
                    Ok(n) => log.push(n as i64),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => log.push(-1),
                    Err(_) => {
                        log.push(-2);
                        break;
                    }
                }
            }
            log
        };
        assert_eq!(run(42), run(42), "same seed, same fault schedule");
        assert_ne!(run(42), run(43), "different seeds diverge");
    }
}
