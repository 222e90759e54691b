//! The byte-level "disk" seam below the write-ahead log.
//!
//! The log never touches the filesystem directly; it writes through a
//! [`LogDevice`]. Two implementations cover the two worlds the rest of the
//! stack runs in:
//!
//! * [`MemDevice`] — an in-memory byte vector. Under `SimGate` this is the
//!   deterministic disk: a `(seed, workload)` pair produces byte-identical
//!   device contents on every run, so crash/recovery experiments replay
//!   exactly.
//! * [`FileDevice`] — a real file, for native `RealGate` runs.
//!
//! Devices are deliberately dumb: append, read back, and atomically replace
//! (the snapshot-install/truncate primitive). Crash semantics live above
//! the device, in the log's [`gstm_core::KillSwitch`] checks — a dead log
//! simply stops calling its devices, which models a crashed process whose
//! disk retains whatever had been written.

use gstm_core::sync::Mutex;
use std::path::PathBuf;

/// An append-only byte store with atomic whole-content replacement.
pub trait LogDevice: Send + Sync {
    /// Appends `bytes` at the end.
    fn append(&self, bytes: &[u8]);

    /// The full current contents.
    fn contents(&self) -> Vec<u8>;

    /// Atomically replaces the contents with `bytes` (used to install
    /// snapshots and truncate logs).
    fn reset(&self, bytes: &[u8]);

    /// Current length in bytes.
    fn len(&self) -> u64;

    /// Whether the device holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The deterministic in-memory device (the simulator's disk).
#[derive(Debug, Default)]
pub struct MemDevice {
    bytes: Mutex<Vec<u8>>,
}

impl MemDevice {
    /// An empty device.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LogDevice for MemDevice {
    fn append(&self, bytes: &[u8]) {
        self.bytes.lock().extend_from_slice(bytes);
    }

    fn contents(&self) -> Vec<u8> {
        self.bytes.lock().clone()
    }

    fn reset(&self, bytes: &[u8]) {
        *self.bytes.lock() = bytes.to_vec();
    }

    fn len(&self) -> u64 {
        self.bytes.lock().len() as u64
    }
}

/// A real file. `reset` writes a temp file and renames it over the target,
/// so a crash during snapshot install leaves either the old or the new
/// contents, never a mix.
///
/// Write-side failures are loud: `append` and `reset` panic with the path
/// and the `io::Error`, because a dropped write is an acknowledged commit
/// that was never logged. Read-side `contents`/`len` treat an unreadable
/// file as an empty device, which is what recovery of a never-written log
/// relies on.
#[derive(Debug)]
pub struct FileDevice {
    path: PathBuf,
    /// Serializes append/reset so interleaved writers cannot tear frames.
    guard: Mutex<()>,
}

impl FileDevice {
    /// A device backed by `path` (created on first write).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileDevice { path: path.into(), guard: Mutex::new(()) }
    }

    /// The backing path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl LogDevice for FileDevice {
    fn append(&self, bytes: &[u8]) {
        let _g = self.guard.lock();
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .and_then(|mut f| f.write_all(bytes))
            .unwrap_or_else(|e| panic!("WAL append to {} failed: {e}", self.path.display()));
    }

    fn contents(&self) -> Vec<u8> {
        let _g = self.guard.lock();
        std::fs::read(&self.path).unwrap_or_default()
    }

    fn reset(&self, bytes: &[u8]) {
        let _g = self.guard.lock();
        let tmp = self.path.with_extension(format!("tmp.{}", std::process::id()));
        if let Err(e) = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, &self.path))
        {
            let _ = std::fs::remove_file(&tmp);
            panic!("WAL reset of {} failed: {e}", self.path.display());
        }
    }

    fn len(&self) -> u64 {
        let _g = self.guard.lock();
        std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_device_round_trips() {
        let d = MemDevice::new();
        assert!(d.is_empty());
        d.append(b"abc");
        d.append(b"def");
        assert_eq!(d.contents(), b"abcdef");
        assert_eq!(d.len(), 6);
        d.reset(b"xy");
        assert_eq!(d.contents(), b"xy");
    }

    #[test]
    fn file_device_round_trips() {
        let dir = std::env::temp_dir().join(format!("gstm-wal-dev-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = FileDevice::new(dir.join("log.bin"));
        assert!(d.is_empty(), "missing file reads as empty");
        d.append(b"abc");
        d.append(b"def");
        assert_eq!(d.contents(), b"abcdef");
        d.reset(b"xy");
        assert_eq!(d.contents(), b"xy");
        assert_eq!(d.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A write that cannot reach the disk must not be acknowledged: both
    /// write-side calls used to drop the error and return normally.
    #[test]
    fn file_device_write_failures_are_loud() {
        let missing = std::env::temp_dir()
            .join(format!("gstm-wal-missing-{}", std::process::id()))
            .join("wal.log");
        let d = FileDevice::new(&missing);
        assert_eq!((d.len(), d.contents()), (0, Vec::new()), "read side still reads as empty");
        for write in [|d: &FileDevice| d.append(b"abc"), |d: &FileDevice| d.reset(b"abc")] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| write(&d)))
                .expect_err("a write into a missing directory must panic");
            let msg = err.downcast_ref::<String>().expect("panic carries a message");
            assert!(msg.contains("wal.log") && msg.contains("failed"), "{msg}");
        }
    }
}
