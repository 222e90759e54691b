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
//! * [`FileDevice`] — a real file (one per `reset` generation), for native
//!   `RealGate` runs.
//!
//! Devices are deliberately dumb: append, read back, and atomically replace
//! (the snapshot-install/truncate primitive). Crash semantics live above
//! the device, in the log's [`gstm_core::KillSwitch`] checks — a dead log
//! simply stops calling its devices, which models a crashed process whose
//! disk retains whatever had been written.

use gstm_core::sync::Mutex;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
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

/// A real file, replaced generation by generation: the contents live in
/// `path` until the first `reset` and in `<path>.<n>` after the `n`-th.
/// `reset` writes `<path>.tmp.<pid>`, renames it to the next generation's
/// name — one that does not exist: renaming *over* the live file makes ext4
/// flush the new file first — and only then unlinks the previous one. A
/// crash leaves the old contents, the new, or both files whole, never a
/// mix; a device opened on `path` later reads the highest generation
/// present, and its first `append` or `reset` removes what such a crash
/// leaves beside it: older generations and `<path>.tmp.*` files. Reads
/// delete nothing. Names build on the full file name, so `wal.log` and
/// `wal.snap` in one directory share none. The handle that wrote a
/// generation stays open for the appends that follow.
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
    state: Mutex<FileState>,
}

#[derive(Debug, Default)]
struct FileState {
    /// The generation holding the contents; `None` until first use looks.
    generation: Option<u64>,
    /// Write handle on that generation's file, positioned at its end.
    file: Option<File>,
    /// Whether a write has removed the leftovers of a crash yet.
    swept: bool,
}

impl FileDevice {
    /// A device backed by `path` (created on first write).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileDevice { path: path.into(), state: Mutex::default() }
    }

    /// The path the device was opened on (generation 0's file).
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Closes the write handle (the next `append` reopens the file): an
    /// unlinked file's blocks are only freed when its last handle closes.
    pub fn close(&self) {
        self.state.lock().file = None;
    }

    /// `<path>.<suffix>`.
    fn sibling(&self, suffix: impl std::fmt::Display) -> PathBuf {
        let mut name = self.path.clone().into_os_string();
        name.push(format!(".{suffix}"));
        name.into()
    }

    fn generation_path(&self, generation: u64) -> PathBuf {
        if generation == 0 {
            self.path.clone()
        } else {
            self.sibling(generation)
        }
    }

    /// The `<suffix>` of every `<file name>.<suffix>` in the directory.
    fn suffixes(&self) -> Vec<String> {
        let name = self.path.file_name().and_then(|n| n.to_str());
        let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::read_dir(dir.unwrap_or(std::path::Path::new(".")))
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| {
                let entry = entry.file_name();
                Some(entry.to_str()?.strip_prefix(name?)?.strip_prefix('.')?.to_owned())
            })
            .collect()
    }

    /// The generation holding the contents and its file. Found on first
    /// use: the highest `<file name>.<n>` in the directory, else 0.
    fn current(&self, state: &mut FileState) -> (u64, PathBuf) {
        let generation = *state.generation.get_or_insert_with(|| {
            self.suffixes().iter().filter_map(|s| s.parse::<u64>().ok()).max().unwrap_or(0)
        });
        (generation, self.generation_path(generation))
    }

    /// On the first write, removes what a crash left beside the current
    /// generation: older generations (a crash between rename and unlink)
    /// and temp files (a crash before the rename).
    fn sweep(&self, state: &mut FileState) {
        if std::mem::replace(&mut state.swept, true) {
            return;
        }
        let (_, current) = self.current(state);
        let leftovers = self
            .suffixes()
            .into_iter()
            .filter(|s| s.parse::<u64>().is_ok() || s.starts_with("tmp."));
        for path in leftovers.map(|s| self.sibling(s)).chain([self.path.clone()]) {
            if path != current {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

impl LogDevice for FileDevice {
    fn append(&self, bytes: &[u8]) {
        let mut state = self.state.lock();
        self.sweep(&mut state);
        let (_, path) = self.current(&mut state);
        let written = match &mut state.file {
            Some(file) => file.write_all(bytes),
            None => OpenOptions::new().create(true).append(true).open(&path).and_then(|mut f| {
                f.write_all(bytes)?;
                state.file = Some(f);
                Ok(())
            }),
        };
        written.unwrap_or_else(|e| panic!("WAL append to {} failed: {e}", path.display()));
    }

    fn contents(&self) -> Vec<u8> {
        std::fs::read(self.current(&mut self.state.lock()).1).unwrap_or_default()
    }

    fn reset(&self, bytes: &[u8]) {
        let mut state = self.state.lock();
        self.sweep(&mut state);
        let (old, old_path) = self.current(&mut state);
        let tmp = self.sibling(format_args!("tmp.{}", std::process::id()));
        let written = File::create(&tmp).and_then(|mut f| {
            f.write_all(bytes)?;
            std::fs::rename(&tmp, self.generation_path(old + 1))?;
            Ok(f)
        });
        let file = written.unwrap_or_else(|e| {
            let _ = std::fs::remove_file(&tmp);
            panic!("WAL reset of {} failed: {e}", self.path.display())
        });
        *state = FileState { generation: Some(old + 1), file: Some(file), swept: true };
        let _ = std::fs::remove_file(old_path);
    }

    fn len(&self) -> u64 {
        std::fs::metadata(self.current(&mut self.state.lock()).1).map(|m| m.len()).unwrap_or(0)
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

    /// A fresh, empty directory under `temp_dir()`, unique to this test.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gstm-wal-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn file_names(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn file_device_round_trips() {
        let dir = scratch_dir("dev");
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

    /// Each reset moves the contents to the next generation's file and
    /// leaves nothing else behind; appends follow them there, through the
    /// kept handle or a reopened one; a second device on the same path
    /// finds the newest generation.
    #[test]
    fn file_device_generations_replace_each_other() {
        let dir = scratch_dir("gen");
        let d = FileDevice::new(dir.join("wal.log"));
        d.append(b"zero");
        assert_eq!(file_names(&dir), ["wal.log"]);
        d.reset(b"one");
        d.append(b"+");
        assert_eq!(file_names(&dir), ["wal.log.1"]);
        d.reset(b"two");
        assert_eq!(file_names(&dir), ["wal.log.2"]);
        d.close();
        d.append(b"+");
        assert_eq!(d.contents(), b"two+");

        // What a crash between the rename and the unlink leaves: both
        // generations whole. The newest one is the contents, and the first
        // write removes the other.
        std::fs::write(dir.join("wal.log.1"), b"stale").unwrap();
        let reopened = FileDevice::new(dir.join("wal.log"));
        assert_eq!(reopened.contents(), b"two+");
        reopened.append(b"+");
        reopened.reset(b"three");
        assert_eq!(reopened.contents(), b"three");
        assert_eq!(file_names(&dir), ["wal.log.3"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Both kinds of crash leftover — a stale generation and a temp file —
    /// stay while the device only reads and go at its first append.
    #[test]
    fn the_first_write_removes_what_a_crash_left() {
        let dir = scratch_dir("sweep");
        std::fs::write(dir.join("wal.log"), b"A").unwrap();
        std::fs::write(dir.join("wal.log.2"), b"B").unwrap();
        std::fs::write(dir.join("wal.log.tmp.999999"), b"torn").unwrap();
        std::fs::write(dir.join("wal.snap.1"), b"other device").unwrap();
        let all = ["wal.log", "wal.log.2", "wal.log.tmp.999999", "wal.snap.1"];
        let d = FileDevice::new(dir.join("wal.log"));
        assert_eq!((d.contents(), d.len()), (b"B".to_vec(), 1));
        assert_eq!(file_names(&dir), all, "reads delete nothing");
        d.append(b"+");
        assert_eq!(file_names(&dir), ["wal.log.2", "wal.snap.1"]);
        assert_eq!(std::fs::read(dir.join("wal.log.2")).unwrap(), b"B+");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `wal.log` and `wal.snap` used to share the temp name `wal.tmp.<pid>`
    /// (`with_extension` replaces the extension), and only the WAL's own
    /// lock kept their resets apart.
    #[test]
    fn devices_sharing_a_stem_reset_concurrently() {
        let dir = scratch_dir("stem");
        let devices = [FileDevice::new(dir.join("wal.log")), FileDevice::new(dir.join("wal.snap"))];
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for (d, tag) in devices.iter().zip([b'l', b's']) {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for round in 0..1000u32 {
                        let mut bytes = vec![tag; 64];
                        bytes.extend_from_slice(&round.to_le_bytes());
                        d.reset(&bytes);
                        assert_eq!(d.contents(), bytes, "round {round} of {}", tag as char);
                    }
                });
            }
        });
        assert_eq!(file_names(&dir), ["wal.log.1000", "wal.snap.1000"]);
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
