//! STM configuration: detection/resolution modes and tuning knobs.

use crate::gate::CostModel;

/// When conflicts are detected (§II of the paper).
///
/// TL2 is lazy ([`Detection::CommitTime`]): writes are buffered and locks
/// taken only during the commit protocol, which "reduces the total number
/// of retries and aborts". [`Detection::EncounterTime`] acquires the stripe
/// lock at the first write, aborting competitors earlier — the paper argues
/// results on lazy detection imply the eager case.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Detection {
    /// Lazy, commit-time locking (TL2; the paper's primary configuration).
    #[default]
    CommitTime,
    /// Eager, encounter-time locking.
    EncounterTime,
}

/// How a committer treats concurrent readers of its write set (LibTM's
/// conflict-resolution choice, §VIII).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Resolution {
    /// Readers discover staleness themselves (invisible readers; TL2).
    #[default]
    SelfAbort,
    /// Committer dooms registered readers of its write stripes
    /// (LibTM "abort-readers", used for SynQuake in the paper).
    AbortReaders,
    /// Committer waits for registered readers to drain, aborting itself
    /// after a bounded wait (LibTM "wait-for-readers").
    WaitForReaders,
}

impl Resolution {
    /// Whether this resolution requires visible-reader registries.
    pub fn needs_visible_readers(self) -> bool {
        !matches!(self, Resolution::SelfAbort)
    }
}

/// How read-only transactions obtain a consistent view (DESIGN.md §3.1d).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReadMode {
    /// Legacy TL2 reads: every read (update and read-only transactions
    /// alike) runs the pre/post lock-word sandwich against the latest
    /// committed value and aborts on staleness. The default — the
    /// determinism goldens pin this behavior bit-for-bit.
    #[default]
    Latest,
    /// Multi-version snapshot reads: committers additionally publish each
    /// written value into a bounded per-cell version ring, and a
    /// [`TxnKind::ReadOnly`] transaction picks a snapshot timestamp at
    /// begin, reading the newest version `<= ts` with zero validation and
    /// zero engine aborts. Update transactions are unchanged except for the
    /// version publication in commit step 5.
    Snapshot,
}

impl ReadMode {
    /// Short label (`latest` / `snapshot`).
    pub fn label(self) -> &'static str {
        match self {
            ReadMode::Latest => "latest",
            ReadMode::Snapshot => "snapshot",
        }
    }
}

/// Declared intent of one transaction invocation.
///
/// [`crate::Stm::run`] runs [`TxnKind::Update`] transactions;
/// [`crate::Stm::run_read_only`] runs [`TxnKind::ReadOnly`] ones, which must
/// not call [`crate::Txn::write`] (doing so panics). Under
/// [`ReadMode::Snapshot`] the read-only kind selects the zero-abort
/// snapshot read path; under [`ReadMode::Latest`] it behaves like a regular
/// transaction that happens to have an empty write set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TxnKind {
    /// May read and write; commits through the full TL2 protocol.
    #[default]
    Update,
    /// Reads only; never takes locks, never ticks the clock.
    ReadOnly,
}

/// Configuration of an [`crate::Stm`] instance.
///
/// Build one with the fluent [`StmConfig::builder`]:
///
/// ```
/// use gstm_core::{StmConfig, Detection, Resolution};
/// let cfg = StmConfig::builder(8)
///     .detection(Detection::CommitTime)
///     .resolution(Resolution::SelfAbort)
///     .build();
/// assert_eq!(cfg.max_threads, 8);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StmConfig {
    /// Number of worker threads (thread ids must be `< max_threads`).
    /// The paper pins one thread per core: 8 or 16.
    pub max_threads: usize,
    /// Conflict detection time.
    pub detection: Detection,
    /// Conflict resolution against readers.
    pub resolution: Resolution,
    /// Tick costs charged through the gate.
    pub costs: CostModel,
    /// `WaitForReaders` patience (polls) before self-aborting.
    ///
    /// `0` means a committer that finds any registered reader on a held
    /// stripe aborts immediately without charging a single poll; `n > 0`
    /// means up to `n` polls are charged before giving up.
    pub reader_wait_limit: u32,
    /// Emit the oracle's `*Check` event variants (`ReadCheck`,
    /// `WriteBackCheck`, `CommitCheck`, `UnlockCheck`).
    ///
    /// Check events are recorded straight to the sink and never pass the
    /// gate, so enabling them does not perturb virtual-time schedules.
    pub check_events: bool,
    /// Read-path strategy for [`TxnKind::ReadOnly`] transactions (default
    /// [`ReadMode::Latest`], the legacy behavior the determinism goldens
    /// pin). See DESIGN.md §3.1d.
    pub read_mode: ReadMode,
}

impl StmConfig {
    /// Configuration with defaults for `max_threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads` is 0 or exceeds `u16::MAX`.
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads > 0 && max_threads <= u16::MAX as usize);
        StmConfig {
            max_threads,
            detection: Detection::default(),
            resolution: Resolution::default(),
            costs: CostModel::default(),
            reader_wait_limit: 32,
            check_events: false,
            read_mode: ReadMode::default(),
        }
    }

    /// Starts a fluent [`StmConfigBuilder`] with defaults for `max_threads`
    /// threads — the one place every knob (detection, resolution, read
    /// mode, …) is set.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads` is 0 or exceeds `u16::MAX`.
    pub fn builder(max_threads: usize) -> StmConfigBuilder {
        StmConfigBuilder { cfg: StmConfig::new(max_threads) }
    }

    /// Checks `max_threads` against the limit the engine's thread ids
    /// enforce, returning one loud message instead of letting an
    /// out-of-range value panic deep inside the engine.
    ///
    /// [`StmConfigBuilder::build`] runs this automatically; call it
    /// directly when a config is assembled field-by-field (struct literal,
    /// deserialization) rather than through the builder.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_threads == 0 || self.max_threads > u16::MAX as usize {
            return Err(format!(
                "max_threads must be in 1..={}, got {}",
                u16::MAX,
                self.max_threads
            ));
        }
        Ok(())
    }

    /// The LibTM configuration the paper uses for SynQuake:
    /// fully-optimistic detection with abort-readers resolution.
    pub fn libtm(max_threads: usize) -> Self {
        StmConfig::builder(max_threads)
            .detection(Detection::CommitTime)
            .resolution(Resolution::AbortReaders)
            .build()
    }
}

/// Fluent builder for [`StmConfig`] — the consolidated home of every knob
/// that used to live on scattered `with_*` constructors. Obtained from [`StmConfig::builder`]; finish with
/// [`build`](StmConfigBuilder::build).
///
/// ```
/// use gstm_core::{ReadMode, StmConfig};
/// let cfg = StmConfig::builder(8)
///     .reader_wait_limit(8)
///     .read_mode(ReadMode::Snapshot)
///     .build();
/// assert_eq!(cfg.reader_wait_limit, 8);
/// assert_eq!(cfg.read_mode, ReadMode::Snapshot);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct StmConfigBuilder {
    cfg: StmConfig,
}

impl StmConfigBuilder {
    /// Sets the detection mode.
    pub fn detection(mut self, d: Detection) -> Self {
        self.cfg.detection = d;
        self
    }

    /// Sets the resolution mode.
    pub fn resolution(mut self, r: Resolution) -> Self {
        self.cfg.resolution = r;
        self
    }

    /// Sets the tick cost model.
    pub fn costs(mut self, c: CostModel) -> Self {
        self.cfg.costs = c;
        self
    }

    /// Sets the `WaitForReaders` patience (polls before self-aborting).
    pub fn reader_wait_limit(mut self, polls: u32) -> Self {
        self.cfg.reader_wait_limit = polls;
        self
    }

    /// Enables emission of the oracle's `*Check` events.
    pub fn check_events(mut self, on: bool) -> Self {
        self.cfg.check_events = on;
        self
    }

    /// Sets the read-path strategy for read-only transactions.
    pub fn read_mode(mut self, m: ReadMode) -> Self {
        self.cfg.read_mode = m;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`StmConfig::validate`] message if `max_threads` is
    /// out of range.
    pub fn build(self) -> StmConfig {
        if let Err(msg) = self.cfg.validate() {
            panic!("invalid StmConfig: {msg}");
        }
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_primary_config() {
        let c = StmConfig::new(8);
        assert_eq!(c.detection, Detection::CommitTime);
        assert_eq!(c.resolution, Resolution::SelfAbort);
        assert!(!c.resolution.needs_visible_readers());
        // The determinism goldens were captured on the legacy read path;
        // this default is what keeps them bit-identical.
        assert_eq!(c.read_mode, ReadMode::Latest);
    }

    #[test]
    fn builder_sets_every_knob() {
        let costs = CostModel { begin: 9, ..CostModel::default() };
        let c = StmConfig::builder(4)
            .detection(Detection::EncounterTime)
            .resolution(Resolution::WaitForReaders)
            .costs(costs)
            .reader_wait_limit(7)
            .check_events(true)
            .read_mode(ReadMode::Snapshot)
            .build();
        assert_eq!(c.detection, Detection::EncounterTime);
        assert_eq!(c.resolution, Resolution::WaitForReaders);
        assert_eq!(c.costs, costs);
        assert_eq!(c.reader_wait_limit, 7);
        assert!(c.check_events);
        assert_eq!(c.read_mode, ReadMode::Snapshot);
    }

    #[test]
    fn read_mode_labels_are_stable_cache_key_tokens() {
        assert_eq!(ReadMode::Latest.label(), "latest");
        assert_eq!(ReadMode::Snapshot.label(), "snapshot");
        assert_eq!(TxnKind::default(), TxnKind::Update);
    }

    #[test]
    fn validate_accepts_every_builder_reachable_config() {
        assert_eq!(StmConfig::new(1).validate(), Ok(()));
        assert_eq!(StmConfig::builder(u16::MAX as usize).build().validate(), Ok(()));
    }

    /// A config assembled field-by-field must fail `validate()` with a
    /// message naming the knob and its legal interval.
    #[test]
    fn validate_names_the_offending_knob() {
        let mut c = StmConfig::new(4);
        c.max_threads = 0;
        let msg = c.validate().unwrap_err();
        assert!(msg.contains("max_threads") && msg.contains("1..=65535"), "{msg}");
    }

    #[test]
    fn libtm_preset() {
        let c = StmConfig::libtm(16);
        assert_eq!(c.resolution, Resolution::AbortReaders);
        assert!(c.resolution.needs_visible_readers());
        assert_eq!(c.max_threads, 16);
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let _ = StmConfig::new(0);
    }
}
