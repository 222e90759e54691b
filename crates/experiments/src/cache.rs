//! Content-addressed cache of trained models and run outcomes.
//!
//! The pipeline keys every cacheable artifact by a *canonical key string*
//! that spells out the full configuration that produced it (workload, input
//! size, threads, seeds, Tfactor, policy, …). The key is hashed with
//! [`gstm_model::serialize::fingerprint_hex`] into a 128-bit digest that
//! names the file on disk:
//!
//! ```text
//! <root>/models/<digest>.gtsa   — trained automata, GTSA v1 binary
//! <root>/runs/<digest>.json     — run outcomes, versioned "gstm-run" JSON
//! ```
//!
//! Because every run executes inside a fresh `VarIdDomain` on the
//! deterministic simulator, a key collision-free hit is *exactly* the
//! outcome the run would reproduce — caching is semantically invisible.
//! The full key string is stored inside each artifact and verified on load,
//! so a (vanishingly unlikely) digest collision degrades to a miss, never
//! to a wrong result. Corrupt or unreadable entries also degrade to misses.
//!
//! Runs that captured full event logs are never cached: the log is huge and
//! profiling runs are consumed immediately by training (which caches the
//! resulting model instead).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use gstm_guide::{HoldStats, RunOutcome};
use gstm_model::serialize::{self, fingerprint_hex};
use gstm_model::Tsa;
use gstm_telemetry::{JsonValue, Snapshot};

/// Schema tag of cached run outcomes.
pub const RUN_SCHEMA: &str = "gstm-run";
/// Version of the cached run-outcome encoding.
pub const RUN_VERSION: u64 = 1;

/// A content-addressed cache rooted at one directory.
#[derive(Clone, Debug)]
pub struct DiskCache {
    root: PathBuf,
}

impl DiskCache {
    /// Opens (lazily — directories are created on first store) a cache at
    /// `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DiskCache { root: root.into() }
    }

    fn model_path(&self, key: &str) -> PathBuf {
        self.root.join("models").join(format!("{}.gtsa", fingerprint_hex(key.as_bytes())))
    }

    fn run_path(&self, key: &str) -> PathBuf {
        self.root.join("runs").join(format!("{}.json", fingerprint_hex(key.as_bytes())))
    }

    fn text_path(&self, key: &str) -> PathBuf {
        self.root.join("cells").join(format!("{}.txt", fingerprint_hex(key.as_bytes())))
    }

    /// Writes `bytes` atomically: temp file in the target directory, then
    /// rename. Concurrent writers of the same key race benignly (identical
    /// content). Errors are swallowed — the cache is an optimization.
    fn write_atomic(path: &Path, bytes: &[u8]) {
        let Some(dir) = path.parent() else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if std::fs::write(&tmp, bytes).is_ok() && std::fs::rename(&tmp, path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Looks up a trained automaton by key. `None` on miss or on any decode
    /// failure.
    pub fn load_model(&self, key: &str) -> Option<Tsa> {
        serialize::load(&self.model_path(key)).ok()
    }

    /// Stores a trained automaton under `key`.
    pub fn store_model(&self, key: &str, tsa: &Tsa) {
        Self::write_atomic(&self.model_path(key), &serialize::to_bytes(tsa));
    }

    /// Looks up a run outcome by key. `None` on miss, on any decode
    /// failure, or when the stored key string does not match (digest
    /// collision).
    pub fn load_run(&self, key: &str) -> Option<RunOutcome> {
        let text = std::fs::read_to_string(self.run_path(key)).ok()?;
        decode_run(&text, key)
    }

    /// Stores a run outcome under `key`. Outcomes carrying a captured event
    /// log are not cacheable and are silently skipped.
    pub fn store_run(&self, key: &str, outcome: &RunOutcome) {
        if outcome.events.is_some() {
            return;
        }
        let text = encode_run(outcome, key).render();
        Self::write_atomic(&self.run_path(key), text.as_bytes());
    }

    /// Looks up a cached text artifact (a rendered cell) by key. The key
    /// is embedded as a first-line header and verified on load, so digest
    /// collisions degrade to misses.
    pub fn load_text(&self, key: &str) -> Option<String> {
        debug_assert!(!key.contains('\n'), "text-cache keys are single-line");
        let raw = std::fs::read_to_string(self.text_path(key)).ok()?;
        let (stored_key, body) = raw.split_once('\n')?;
        (stored_key == key).then(|| body.to_string())
    }

    /// Stores a rendered text artifact under a single-line `key`.
    pub fn store_text(&self, key: &str, body: &str) {
        debug_assert!(!key.contains('\n'), "text-cache keys are single-line");
        let mut raw = String::with_capacity(key.len() + 1 + body.len());
        raw.push_str(key);
        raw.push('\n');
        raw.push_str(body);
        Self::write_atomic(&self.text_path(key), raw.as_bytes());
    }
}

fn num(v: u64) -> JsonValue {
    JsonValue::Num(v as f64)
}

fn nums(vs: &[u64]) -> JsonValue {
    JsonValue::Arr(vs.iter().map(|&v| num(v)).collect())
}

fn as_u64(v: &JsonValue) -> Option<u64> {
    let f = v.as_f64()?;
    (f >= 0.0 && f.fract() == 0.0).then_some(f as u64)
}

fn u64_list(v: &JsonValue) -> Option<Vec<u64>> {
    match v {
        JsonValue::Arr(items) => items.iter().map(as_u64).collect(),
        _ => None,
    }
}

/// Encodes one outcome as a versioned, self-describing JSON object. The
/// `key` is embedded for collision detection on load.
pub fn encode_run(out: &RunOutcome, key: &str) -> JsonValue {
    let histograms = JsonValue::Arr(
        out.abort_histograms
            .iter()
            .map(|h| JsonValue::Obj(h.iter().map(|(&k, &v)| (k.to_string(), num(v))).collect()))
            .collect(),
    );
    let workload_stats = JsonValue::Arr(
        out.workload_stats
            .iter()
            .map(|(name, v)| JsonValue::Arr(vec![JsonValue::Str(name.clone()), JsonValue::Num(*v)]))
            .collect(),
    );
    let hold_stats = match &out.hold_stats {
        Some(h) => JsonValue::obj(vec![
            ("immediate".into(), num(h.immediate)),
            ("admitted_later".into(), num(h.admitted_later)),
            ("bailed_out".into(), num(h.bailed_out)),
        ]),
        None => JsonValue::Null,
    };
    let telemetry = match &out.telemetry {
        Some(snap) => JsonValue::Str(snap.to_machine()),
        None => JsonValue::Null,
    };
    JsonValue::obj(vec![
        ("schema".into(), JsonValue::Str(RUN_SCHEMA.into())),
        ("version".into(), num(RUN_VERSION)),
        ("key".into(), JsonValue::Str(key.into())),
        ("thread_ticks".into(), nums(&out.thread_ticks)),
        ("makespan".into(), num(out.makespan)),
        ("commits".into(), nums(&out.commits)),
        ("aborts".into(), nums(&out.aborts)),
        ("holds".into(), nums(&out.holds)),
        ("abort_histograms".into(), histograms),
        ("nondeterminism".into(), num(out.nondeterminism as u64)),
        ("unknown_hits".into(), num(out.unknown_hits)),
        ("workload_stats".into(), workload_stats),
        ("hold_stats".into(), hold_stats),
        ("telemetry".into(), telemetry),
    ])
}

/// Decodes a cached outcome, verifying schema, version and key. `None` on
/// any mismatch or malformed field.
pub fn decode_run(text: &str, key: &str) -> Option<RunOutcome> {
    let v = JsonValue::parse(text).ok()?;
    if v.get("schema")?.as_str()? != RUN_SCHEMA || as_u64(v.get("version")?)? != RUN_VERSION {
        return None;
    }
    if v.get("key")?.as_str()? != key {
        return None;
    }
    let abort_histograms = match v.get("abort_histograms")? {
        JsonValue::Arr(items) => items
            .iter()
            .map(|h| {
                h.as_obj()?
                    .iter()
                    .map(|(k, val)| Some((k.parse::<u32>().ok()?, as_u64(val)?)))
                    .collect::<Option<BTreeMap<u32, u64>>>()
            })
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    let workload_stats = match v.get("workload_stats")? {
        JsonValue::Arr(items) => items
            .iter()
            .map(|pair| match pair {
                JsonValue::Arr(kv) if kv.len() == 2 => {
                    Some((kv[0].as_str()?.to_string(), kv[1].as_f64()?))
                }
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    let hold_stats = match v.get("hold_stats")? {
        JsonValue::Null => None,
        h => Some(HoldStats {
            immediate: as_u64(h.get("immediate")?)?,
            admitted_later: as_u64(h.get("admitted_later")?)?,
            bailed_out: as_u64(h.get("bailed_out")?)?,
        }),
    };
    let telemetry = match v.get("telemetry")? {
        JsonValue::Null => None,
        JsonValue::Str(machine) => Some(Snapshot::from_machine(machine).ok()?),
        _ => return None,
    };
    Some(RunOutcome {
        thread_ticks: u64_list(v.get("thread_ticks")?)?,
        makespan: as_u64(v.get("makespan")?)?,
        commits: u64_list(v.get("commits")?)?,
        aborts: u64_list(v.get("aborts")?)?,
        holds: u64_list(v.get("holds")?)?,
        abort_histograms,
        nondeterminism: as_u64(v.get("nondeterminism")?)? as usize,
        unknown_hits: as_u64(v.get("unknown_hits")?)?,
        events: None,
        workload_stats,
        hold_stats,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome() -> RunOutcome {
        let mut h0 = BTreeMap::new();
        h0.insert(0u32, 17u64);
        h0.insert(3, 2);
        let mut snap = Snapshot::new();
        snap.set_counter("gstm_tx_commits_total", 0, 19);
        snap.set_gauge("gstm_sim_makespan_ticks", 911);
        RunOutcome {
            thread_ticks: vec![900, 911],
            makespan: 911,
            commits: vec![10, 9],
            aborts: vec![2, 3],
            holds: vec![1, 0],
            abort_histograms: vec![h0, BTreeMap::new()],
            nondeterminism: 6,
            unknown_hits: 4,
            events: None,
            workload_stats: vec![("final".into(), 19.0)],
            hold_stats: Some(HoldStats { immediate: 5, admitted_later: 2, bailed_out: 1 }),
            telemetry: Some(snap),
        }
    }

    fn assert_outcomes_equal(a: &RunOutcome, b: &RunOutcome) {
        assert_eq!(a.thread_ticks, b.thread_ticks);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.aborts, b.aborts);
        assert_eq!(a.holds, b.holds);
        assert_eq!(a.abort_histograms, b.abort_histograms);
        assert_eq!(a.nondeterminism, b.nondeterminism);
        assert_eq!(a.unknown_hits, b.unknown_hits);
        assert_eq!(a.workload_stats, b.workload_stats);
        assert_eq!(a.hold_stats, b.hold_stats);
        assert_eq!(
            a.telemetry.as_ref().map(Snapshot::to_machine),
            b.telemetry.as_ref().map(Snapshot::to_machine)
        );
    }

    #[test]
    fn run_codec_round_trips() {
        let out = sample_outcome();
        let text = encode_run(&out, "k1").render();
        let back = decode_run(&text, "k1").expect("decodes");
        assert_outcomes_equal(&out, &back);
    }

    #[test]
    fn decode_rejects_wrong_key_and_garbage() {
        let text = encode_run(&sample_outcome(), "k1").render();
        assert!(decode_run(&text, "k2").is_none(), "key mismatch must miss");
        assert!(decode_run("not json", "k1").is_none());
        assert!(decode_run("{}", "k1").is_none());
    }

    #[test]
    fn disk_cache_round_trips_runs_and_models() {
        let dir = std::env::temp_dir().join(format!("gstm-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::new(&dir);
        assert!(cache.load_run("k").is_none());

        let out = sample_outcome();
        cache.store_run("k", &out);
        let back = cache.load_run("k").expect("hit after store");
        assert_outcomes_equal(&out, &back);

        // A capture_events outcome must never be stored.
        let mut with_events = sample_outcome();
        with_events.events = Some(Vec::new());
        cache.store_run("ev", &with_events);
        assert!(cache.load_run("ev").is_none());

        let mut b = gstm_model::TsaBuilder::new();
        use gstm_core::{Participant, ThreadId, TxId};
        let who = Participant::new(ThreadId::new(0), TxId::new(0));
        b.add_run(&[gstm_model::Tts::solo(who)]);
        let tsa = b.build();
        assert!(cache.load_model("m").is_none());
        cache.store_model("m", &tsa);
        let back = cache.load_model("m").expect("model hit");
        assert_eq!(serialize::to_bytes(&back), serialize::to_bytes(&tsa));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn text_cache_round_trips_and_verifies_key() {
        let dir = std::env::temp_dir().join(format!("gstm-textcache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::new(&dir);
        assert!(cache.load_text("cell-a").is_none());
        cache.store_text("cell-a", "line 1\nline 2\n");
        assert_eq!(cache.load_text("cell-a").as_deref(), Some("line 1\nline 2\n"));
        assert!(cache.load_text("cell-b").is_none(), "different key must miss");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
