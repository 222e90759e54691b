//! The experiment pipeline: declarative study plans, a content-addressed
//! cache, and a bounded worker pool.
//!
//! A [`StudyPlan`] *declares* what to measure — (benchmark, threads) cells
//! for STAMP and thread counts for SynQuake — and [`Pipeline::resolve`]
//! produces the same [`StampStudy`]/[`QuakeStudy`] values the old ad-hoc
//! runners built, with three properties they lacked:
//!
//! 1. **Sharing** — trained models are memoized in-process and persisted in
//!    the content-addressed [`DiskCache`], so `table1`, `table3`, `fig4`
//!    and the ablations share one training pass per (benchmark, threads).
//! 2. **Warm reruns** — measured [`RunOutcome`]s are cached under a digest
//!    of the *full* cell configuration; a rerun with an unchanged config
//!    skips straight to report rendering, byte-identically.
//! 3. **Parallelism** — independent cells and seeds fan out across OS
//!    threads ([`Pipeline::with_jobs`]); results are collected by index, so
//!    output is byte-identical to a sequential run.
//!
//! Correctness of (2) and (3) rests on `gstm_core::VarIdDomain`: every run
//! allocates its `TVar` ids in a fresh per-run namespace, making each
//! outcome a pure function of its key, whatever else the process ran
//! before or concurrently.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gstm_guide::{PolicyChoice, RunOptions, RunOutcome, TrainedModel, Workload, DEFAULT_K};
use gstm_model::serialize::tsa_digest;
use gstm_model::{analyze, GuidedModel};
use gstm_stamp::benchmark;
use gstm_synquake::{Quest, SynQuake};
use gstm_telemetry::PipelineGauges;

use crate::cache::DiskCache;
use crate::config::ExpConfig;
use crate::progress::Progress;
use crate::servecmd::{serve_spec, SERVE_ARRIVALS, SERVE_SHAPES};
use crate::study::{
    train_quake, train_serve, train_stamp, QuakeCell, QuakeStudy, ServeCell, ServeStudy, StampCell,
    StampStudy,
};

/// A declarative description of which study cells to measure.
#[derive(Clone, Debug, Default)]
pub struct StudyPlan {
    stamp: Vec<(&'static str, usize)>,
    quake: Vec<usize>,
    serve: Vec<(&'static str, &'static str, usize)>,
}

impl StudyPlan {
    /// An empty plan.
    pub fn new() -> Self {
        StudyPlan::default()
    }

    /// Adds one STAMP (benchmark, threads) cell; duplicates are ignored.
    pub fn stamp_cell(&mut self, name: &'static str, threads: usize) -> &mut Self {
        if !self.stamp.contains(&(name, threads)) {
            self.stamp.push((name, threads));
        }
        self
    }

    /// Adds the full STAMP study: every benchmark in `names` at every
    /// configured thread count.
    pub fn stamp_study(&mut self, cfg: &ExpConfig, names: &[&'static str]) -> &mut Self {
        for &name in names {
            for &threads in &cfg.threads_list {
                self.stamp_cell(name, threads);
            }
        }
        self
    }

    /// Adds the SynQuake cells (both test quests) at one thread count;
    /// duplicates are ignored.
    pub fn quake(&mut self, threads: usize) -> &mut Self {
        if !self.quake.contains(&threads) {
            self.quake.push(threads);
        }
        self
    }

    /// Adds the full SynQuake study at every configured thread count.
    pub fn quake_study(&mut self, cfg: &ExpConfig) -> &mut Self {
        for &threads in &cfg.threads_list {
            self.quake(threads);
        }
        self
    }

    /// Adds one serve (shape, arrival, threads) cell; duplicates are
    /// ignored.
    pub fn serve_cell(
        &mut self,
        shape: &'static str,
        arrival: &'static str,
        threads: usize,
    ) -> &mut Self {
        if !self.serve.contains(&(shape, arrival, threads)) {
            self.serve.push((shape, arrival, threads));
        }
        self
    }

    /// Adds the full serve study: every shape × arrival at every configured
    /// thread count.
    pub fn serve_study(&mut self, cfg: &ExpConfig) -> &mut Self {
        for shape in SERVE_SHAPES {
            for arrival in SERVE_ARRIVALS {
                for &threads in &cfg.threads_list {
                    self.serve_cell(shape, arrival, threads);
                }
            }
        }
        self
    }

    /// The planned STAMP cells, in insertion order.
    pub fn stamp_cells(&self) -> &[(&'static str, usize)] {
        &self.stamp
    }

    /// The planned SynQuake thread counts, in insertion order.
    pub fn quake_threads(&self) -> &[usize] {
        &self.quake
    }

    /// Whether the plan declares nothing.
    pub fn is_empty(&self) -> bool {
        self.stamp.is_empty() && self.quake.is_empty() && self.serve.is_empty()
    }
}

/// What [`Pipeline::resolve`] produces: both study halves, either possibly
/// empty depending on the plan.
#[derive(Debug, Default)]
pub struct StudyResult {
    /// The STAMP half (empty if the plan declared no stamp cells).
    pub stamp: StampStudy,
    /// The SynQuake half (empty if the plan declared no quake cells).
    pub quake: QuakeStudy,
    /// The serve (tail-latency) study (empty if no serve cells).
    pub serve: ServeStudy,
}

/// Canonical policy tag of an unguided (default-STM) run.
pub const TAG_DEFAULT: &str = "policy=default";

/// Canonical policy tag of a guided run: embeds the hold bound, the digest
/// of the automaton the run is guided by, and the `Tfactor` the runtime
/// model was compiled with (the same automaton compiles to different
/// policies under different Tfactors), so a changed model can never
/// satisfy a stale cached outcome.
pub fn guided_tag(trained: &TrainedModel, k: u32, tfactor: f64) -> String {
    format!("policy=guided;k={k};tfactor={tfactor};model={}", tsa_digest(&trained.tsa))
}

/// Resolves [`StudyPlan`]s through the cache and the worker pool.
pub struct Pipeline<'a> {
    cfg: &'a ExpConfig,
    progress: &'a dyn Progress,
    cache: Option<DiskCache>,
    jobs: usize,
    gauges: PipelineGauges,
    pool_busy: AtomicBool,
    models: Mutex<std::collections::BTreeMap<String, TrainedModel>>,
}

impl std::fmt::Debug for Pipeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("jobs", &self.jobs)
            .field("cache", &self.cache)
            .finish_non_exhaustive()
    }
}

impl<'a> Pipeline<'a> {
    /// A sequential, cacheless pipeline over `cfg`.
    pub fn new(cfg: &'a ExpConfig, progress: &'a dyn Progress) -> Self {
        Pipeline {
            cfg,
            progress,
            cache: None,
            jobs: 1,
            gauges: PipelineGauges::new(),
            pool_busy: AtomicBool::new(false),
            models: Mutex::new(std::collections::BTreeMap::new()),
        }
    }

    /// Attaches a content-addressed disk cache.
    pub fn with_cache(mut self, cache: DiskCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the worker-pool width (clamped to at least 1 = sequential).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The sweep configuration this pipeline resolves against.
    pub fn cfg(&self) -> &ExpConfig {
        self.cfg
    }

    /// The progress sink.
    pub fn progress(&self) -> &dyn Progress {
        self.progress
    }

    /// Cache-effectiveness and wall-clock gauges.
    pub fn gauges(&self) -> &PipelineGauges {
        &self.gauges
    }

    /// Runs `f(0..n)` and collects the results **by index** — the output
    /// is identical whatever the pool width. With `jobs > 1` the indexes
    /// fan out over a bounded pool of OS threads; nested calls (a cell
    /// fanning out its seeds while cells themselves are fanned out) detect
    /// the busy pool and run sequentially, bounding total threads to
    /// `jobs`.
    pub fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.jobs.min(n);
        if workers <= 1 || self.pool_busy.swap(true, Ordering::Acquire) {
            return (0..n).map(f).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(i);
                    *slots[i].lock().expect("result slot") = Some(value);
                });
            }
        });
        self.pool_busy.store(false, Ordering::Release);
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("slot lock").expect("every index was produced"))
            .collect()
    }

    /// Resolves a model key: in-process memo, then disk cache, then the
    /// supplied training closure (timed and counted as a miss).
    fn resolve_model(
        &self,
        key: &str,
        tfactor: f64,
        what: &str,
        train: impl FnOnce() -> TrainedModel,
    ) -> TrainedModel {
        if let Some(m) = self.models.lock().expect("model memo").get(key) {
            PipelineGauges::add(&self.gauges.model_hits, 1);
            return m.clone();
        }
        if let Some(cache) = &self.cache {
            if let Some(tsa) = cache.load_model(key) {
                PipelineGauges::add(&self.gauges.model_hits, 1);
                self.progress.report(&format!("{what}: model cache hit"));
                // Analysis and compilation are deterministic functions of
                // (tsa, tfactor), so a cached automaton reconstructs the
                // exact TrainedModel the training pass produced.
                let analysis = analyze(&tsa, tfactor);
                let model = Arc::new(GuidedModel::compile(tsa.clone(), tfactor));
                let trained = TrainedModel { tsa, analysis, model };
                self.models.lock().expect("model memo").insert(key.to_string(), trained.clone());
                return trained;
            }
        }
        PipelineGauges::add(&self.gauges.model_misses, 1);
        let t0 = Instant::now();
        let trained = train();
        PipelineGauges::add(&self.gauges.train_wall_ms, t0.elapsed().as_millis() as u64);
        if let Some(cache) = &self.cache {
            cache.store_model(key, &trained.tsa);
        }
        self.models.lock().expect("model memo").insert(key.to_string(), trained.clone());
        trained
    }

    /// The trained STAMP model for one (benchmark, threads), shared across
    /// every table/figure/ablation that needs it.
    pub fn trained_stamp(&self, name: &'static str, threads: usize) -> TrainedModel {
        self.trained_stamp_with(self.cfg, name, threads)
    }

    /// Like [`Pipeline::trained_stamp`] but against a modified sweep
    /// config (the Tfactor and training-size ablations).
    pub fn trained_stamp_with(
        &self,
        cfg: &ExpConfig,
        name: &'static str,
        threads: usize,
    ) -> TrainedModel {
        let key = format!(
            "model-v1;stamp:{name};train={};threads={threads};tfactor={};seeds={:?}",
            cfg.train_size, cfg.tfactor, cfg.train_seeds
        );
        self.resolve_model(&key, cfg.tfactor, &format!("{name}/{threads}t"), || {
            train_stamp(cfg, name, threads)
        })
    }

    /// The trained SynQuake model for one thread count (pooled over the
    /// paper's two training quests).
    pub fn trained_quake(&self, threads: usize) -> TrainedModel {
        let cfg = self.cfg;
        let key = format!(
            "model-v1;synquake;players={};frames={};threads={threads};tfactor={};seeds={:?}",
            cfg.synquake_players, cfg.synquake_frames.0, cfg.tfactor, cfg.train_seeds
        );
        self.resolve_model(&key, cfg.tfactor, &format!("synquake/{threads}t"), || {
            train_quake(cfg, threads)
        })
    }

    /// The trained serve model for one (spec, threads). The key embeds the
    /// spec's full cache key, so any change to the store shape or traffic
    /// retrains instead of reusing a stale automaton.
    pub fn trained_serve(
        &self,
        what: &str,
        spec: &gstm_serve::ServeSpec,
        threads: usize,
    ) -> TrainedModel {
        let cfg = self.cfg;
        let key = format!(
            "model-v1;serve:{};threads={threads};tfactor={};seeds={:?}",
            spec.cache_key(),
            cfg.tfactor,
            cfg.train_seeds
        );
        let spec = spec.clone();
        self.resolve_model(&key, cfg.tfactor, what, || train_serve(cfg, &spec, threads))
    }

    /// One measured run, resolved through the run cache. `wkey` names the
    /// workload + input configuration; `policy_tag` the admission policy
    /// (use [`TAG_DEFAULT`] / [`guided_tag`] or spell out any other
    /// variant). Runs that capture event logs bypass the cache.
    pub fn run_one(
        &self,
        wkey: &str,
        workload: &dyn Workload,
        policy_tag: &str,
        opts: &RunOptions,
    ) -> RunOutcome {
        let cacheable = !opts.capture_events;
        let key = format!(
            "run-v1;{wkey};threads={};seed={};jitter={};cm={:?};detection={:?};\
             resolution={:?};telemetry={};{policy_tag}",
            opts.threads,
            opts.seed,
            opts.jitter_pct,
            opts.cm,
            opts.detection,
            opts.resolution,
            opts.telemetry,
        );
        if let Some(cache) = &self.cache {
            if cacheable {
                if let Some(out) = cache.load_run(&key) {
                    PipelineGauges::add(&self.gauges.run_hits, 1);
                    return out;
                }
                PipelineGauges::add(&self.gauges.run_misses, 1);
            }
        }
        let out = gstm_guide::run_workload(workload, opts);
        if cacheable {
            if let Some(cache) = &self.cache {
                cache.store_run(&key, &out);
            }
        }
        out
    }

    /// Resolves a rendered text cell through the cache: a hit returns the
    /// stored body verbatim; a miss runs `render` and stores it. Counted
    /// in the run-cache gauges — a cell is a (deterministic) run from the
    /// cache's point of view. Only cells whose rendering is a pure
    /// function of the key may use this.
    pub fn cached_text(&self, key: &str, render: impl FnOnce() -> String) -> String {
        if let Some(cache) = &self.cache {
            if let Some(body) = cache.load_text(key) {
                PipelineGauges::add(&self.gauges.run_hits, 1);
                return body;
            }
            PipelineGauges::add(&self.gauges.run_misses, 1);
        }
        let body = render();
        if let Some(cache) = &self.cache {
            cache.store_text(key, &body);
        }
        body
    }

    /// One measured run per configured test seed (fanned out over the
    /// pool), each resolved through the run cache.
    pub fn measured_runs(
        &self,
        wkey: &str,
        workload: &dyn Workload,
        policy_tag: &str,
        opts_for_seed: impl Fn(u64) -> RunOptions + Sync,
    ) -> Vec<RunOutcome> {
        let seeds = &self.cfg.test_seeds;
        self.run_indexed(seeds.len(), |i| {
            self.run_one(wkey, workload, policy_tag, &opts_for_seed(seeds[i]))
        })
    }

    /// Resolves one STAMP cell: shared training pass, then default and
    /// guided runs over every test seed.
    pub fn stamp_cell(&self, name: &'static str, threads: usize) -> StampCell {
        let cfg = self.cfg;
        let t0 = Instant::now();
        self.progress.report(&format!(
            "{name}/{threads}t: training on {} ({} seeds)",
            cfg.train_size,
            cfg.train_seeds.len()
        ));
        let trained = self.trained_stamp(name, threads);
        let workload =
            benchmark(name, cfg.test_size).unwrap_or_else(|| panic!("unknown benchmark {name}"));
        let wkey = format!("stamp:{name}:{}", cfg.test_size);
        let measured = |opts: RunOptions| if cfg.telemetry { opts.with_telemetry() } else { opts };
        self.progress.report(&format!("{name}/{threads}t: default runs on {}", cfg.test_size));
        let default_runs = self.measured_runs(&wkey, workload.as_ref(), TAG_DEFAULT, |s| {
            measured(RunOptions::new(threads, s))
        });
        self.progress.report(&format!("{name}/{threads}t: guided runs on {}", cfg.test_size));
        let tag = guided_tag(&trained, DEFAULT_K, cfg.tfactor);
        let guided_runs = self.measured_runs(&wkey, workload.as_ref(), &tag, |s| {
            measured(
                RunOptions::new(threads, s)
                    .with_policy(PolicyChoice::guided(Arc::clone(&trained.model))),
            )
        });
        PipelineGauges::add(&self.gauges.cells, 1);
        PipelineGauges::add(&self.gauges.cell_wall_ms, t0.elapsed().as_millis() as u64);
        StampCell { name, threads, trained, default_runs, guided_runs }
    }

    /// Resolves one SynQuake cell (one test quest at one thread count).
    pub fn quake_cell(&self, quest: Quest, threads: usize) -> QuakeCell {
        let cfg = self.cfg;
        let t0 = Instant::now();
        let model = self.trained_quake(threads);
        let workload =
            SynQuake { players: cfg.synquake_players, frames: cfg.synquake_frames.1, quest };
        let wkey = format!(
            "synquake:{quest}:players={};frames={}",
            cfg.synquake_players, cfg.synquake_frames.1
        );
        self.progress.report(&format!("synquake/{threads}t: measuring {quest}"));
        let measured = |opts: RunOptions| if cfg.telemetry { opts.with_telemetry() } else { opts };
        let default_runs = self.measured_runs(&wkey, &workload, TAG_DEFAULT, |s| {
            measured(RunOptions::new(threads, s))
        });
        let tag = guided_tag(&model, DEFAULT_K, cfg.tfactor);
        let guided_runs = self.measured_runs(&wkey, &workload, &tag, |s| {
            measured(
                RunOptions::new(threads, s)
                    .with_policy(PolicyChoice::guided(Arc::clone(&model.model))),
            )
        });
        PipelineGauges::add(&self.gauges.cells, 1);
        PipelineGauges::add(&self.gauges.cell_wall_ms, t0.elapsed().as_millis() as u64);
        QuakeCell { quest, threads, default_runs, guided_runs }
    }

    /// Resolves one serve cell: shared training pass, then default and
    /// guided runs over every test seed.
    pub fn serve_cell(
        &self,
        shape: &'static str,
        arrival: &'static str,
        threads: usize,
    ) -> ServeCell {
        let cfg = self.cfg;
        let t0 = Instant::now();
        let what = format!("serve:{shape}/{arrival}/{threads}t");
        let spec = serve_spec(cfg, shape, arrival);
        self.progress.report(&format!("{what}: training ({} seeds)", cfg.train_seeds.len()));
        let trained = self.trained_serve(&what, &spec, threads);
        let workload = gstm_serve::ServeWorkload::new(spec.clone());
        let wkey = format!("serve:{shape}:{arrival}:{}", spec.cache_key());
        let measured = |opts: RunOptions| if cfg.telemetry { opts.with_telemetry() } else { opts };
        self.progress.report(&format!("{what}: default runs"));
        let default_runs = self.measured_runs(&wkey, &workload, TAG_DEFAULT, |s| {
            measured(RunOptions::new(threads, s))
        });
        self.progress.report(&format!("{what}: guided runs"));
        let tag = guided_tag(&trained, DEFAULT_K, cfg.tfactor);
        let guided_runs = self.measured_runs(&wkey, &workload, &tag, |s| {
            measured(
                RunOptions::new(threads, s)
                    .with_policy(PolicyChoice::guided(Arc::clone(&trained.model))),
            )
        });
        PipelineGauges::add(&self.gauges.cells, 1);
        PipelineGauges::add(&self.gauges.cell_wall_ms, t0.elapsed().as_millis() as u64);
        ServeCell { shape, arrival, threads, spec, default_runs, guided_runs }
    }

    /// Resolves a whole plan. Independent cells fan out over the pool; the
    /// result is assembled by key/index so it is identical whatever the
    /// pool width or cache state.
    pub fn resolve(&self, plan: &StudyPlan) -> StudyResult {
        let stamp_cells = self.run_indexed(plan.stamp.len(), |i| {
            let (name, threads) = plan.stamp[i];
            self.stamp_cell(name, threads)
        });
        let mut stamp = StampStudy::default();
        for cell in stamp_cells {
            stamp.cells.insert((cell.name.to_string(), cell.threads), cell);
        }

        // Train each SynQuake thread count up front (sequentially, so two
        // cells never race to train the same model), then fan the measured
        // cells out.
        let mut quake = QuakeStudy::default();
        for &threads in &plan.quake {
            self.progress.report(&format!(
                "synquake/{threads}t: training on {} + {} ({} seeds each)",
                Quest::training()[0],
                Quest::training()[1],
                self.cfg.train_seeds.len()
            ));
            quake.trained.insert(threads, self.trained_quake(threads));
        }
        let pairs: Vec<(Quest, usize)> = plan
            .quake
            .iter()
            .flat_map(|&t| Quest::testing().into_iter().map(move |q| (q, t)))
            .collect();
        quake.cells = self.run_indexed(pairs.len(), |i| self.quake_cell(pairs[i].0, pairs[i].1));

        let serve = ServeStudy {
            cells: self.run_indexed(plan.serve.len(), |i| {
                let (shape, arrival, threads) = plan.serve[i];
                self.serve_cell(shape, arrival, threads)
            }),
        };
        StudyResult { stamp, quake, serve }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::NoProgress;

    fn tiny_cfg() -> ExpConfig {
        let mut cfg = ExpConfig::fast();
        cfg.threads_list = vec![2];
        cfg.test_seeds = vec![1000, 1001];
        cfg.train_seeds = vec![1, 2];
        cfg.synquake_players = 40;
        cfg.synquake_frames = (2, 3);
        cfg
    }

    #[test]
    fn run_indexed_preserves_order_at_any_width() {
        let cfg = tiny_cfg();
        let sequential = Pipeline::new(&cfg, &NoProgress);
        let parallel = Pipeline::new(&cfg, &NoProgress).with_jobs(4);
        let f = |i: usize| i * i;
        assert_eq!(sequential.run_indexed(9, f), parallel.run_indexed(9, f));
        assert_eq!(parallel.run_indexed(0, f), Vec::<usize>::new());
        assert_eq!(parallel.run_indexed(1, f), vec![0]);
    }

    #[test]
    fn nested_fan_out_runs_sequentially() {
        let cfg = tiny_cfg();
        let pipe = Pipeline::new(&cfg, &NoProgress).with_jobs(3);
        // Outer fan-out marks the pool busy; the nested call must still
        // produce correct, ordered results (sequentially).
        let nested = pipe.run_indexed(3, |i| pipe.run_indexed(3, |j| i * 10 + j));
        assert_eq!(nested, vec![vec![0, 1, 2], vec![10, 11, 12], vec![20, 21, 22]]);
    }

    #[test]
    fn plan_dedups_and_counts() {
        let cfg = tiny_cfg();
        let mut plan = StudyPlan::new();
        plan.stamp_cell("kmeans", 2).stamp_cell("kmeans", 2).quake(2).quake(2);
        assert_eq!(plan.stamp_cells(), &[("kmeans", 2)]);
        assert_eq!(plan.quake_threads(), &[2]);
        let mut full = StudyPlan::new();
        full.stamp_study(&cfg, &["kmeans", "ssca2"]);
        assert_eq!(full.stamp_cells().len(), 2);
        assert!(!full.is_empty());
        assert!(StudyPlan::new().is_empty());
    }

    #[test]
    fn guided_tag_tracks_model_content() {
        let a = crate::study::synthetic_trained(2);
        let b = crate::study::synthetic_trained(3);
        assert_ne!(guided_tag(&a, 16, 4.0), guided_tag(&b, 16, 4.0));
        assert_ne!(guided_tag(&a, 16, 4.0), guided_tag(&a, 64, 4.0));
        assert_ne!(guided_tag(&a, 16, 4.0), guided_tag(&a, 16, 2.0));
    }

    #[test]
    fn model_memo_shares_one_training_pass() {
        let cfg = tiny_cfg();
        let pipe = Pipeline::new(&cfg, &NoProgress);
        let first = pipe.trained_stamp("kmeans", 2);
        let again = pipe.trained_stamp("kmeans", 2);
        assert_eq!(
            gstm_model::serialize::to_bytes(&first.tsa),
            gstm_model::serialize::to_bytes(&again.tsa)
        );
        assert_eq!(pipe.gauges().model_misses.load(Ordering::Relaxed), 1);
        assert_eq!(pipe.gauges().model_hits.load(Ordering::Relaxed), 1);
    }
}
