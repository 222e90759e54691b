//! The `serve-adaptive` subcommand: online adaptive guidance under
//! non-stationary traffic (DESIGN.md §6g).
//!
//! The study serves a *drifting* variant of the store shape — the Zipf
//! exponent sharpens from mild skew into the hot shape and the hotspot
//! migrates across the keyspace as the run progresses — while the guided
//! model is trained on the **stationary, pre-drift** shape. The contention
//! (and the abort patterns it produces) arrives mid-run, after training
//! ended: the static model is progressively stale by construction, which
//! is exactly the failure the online loop exists to repair. Three arms
//! over the same seeds and byte-identical offered load:
//!
//! * `default` — unguided admission;
//! * `guided-static` — the stale model, served as-is for the whole run;
//! * `guided-adaptive` — the same stale model behind the hot-swap handle,
//!   with windowed ingestion, the incremental trainer, and the §IV gate
//!   deciding what ships.
//!
//! The comparison metric is the serve study's: cross-seed p99 sojourn CoV
//! (execution variance of the tail), priced in throughput. A negative gate
//! row — a deliberately near-uniform candidate fed to the analyzer —
//! documents that the gate rejects models with no bias to exploit rather
//! than shipping them.

use std::sync::Arc;

use gstm_guide::{
    PolicyChoice, RunOptions, RunOutcome, ADAPTIVE_MAX_UNKNOWN_PCT, ADAPTIVE_WINDOW, DEFAULT_K,
};
use gstm_model::analyzer::{DEFAULT_METRIC_CUTOFF, DEFAULT_MIN_STATES};
use gstm_model::serialize::tsa_digest;
use gstm_model::{analyze, TsaBuilder, Tts};
use gstm_serve::{Drift, ServeSpec, ServeWorkload};
use gstm_stats::{percent_change, TextTable};

use crate::pipeline::{guided_tag, Pipeline, TAG_DEFAULT};
use crate::servecmd::{latency_row, stat_cov_pct, throughput, LATENCY_COLUMNS};

/// The Zipf exponent the run *starts* at (and the static model trains
/// on): mild skew, little contention, few abort-carrying states for a
/// model to learn.
const STUDY_THETA_START: f64 = 0.4;

/// The drift the study applies: the skew sharpens from the mild
/// [`STUDY_THETA_START`] up to the hot shape's 0.99 while the hotspot
/// migrates across the keyspace — the contention the static model never
/// saw during training arrives mid-run, which is exactly the staleness
/// the online loop exists to repair.
const STUDY_DRIFT: Drift = Drift { theta_end: 0.99, phases: 4, hotspot_step: 8 };

/// The drifting spec the three arms serve, scaled by the config's
/// `serve_requests`: starts mild ([`STUDY_THETA_START`]) and sharpens
/// into the hot shape per [`STUDY_DRIFT`].
fn adaptive_spec(cfg: &crate::config::ExpConfig) -> ServeSpec {
    let mut spec = ServeSpec::hot(cfg.serve_requests).with_drift(STUDY_DRIFT);
    spec.zipf_theta = STUDY_THETA_START;
    spec
}

/// The stationary spec the static model trains on — the pre-drift world
/// the model believes in (mild skew, before the contention arrives).
fn training_spec(cfg: &crate::config::ExpConfig) -> ServeSpec {
    let mut spec = ServeSpec::hot(cfg.serve_requests);
    spec.zipf_theta = STUDY_THETA_START;
    spec
}

/// Policy tag of a guided-adaptive run: embeds the starting model's digest
/// and every constant of the online loop, so a changed loop can never
/// satisfy a stale cached outcome. `decay=100;…;ratchet=true` name the
/// undecayed merge and the no-regression rule, as the tag always has.
fn adaptive_tag(digest: &str, tfactor: f64) -> String {
    format!(
        "policy=guided-adaptive;k={DEFAULT_K};tfactor={tfactor};window={ADAPTIVE_WINDOW};\
         maxunk={ADAPTIVE_MAX_UNKNOWN_PCT};decay=100;cutoff={DEFAULT_METRIC_CUTOFF};\
         minstates={DEFAULT_MIN_STATES};ratchet=true;model={digest}"
    )
}

/// Sums an adaptive telemetry gauge over a run set (0 for runs without
/// telemetry — the default and static arms).
fn gauge_sum(runs: &[RunOutcome], name: &str) -> u64 {
    runs.iter().filter_map(|r| r.telemetry.as_ref()).filter_map(|snap| snap.gauge_value(name)).sum()
}

/// A deliberately near-uniform automaton: plenty of states, every
/// destination equally likely, no abort-carrying tuples. The §IV analyzer
/// must refuse to ship it — there is no bias to exploit.
fn uniform_candidate() -> gstm_model::Tsa {
    use gstm_core::{Participant, ThreadId, TxId};
    let p = |t: u16| Participant::new(ThreadId::new(t), TxId::new(0));
    let mut b = TsaBuilder::new();
    let n: u16 = 20;
    // From every state, one observation of every successor: a flat fan.
    for from in 0..n {
        for to in 0..n {
            b.add_transition(&Tts::solo(p(from)), &Tts::solo(p(to)), 1);
        }
    }
    b.build()
}

/// Runs the adaptive study and renders its report. The second element is
/// every arm's runs (the adaptive loop gauges ride in their telemetry), for
/// the CLI's `--metrics` snapshot.
pub fn serve_adaptive_report(pipe: &Pipeline<'_>) -> (String, Vec<RunOutcome>) {
    let cfg = pipe.cfg();
    let threads = cfg.threads_list[0];
    let spec = adaptive_spec(cfg);
    let stationary = training_spec(cfg);

    pipe.progress().report(&format!(
        "serve-adaptive: training static model on the stationary shape ({} seeds)",
        cfg.train_seeds.len()
    ));
    let trained = pipe.trained_serve("serve-adaptive/static-train", &stationary, threads);
    let digest = tsa_digest(&trained.tsa);

    let workload = ServeWorkload::new(spec.clone());
    let wkey = format!("serve-adaptive:{}", spec.cache_key());
    // Telemetry rides on every arm so the adaptive gauges are readable
    // from cached runs and all arms share one RunOptions shape.
    let measured = |opts: RunOptions| opts.with_telemetry();

    pipe.progress().report("serve-adaptive: default runs");
    let default_runs = pipe
        .measured_runs(&wkey, &workload, TAG_DEFAULT, |s| measured(RunOptions::new(threads, s)));
    pipe.progress().report("serve-adaptive: guided-static runs");
    let static_tag = guided_tag(&trained, DEFAULT_K, cfg.tfactor);
    let static_runs = pipe.measured_runs(&wkey, &workload, &static_tag, |s| {
        measured(
            RunOptions::new(threads, s)
                .with_policy(PolicyChoice::guided(Arc::clone(&trained.model))),
        )
    });
    pipe.progress().report("serve-adaptive: guided-adaptive runs");
    let adapt_tag = adaptive_tag(&digest, cfg.tfactor);
    let adaptive_runs = pipe.measured_runs(&wkey, &workload, &adapt_tag, |s| {
        measured(
            RunOptions::new(threads, s)
                .with_policy(PolicyChoice::AdaptiveOnline { model: Arc::clone(&trained.model) }),
        )
    });

    let mut out = format!(
        "== Serve-adaptive: online retraining under drifting traffic \
         ({} seeds, {threads} threads) ==\n\
         drift: theta {} -> {} over {} phases, hotspot step {} keys/phase\n\
         static model: trained on the stationary shape ({} states), \
         stale by construction once drift begins\n\n",
        cfg.test_seeds.len(),
        spec.zipf_theta,
        STUDY_DRIFT.theta_end,
        STUDY_DRIFT.phases,
        STUDY_DRIFT.hotspot_step,
        trained.tsa.state_count(),
    );
    let mut t = TextTable::new(
        std::iter::once("policy").chain(LATENCY_COLUMNS).map(String::from).collect(),
    );
    for (policy, runs) in [
        ("default", &default_runs),
        ("guided-static", &static_runs),
        ("guided-adaptive", &adaptive_runs),
    ] {
        t.row(std::iter::once(policy.to_string()).chain(latency_row(runs)).collect());
    }
    t.render_to(&mut out).expect("writing to a String cannot fail");

    let attempts = gauge_sum(&adaptive_runs, "gstm_guide_retrain_attempts_total");
    let installs = gauge_sum(&adaptive_runs, "gstm_guide_model_installs_total");
    let rejects = gauge_sum(&adaptive_runs, "gstm_guide_model_rejects_total");
    let stand_downs = gauge_sum(&adaptive_runs, "gstm_guide_stand_downs_total");
    let dropped = gauge_sum(&adaptive_runs, "gstm_guide_ingest_dropped_total");
    out.push_str(&format!(
        "\nadaptive loop over {} runs: {attempts} retrain attempts, \
         {installs} installs, {rejects} gate rejects, \
         {stand_downs} stand-downs, {dropped} dropped windows\n",
        adaptive_runs.len(),
    ));

    let cov_s = stat_cov_pct(&static_runs, "sojourn_p99");
    let cov_a = stat_cov_pct(&adaptive_runs, "sojourn_p99");
    let thru_delta = percent_change(throughput(&static_runs), throughput(&adaptive_runs));
    out.push_str(&format!(
        "adaptive vs static: p99 spread {cov_a:.1}% vs {cov_s:.1}% ({:+.1} pp), \
         throughput {thru_delta:+.1}%\n",
        cov_a - cov_s,
    ));

    // Negative gate row: the §IV analyzer must refuse a model whose
    // transitions carry no bias — shipping it would trade holds for
    // nothing. This is the same call `AdaptivePolicy`'s retrain step makes.
    let verdict = analyze(&uniform_candidate(), cfg.tfactor);
    assert!(
        !verdict.verdict.is_fit(),
        "the gate must reject a near-uniform candidate, got: {verdict}"
    );
    out.push_str(&format!("gate negative control: near-uniform candidate -> {verdict}\n"));
    (out, [default_runs, static_runs, adaptive_runs].concat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExpConfig;

    #[test]
    fn adaptive_spec_drifts_and_training_spec_does_not() {
        let cfg = ExpConfig::tiny();
        let drifting = adaptive_spec(&cfg);
        assert_eq!(drifting.drift, Some(STUDY_DRIFT));
        assert!(training_spec(&cfg).drift.is_none(), "the static model trains pre-drift");
        assert_ne!(drifting.cache_key(), training_spec(&cfg).cache_key());
    }

    #[test]
    fn adaptive_tag_is_pinned() {
        assert_eq!(
            adaptive_tag("abc", 4.0),
            "policy=guided-adaptive;k=16;tfactor=4;window=128;maxunk=60;decay=100;cutoff=50;\
             minstates=16;ratchet=true;model=abc",
            "a changed tag orphans every cached guided-adaptive run"
        );
    }

    #[test]
    fn adaptive_online_sim_run_is_reproducible() {
        use gstm_guide::run_workload;
        use gstm_model::GuidedModel;
        let cfg = ExpConfig::tiny();
        let spec = adaptive_spec(&cfg);
        let workload = ServeWorkload::new(spec);
        // A small starting model; what matters is that the whole loop
        // (ingest, retrain, gate) replays identically.
        let model = Arc::new(GuidedModel::compile(uniform_candidate(), cfg.tfactor));
        let run = || {
            let opts = gstm_guide::RunOptions::new(2, 7)
                .with_policy(PolicyChoice::AdaptiveOnline { model: Arc::clone(&model) })
                .with_telemetry();
            run_workload(&workload, &opts)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.workload_stats, b.workload_stats);
        assert_eq!(a.total_commits(), b.total_commits());
        assert_eq!(a.total_aborts(), b.total_aborts());
        let gauge = |o: &RunOutcome, n: &str| {
            o.telemetry.as_ref().and_then(|s| s.gauge_value(n)).unwrap_or_default()
        };
        assert!(gauge(&a, "gstm_guide_retrain_attempts_total") > 0, "the loop must retrain");
        for g in [
            "gstm_guide_retrain_attempts_total",
            "gstm_guide_model_installs_total",
            "gstm_guide_model_rejects_total",
        ] {
            assert_eq!(gauge(&a, g), gauge(&b, g), "{g} must replay identically");
        }
    }

    #[test]
    fn gate_negative_control_is_rejected() {
        let verdict = analyze(&uniform_candidate(), 4.0);
        assert!(!verdict.verdict.is_fit(), "uniform candidate must be unfit: {verdict}");
    }
}
