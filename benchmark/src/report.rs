//! What a workload run reports, and how it is printed: a table for people,
//! a JSON document for `compare`, and the one-line result the driver reads.

use gstm_telemetry::JsonValue;

use crate::metrics;
use crate::stats::Quartiles;

/// One named number with its unit.
///
/// A timing measured once per slice is reported as its **quiet quartile**
/// across slices — the first quartile of a latency, the third of a rate —
/// and carries all three quartiles. On a shared host a quarter or more of
/// the slices contain a scheduler stall, and noise only ever makes a slice
/// slower, so the quiet quartile is the figure the host moves least; a
/// slower program still moves it, because it slows every slice.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub quartiles: Option<Quartiles>,
}

impl Metric {
    /// A count or a pooled figure: one value, no spread.
    pub fn exact(name: &'static str, value: f64) -> Self {
        Metric { name, unit: metrics::unit(name), value, quartiles: None }
    }

    /// A lower-is-better timing across slices: its first quartile.
    pub fn quiet_low(name: &'static str, q: Quartiles) -> Self {
        Metric { name, unit: metrics::unit(name), value: q.q1, quartiles: Some(q) }
    }

    /// A higher-is-better rate across slices: its third quartile.
    pub fn quiet_high(name: &'static str, q: Quartiles) -> Self {
        Metric { name, unit: metrics::unit(name), value: q.q3, quartiles: Some(q) }
    }

    /// `{value, unit}`, plus the quartiles when `full`.
    fn to_json(&self, full: bool) -> JsonValue {
        let mut fields = vec![
            ("value".to_string(), JsonValue::Num(self.value)),
            ("unit".to_string(), JsonValue::Str(self.unit.into())),
        ];
        if let Some(q) = self.quartiles.filter(|_| full) {
            fields.push(("q1".into(), JsonValue::Num(q.q1)));
            fields.push(("median".into(), JsonValue::Num(q.median)));
            fields.push(("q3".into(), JsonValue::Num(q.q3)));
            fields.push(("n".into(), JsonValue::Num(q.n as f64)));
        }
        JsonValue::obj(fields)
    }
}

/// Every per-layer metric of the catalogue, in its order: the measured
/// value where `measured` has one, 0 where the layer did no work.
///
/// # Panics
///
/// Panics if `measured` names a metric the catalogue lacks.
pub fn per_layer(measured: &[(&'static str, f64)]) -> Vec<Metric> {
    for (name, _) in measured {
        metrics::unit(name);
    }
    metrics::PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = measured.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
            Metric::exact(name, value)
        })
        .collect()
}

fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>, full: bool) -> JsonValue {
    JsonValue::obj(metrics.map(|m| (m.name.to_string(), m.to_json(full))).collect())
}

/// Everything one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct WorkloadReport {
    pub name: &'static str,
    /// Operations whose outcome was checked / that failed the check or
    /// were refused.
    pub attempted: u64,
    pub failed: u64,
    /// Verification failures, in words. Any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Present after an untraced run.
    pub end_to_end: Vec<Metric>,
    /// Present after a traced run.
    pub per_layer: Vec<Metric>,
    /// Offered / done / shed of every phase, and other detail.
    pub detail: Vec<(String, JsonValue)>,
    /// Facts a reader needs beside the numbers (flush policy, time base).
    pub notes: Vec<&'static str>,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("correct".into(), JsonValue::Bool(self.correct())),
            ("attempted".into(), JsonValue::Num(self.attempted as f64)),
            ("failed".into(), JsonValue::Num(self.failed as f64)),
            (
                "errors".into(),
                JsonValue::Arr(self.errors.iter().cloned().map(JsonValue::Str).collect()),
            ),
            (
                "notes".into(),
                JsonValue::Arr(self.notes.iter().map(|n| JsonValue::Str(n.to_string())).collect()),
            ),
            ("end_to_end".into(), metrics_json(self.end_to_end.iter(), true)),
            ("per_layer".into(), metrics_json(self.per_layer.iter(), true)),
            ("detail".into(), JsonValue::obj(self.detail.clone())),
        ])
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding whichever metric sets were measured.
    pub fn result_line(&self) -> String {
        let metrics = metrics_json(self.end_to_end.iter().chain(&self.per_layer), false);
        JsonValue::obj(vec![
            ("correct".into(), JsonValue::Bool(self.correct())),
            ("attempted".into(), JsonValue::Num(self.attempted.max(1) as f64)),
            ("failed".into(), JsonValue::Num(self.failed as f64)),
            ("metrics".into(), metrics),
        ])
        .render()
    }

    /// Every metric by name with its unit, then phases, notes and errors.
    pub fn print(&self) {
        println!("== {} ==", self.name);
        for (title, metrics) in
            [("end-to-end (untraced)", &self.end_to_end), ("per-layer (traced)", &self.per_layer)]
        {
            if metrics.is_empty() {
                continue;
            }
            println!("  {title}:");
            for m in metrics {
                let spread = match m.quartiles {
                    Some(q) => format!(
                        "  [q1 {:.6} median {:.6} q3 {:.6} over {} samples]",
                        q.q1, q.median, q.q3, q.n
                    ),
                    None => String::new(),
                };
                println!("    {:<46} {:>16.6} {}{spread}", m.name, m.value, m.unit);
            }
        }
        for (key, value) in &self.detail {
            println!("  {key}: {}", value.render());
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
        for error in &self.errors {
            println!("  VERIFICATION FAILED: {error}");
        }
        println!(
            "  correct {}  attempted {}  failed {}",
            self.correct(),
            self.attempted,
            self.failed
        );
    }
}
