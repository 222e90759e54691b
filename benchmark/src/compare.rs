//! `compare A.json B.json`: per (workload, end-to-end metric), how far B is
//! from A, against the bound `BENCHMARK.json` fixes for that metric.

use gstm_telemetry::JsonValue;

/// What `BENCHMARK.json` says about one end-to-end metric.
struct Rule {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn rules(benchmark_json: &JsonValue) -> Result<Vec<Rule>, String> {
    let JsonValue::Arr(items) = benchmark_json.get("end_to_end").ok_or("no end_to_end list")?
    else {
        return Err("end_to_end is not a list".into());
    };
    items
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(JsonValue::as_str).ok_or(format!("no {k}"));
            Ok(Rule {
                name: text("name")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(JsonValue::as_f64).ok_or("no bound")?,
            })
        })
        .collect()
}

/// One metric of one report: its value and, when it came from slices, their
/// first and third quartiles.
struct Reading {
    value: f64,
    q1: f64,
    q3: f64,
}

fn reading(report: &JsonValue, workload: &str, metric: &str) -> Option<Reading> {
    let m = report.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let quartile = |k: &str| m.get(k).and_then(JsonValue::as_f64).unwrap_or(value);
    Some(Reading { value, q1: quartile("q1"), q3: quartile("q3") })
}

/// How one (workload, metric) pair compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A.
    Within,
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound and the slice quartiles
    /// separate them.
    Regression,
    /// B differs from A by more than the bound, but the two runs' slice
    /// quartile ranges overlap by more than the bound: noise, not a result.
    Unresolved,
}

/// `worse` is B's relative change in the metric's bad direction.
fn verdict(a: &Reading, b: &Reading, worse: f64, bound: f64) -> Verdict {
    if worse.abs() <= bound {
        return Verdict::Within;
    }
    let overlap = (a.q3.min(b.q3) - a.q1.max(b.q1)).max(0.0);
    if overlap > bound * a.value.abs() {
        Verdict::Unresolved
    } else if worse > 0.0 {
        Verdict::Regression
    } else {
        Verdict::Better
    }
}

/// Prints the comparison; returns whether any pair regressed.
///
/// # Errors
///
/// Returns a message when a document lacks what the comparison needs.
pub fn compare(a: &JsonValue, b: &JsonValue, benchmark_json: &JsonValue) -> Result<bool, String> {
    let workloads = a
        .get("workloads")
        .and_then(JsonValue::as_obj)
        .ok_or("the first report has no workloads")?;
    let rules = rules(benchmark_json)?;
    let mut regressed = false;
    println!(
        "{:<14} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (workload, _) in workloads {
        for rule in &rules {
            let (Some(ra), Some(rb)) =
                (reading(a, workload, &rule.name), reading(b, workload, &rule.name))
            else {
                continue;
            };
            if ra.value == 0.0 {
                return Err(format!("{workload}/{}: the first report reads 0", rule.name));
            }
            let change = (rb.value - ra.value) / ra.value.abs();
            let worse = if rule.higher_is_better { -change } else { change };
            let v = verdict(&ra, &rb, worse, rule.bound);
            regressed |= v == Verdict::Regression;
            println!(
                "{:<14} {:<22} {:>16.6} {:>16.6} {:>8.2}% {:>6.1}%  {}",
                workload,
                rule.name,
                ra.value,
                rb.value,
                100.0 * worse,
                100.0 * rule.bound,
                match v {
                    Verdict::Within => "within bound",
                    Verdict::Better => "better",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, q1: f64, q3: f64) -> Reading {
        Reading { value, q1, q3 }
    }

    #[test]
    fn verdicts_follow_bound_and_quartile_overlap() {
        let a = r(100.0, 100.0, 120.0);
        // 5 % worse against a 10 % bound.
        assert_eq!(verdict(&a, &r(105.0, 105.0, 125.0), 0.05, 0.10), Verdict::Within);
        // 30 % worse, quartile ranges apart.
        assert_eq!(verdict(&a, &r(130.0, 130.0, 150.0), 0.30, 0.10), Verdict::Regression);
        // 30 % better, ranges apart.
        assert_eq!(verdict(&a, &r(70.0, 70.0, 90.0), -0.30, 0.10), Verdict::Better);
        // 15 % worse, but the ranges share 15 of A's 100: more than the bound.
        assert_eq!(verdict(&a, &r(115.0, 105.0, 140.0), 0.15, 0.10), Verdict::Unresolved);
        // An exact count has a point range: any move past the bound resolves.
        assert_eq!(
            verdict(&r(50.0, 50.0, 50.0), &r(52.0, 52.0, 52.0), 0.04, 0.01),
            Verdict::Regression
        );
    }

    #[test]
    fn compare_reads_reports_and_rules() {
        let report = |p50: f64| {
            JsonValue::parse(&format!(
                r#"{{"workloads": {{"serve_hot": {{"end_to_end": {{
                    "p50_us": {{"value": {p50}, "unit": "us", "q1": {p50}, "q3": {}}},
                    "sat_req_per_s": {{"value": 600000, "unit": "1/s"}}}}}}}}}}"#,
                p50 * 1.05
            ))
            .unwrap()
        };
        let rules = JsonValue::parse(
            r#"{"end_to_end": [
                {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1},
                {"name": "sat_req_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(compare(&report(1.8), &report(1.85), &rules), Ok(false));
        assert_eq!(compare(&report(1.8), &report(2.4), &rules), Ok(true));
        assert_eq!(compare(&report(2.4), &report(1.8), &rules), Ok(false));
    }
}
