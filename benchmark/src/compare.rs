//! `bench_e2e compare A.json B.json`: do two sets of runs agree within
//! the benchmark's own bounds? The rule is the driver's: per metric and
//! workload, the spread of each set (interquartile range over median)
//! must stay within the bound, and B's median must not be worse than
//! A's by more than the bound. `setup_s` is held to the second rule only.

use crate::api::Json;
use crate::json::{as_array, as_f64};
use crate::median;

/// Python's `statistics.quantiles(values, n=4)`: first and third quartile.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    let at = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

struct Set {
    runs: Vec<Json>,
}

impl Set {
    fn load(path: &str) -> Result<Set, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let runs = as_array(json.get("runs").ok_or(format!("{path}: no runs"))?).to_vec();
        Ok(Set { runs })
    }

    fn of<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a Json> {
        self.runs
            .iter()
            .filter(move |r| r.get("workload").and_then(Json::as_str) == Some(workload))
    }

    /// Median and spread of one metric on one workload.
    fn summary(&self, workload: &str, metric: &str) -> Option<Summary> {
        let mut values: Vec<f64> = self
            .of(workload)
            .filter_map(|r| r.get("metrics")?.get(metric).and_then(as_f64))
            .collect();
        if values.is_empty() {
            return None;
        }
        // `median` leaves the values sorted.
        let median = median(&mut values);
        let spread = (values.len() >= 2).then(|| {
            let (q1, q3) = quartiles(&values);
            (q3 - q1) / median
        });
        Some(Summary {
            n: values.len(),
            median,
            spread,
        })
    }

    fn failed(&self, workload: &str) -> f64 {
        self.of(workload)
            .filter_map(|r| r.get("failed").and_then(as_f64))
            .sum()
    }
}

struct Summary {
    n: usize,
    median: f64,
    /// Interquartile range as a share of the median; needs two values.
    spread: Option<f64>,
}

pub fn command(files: &[String], manifest: &Json) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("usage: bench_e2e compare A.json B.json".into());
    };
    let (a, b) = (Set::load(a)?, Set::load(b)?);
    let mut ok = true;
    println!(
        "{:<18} {:<12} {:>4} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "n",
        "median A",
        "median B",
        "B vs A",
        "spread A",
        "spread B",
        "bound"
    );
    for workload in as_array(manifest.get("workloads").unwrap_or(&Json::Null)) {
        let workload = workload
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default();
        for metric in as_array(manifest.get("end_to_end").unwrap_or(&Json::Null)) {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default();
            let bound = metric.get("bound").and_then(as_f64).unwrap_or(0.0);
            let lower = metric.get("better").and_then(Json::as_str) != Some("higher");
            let (Some(sa), Some(sb)) = (a.summary(workload, name), b.summary(workload, name))
            else {
                println!("{workload:<18} {name:<12} missing from a set  FAIL");
                ok = false;
                continue;
            };
            let (ma, mb) = (sa.median, sb.median);
            // Positive when B is worse than A.
            let worse = if lower { mb / ma - 1.0 } else { 1.0 - mb / ma };
            let spreads = [sa.spread, sb.spread];
            let steady = name == "setup_s" || spreads.iter().flatten().all(|s| *s <= bound);
            let pass = worse <= bound && steady;
            ok &= pass;
            let show = |s: Option<f64>| s.map_or("-".into(), |s| format!("{:.2}%", s * 100.0));
            println!(
                "{workload:<18} {name:<12} {:>4} {ma:>12.4} {mb:>12.4} {:>+7.2}% {:>8} {:>8} {:>5.0}%  {}",
                sa.n.min(sb.n),
                worse * 100.0,
                show(spreads[0]),
                show(spreads[1]),
                bound * 100.0,
                if pass { "pass" } else { "FAIL" },
            );
        }
        let wrong = a.failed(workload) + b.failed(workload);
        if wrong > 0.0 {
            println!("{workload:<18} {wrong} wrong verdicts  FAIL");
            ok = false;
        }
    }
    println!(
        "{}",
        if ok {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    Ok(ok)
}
