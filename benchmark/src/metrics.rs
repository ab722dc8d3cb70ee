//! The catalogue: every metric the benchmark emits, with unit, direction
//! and — for the end-to-end ones — the regression bound. It is written
//! once, in `BENCHMARK.json`, and read from there.

use crate::json::{number, quote, Json};
use std::collections::BTreeMap;
use wsrc_cache::{KeyStrategy, ValueRepresentation};

/// The contract with the driver, compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The first of the isolated-call metrics, which close the `per_layer`
/// list: they do not depend on the workload.
const FIRST_ISOLATED: &str = "xml.read_sequence_us";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse;
    /// only end-to-end metrics are bounded.
    pub bound: Option<f64>,
}

/// The metrics `BENCHMARK.json` lists under `section`, in its order.
///
/// # Panics
///
/// When the compiled-in file is not the contract's shape: it is part of
/// the benchmark's source.
fn listed(section: &str) -> Vec<Metric> {
    let json = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let text = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a metric of {section} has no {key}"))
            .to_string()
    };
    json.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: match text(m, "better").as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => panic!("BENCHMARK.json: better is {other}"),
            },
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// The end-to-end metrics, the same on every workload.
pub fn end_to_end() -> Vec<Metric> {
    listed("end_to_end")
}

/// The per-layer metrics in report order: counts of the run, self times
/// of the traced pass, isolated calls.
pub fn per_layer() -> Vec<Metric> {
    listed("per_layer")
}

/// The isolated-call metrics.
pub fn isolated() -> Vec<Metric> {
    let mut all = per_layer();
    let at = all
        .iter()
        .position(|m| m.name == FIRST_ISOLATED)
        .expect("BENCHMARK.json lists the isolated calls");
    all.split_off(at)
}

pub fn keygen_metric(strategy: KeyStrategy) -> String {
    format!("core.keygen_us.{}", strategy.metric_label())
}

pub fn repr_metric(what: &str, repr: ValueRepresentation) -> String {
    format!("core.{what}.{}", repr.metric_label())
}

/// Measured values by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Values) {
        self.0.extend(other.0);
    }

    #[cfg(test)]
    pub fn names(&self) -> Vec<&str> {
        self.0.keys().map(String::as_str).collect()
    }
}

/// What one run reports: the contract's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    /// The result line: exactly the metrics of `catalogue`, each with
    /// its unit.
    ///
    /// # Panics
    ///
    /// When a catalogued metric was not measured — a bug in the
    /// benchmark, not a property of the program under test.
    pub fn to_json(&self, catalogue: &[Metric]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|m| {
                let v = self
                    .values
                    .get(&m.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    number(v),
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn benchmark_json_lists_the_workloads() {
        let j = Json::parse(BENCHMARK_JSON).unwrap();
        let workloads: Vec<(&str, &str)> = j
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let specs: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, specs);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        let mut seen = std::collections::HashSet::new();
        for m in &all {
            assert!(seen.insert(m.name.clone()), "{} is listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn the_result_line_is_the_contract_s() {
        let mut values = Values::default();
        for (i, m) in end_to_end().iter().enumerate() {
            values.set(m.name.clone(), 1.5 + i as f64);
        }
        let line = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            values,
        }
        .to_json(&end_to_end());
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).unwrap();
        let keys: Vec<&str> = j.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = j.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), end_to_end().len());
        assert_eq!(
            metrics["setup_s"].get("unit").and_then(Json::as_str),
            Some("s")
        );
        assert_eq!(
            metrics[&end_to_end()[1].name]
                .get("value")
                .and_then(Json::as_f64),
            Some(2.5)
        );
    }
}
