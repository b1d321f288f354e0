//! What a pass hands back, and how it is printed.

use serde_json::{json, Value};

/// One measured quantity.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (statements, spans or repetitions).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// The outcome of one pass over one workload.
pub struct Report {
    /// The metrics `BENCHMARK.json` names for this kind of pass.
    pub metrics: Vec<Metric>,
    /// Printed for people, not part of the result object.
    pub extra: Vec<Metric>,
    /// Remarks, printed as `# …` lines.
    pub notes: Vec<String>,
    /// Result checks made, and failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// One `workload metric value unit n=<samples>` line per metric, then
    /// the result object as the last line.
    pub fn print(&self, workload: &str) {
        for note in &self.notes {
            println!("# {workload} {note}");
        }
        for m in self.metrics.iter().chain(&self.extra) {
            println!(
                "{workload} {} {} {} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let correct = self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite());
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
            .collect();
        println!(
            "{}",
            json!({
                "correct": correct,
                "attempted": self.attempted.max(1),
                "failed": self.failed,
                "metrics": Value::Object(metrics),
            })
        );
    }
}
