//! What one run reports: metrics with units, the operation tally, and the
//! final one-line JSON result.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a single reading or a
    /// count).
    pub samples: usize,
}

impl Metric {
    /// `"name": {"value": .., "unit": ..}`, as the result line and the
    /// span file carry it.
    pub fn json_entry(&self) -> String {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&self.name),
            json_num(self.value),
            json_str(self.unit)
        )
    }
}

/// Everything a run found: metrics, operations attempted and failed, and
/// free-form provenance notes for the run record.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    /// Count one attempted operation; a failed check counts it as failed
    /// and keeps the first few messages for the run record.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
        ok
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            eprintln!("perfbench: FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn merge_ops(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for msg in other.failures {
            if self.failures.len() < 20 {
                self.failures.push(msg);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The contract line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let entries: Vec<String> = self.metrics.iter().map(Metric::json_entry).collect();
        s.push_str(&entries.join(", "));
        s.push_str("}}");
        s
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting keeps; non-finite readings (which only a broken clock could
/// produce) are reported as -1 so the line stays valid JSON.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1.0".to_owned()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
