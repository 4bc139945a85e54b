//! The benchmark's own spans: one around each call it makes into a layer
//! of the program, kept in memory and written out as a Chrome trace when
//! the traced run ends. Per-layer timings are read from these spans, so
//! the span file and the reported metrics are one data source.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::report::{json_num, json_str, Metric};

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Recording thread (a small dense id chosen by the caller).
    pub tid: u64,
}

/// Spans of one thread, all measured from a shared epoch.
pub struct SpanLog {
    epoch: Instant,
    tid: u64,
    open: Vec<(usize, Instant)>,
    pub spans: Vec<SpanRec>,
}

impl SpanLog {
    pub fn new(epoch: Instant, tid: u64) -> SpanLog {
        SpanLog {
            epoch,
            tid,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Open a span nested under the innermost open one; close it with
    /// [`SpanLog::exit`] in LIFO order.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start_ns: now.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: 0,
            parent: self.open.last().map(|&(i, _)| i),
            tid: self.tid,
        });
        self.open.push((idx, now));
        idx
    }

    pub fn exit(&mut self, idx: usize) -> Duration {
        let (top, start) = self.open.pop().expect("exit without an open span");
        assert_eq!(top, idx, "spans must close in LIFO order");
        let dur = start.elapsed();
        self.spans[idx].dur_ns = dur.as_nanos() as u64;
        dur
    }

    /// Time `f` inside a span named `name`.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let idx = self.enter(name);
        let out = f();
        let dur = self.exit(idx);
        (out, dur)
    }

    /// Append another thread's spans (their parent links are re-based).
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover, summed by name, largest first.
    pub fn self_times(&self) -> Vec<(&'static str, Duration, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut by_name: Vec<(&'static str, u64, usize)> = Vec::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let own = s.dur_ns.saturating_sub(c);
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += own;
                    e.2 += 1;
                }
                None => by_name.push((s.name, own, 1)),
            }
        }
        by_name.sort_by_key(|e| std::cmp::Reverse(e.1));
        by_name
            .into_iter()
            .map(|(n, ns, c)| (n, Duration::from_nanos(ns), c))
            .collect()
    }

    /// Chrome trace (`chrome://tracing`, Perfetto) with the workload and
    /// the reported per-layer metrics attached.
    pub fn to_chrome_trace(&self, workload: &str, metrics: &[Metric]) -> String {
        let mut s = String::from("{\"traceEvents\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                s,
                "{sep}{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"workload\": {}, \"span\": {i}, \"parent\": {}}}}}",
                json_str(sp.name),
                sp.tid,
                json_num(sp.start_ns as f64 / 1e3),
                json_num(sp.dur_ns as f64 / 1e3),
                json_str(workload),
                sp.parent.map_or(-1, |p| p as i64),
            );
        }
        s.push_str("\n], \"otherData\": {\"workload\": ");
        s.push_str(&json_str(workload));
        s.push_str(", \"metrics\": {");
        let entries: Vec<String> = metrics.iter().map(Metric::json_entry).collect();
        s.push_str(&entries.join(", "));
        s.push_str("}}}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut log = SpanLog::new(Instant::now(), 0);
        let outer = log.enter("outer");
        log.timed("inner", || std::thread::sleep(Duration::from_millis(2)));
        log.exit(outer);
        assert_eq!(log.spans[1].parent, Some(0));
        let st = log.self_times();
        let inner = st.iter().find(|(n, _, _)| *n == "inner").unwrap();
        let outer = st.iter().find(|(n, _, _)| *n == "outer").unwrap();
        assert!(inner.1 >= Duration::from_millis(2));
        assert!(outer.1 < Duration::from_nanos(log.spans[0].dur_ns));
        let m = Metric {
            name: "m".into(),
            value: 1.5,
            unit: "s",
            samples: 1,
        };
        let trace = log.to_chrome_trace("w", &[m]);
        assert!(trace.contains("\"parent\": 0"));
        assert!(trace.contains("\"m\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
