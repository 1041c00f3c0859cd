//! What a run prints: metrics by name and unit, the operation tally, and
//! the spans a traced run records around each call into the program.

use ant_common::obs::{escape_into, JsonObject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The end-to-end metrics every untraced run reports, as listed in
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run reports, as listed in
/// `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("parse_s", "s"),
    ("parse_mb_per_s", "MB/s"),
    ("passes_s", "s"),
    ("pass.constraints_out", "count"),
    ("solve_s", "s"),
    ("solve.propagate_s", "s"),
    ("solve.cycle_s", "s"),
    ("solve.complex_s", "s"),
    ("solve.other_s", "s"),
    ("solve.propagations", "count"),
    ("solve.changed_ratio", "ratio"),
    ("solve.nodes_searched", "count"),
    ("solve.search_hit_ratio", "ratio"),
    ("solve.nodes_collapsed", "count"),
    ("solve.complex_iters", "count"),
    ("solve.propagated_mib", "MiB"),
    ("solve.state_mib", "MiB"),
    ("expand_s", "s"),
    ("solution.facts", "count"),
    ("solution.mib", "MiB"),
    ("trace_overhead_pct", "%"),
];

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One workload run's outcome.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted: analyses, requests and adds.
    pub attempted: u64,
    /// Operations that failed: parse errors, panics, error envelopes and
    /// answers that differ from the reference.
    pub failed: u64,
    /// Checks that could not run at all (no reference, for instance).
    pub broken: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts one operation and its outcome; failures are described on
    /// stderr.
    pub fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("failed: {why}");
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty() && self.attempted > 0
    }

    /// One JSON line per metric, a flat tally line, then the result line
    /// whose `metrics` hold the listed names.
    pub fn print(&self, workload: &str, listed: &[(&str, &str)]) {
        for m in &self.metrics {
            println!("{}", metric_line(workload, &m.name, m.value, m.unit));
        }
        for b in &self.broken {
            eprintln!("check could not run: {b}");
        }
        let mut tally = JsonObject::new();
        tally.str_field("workload", workload);
        tally.bool_field("correct", self.correct());
        tally.uint_field("attempted", self.attempted);
        tally.uint_field("failed", self.failed);
        println!("{}", tally.finish());
        let fields = listed
            .iter()
            .filter_map(|(name, _)| self.metrics.iter().find(|m| m.name == *name))
            .map(|m| (m.name.as_str(), m.value, m.unit));
        println!(
            "{}",
            result_line(self.correct(), self.attempted, self.failed, fields)
        );
    }
}

/// `s` as a JSON string literal.
fn quoted(s: &str) -> String {
    let mut out = String::from('"');
    escape_into(s, &mut out);
    out.push('"');
    out
}

/// `{"workload":…,"metric":…,"value":…,"unit":…}`.
pub fn metric_line(workload: &str, name: &str, value: f64, unit: &str) -> String {
    format!(
        "{{\"workload\":{},\"metric\":{},\"value\":{},\"unit\":{}}}",
        quoted(workload),
        quoted(name),
        number(value),
        quoted(unit)
    )
}

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…},…}}`.
pub fn result_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) -> String {
    let fields: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quoted(name),
                number(value),
                quoted(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    )
}

/// A JSON number with every digit Rust keeps; non-finite values (a ratio
/// over nothing) print as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The `q`-quantile of `samples`, interpolating between closest ranks.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Operation times: exact count and sum, and a fixed-size uniform sample
/// (reservoir) for quantiles, so the benchmark's own memory does not grow
/// with the throughput it measures and leak into peak RSS.
pub struct Latencies {
    sample: Vec<(f64, u8)>,
    pub count: u64,
    pub sum: f64,
    rng: StdRng,
}

/// Reservoir size: enough for p99.99 to rest on 26 samples.
const RESERVOIR: usize = 1 << 18;

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            sample: Vec::with_capacity(RESERVOIR),
            count: 0,
            sum: 0.0,
            rng: StdRng::seed_from_u64(0x1A7E),
        }
    }
}

impl Latencies {
    /// Records one operation of `secs`, tagged with its kind.
    pub fn push(&mut self, secs: f64, tag: u8) {
        if self.sample.len() < RESERVOIR {
            self.sample.push((secs, tag));
        } else {
            let j = self.rng.gen_range(0..=self.count as usize);
            if j < RESERVOIR {
                self.sample[j] = (secs, tag);
            }
        }
        self.count += 1;
        self.sum += secs;
    }

    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.secs(|_| true), q)
    }

    /// Sampled times of the operations whose tag passes `keep`.
    pub fn secs(&self, keep: impl Fn(u8) -> bool) -> Vec<f64> {
        self.sample
            .iter()
            .filter(|s| keep(s.1))
            .map(|s| s.0)
            .collect()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Spans recorded around each call into the program during a traced run:
/// name, start, end, the enclosing span's name, and the operation they
/// belong to. Kept in memory and written as JSONL when the run ends.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    lines: Vec<String>,
    dropped: u64,
}

/// Spans kept per run; a serve run issues far more requests than a trace
/// needs to show.
const MAX_SPANS: usize = 200_000;

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            origin: Instant::now(),
            enabled,
            lines: Vec::new(),
            dropped: 0,
        }
    }

    pub fn record(&mut self, op: u64, name: &str, parent: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        if self.lines.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let mut span = JsonObject::new();
        span.uint_field("op", op);
        span.str_field("name", name);
        span.str_field("parent", parent);
        span.float_field("start_us", us(start));
        span.float_field("end_us", us(end));
        self.lines.push(span.finish());
    }

    /// Writes the spans to `out/spans-<workload>.jsonl` beside this crate.
    pub fn write(&self, workload: &str) {
        if !self.enabled {
            return;
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{workload}.jsonl");
        let mut dropped = JsonObject::new();
        dropped.uint_field("dropped", self.dropped);
        let mut text = self.lines.join("\n");
        text.push('\n');
        text.push_str(&dropped.finish());
        text.push('\n');
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
            Ok(()) => eprintln!("spans: {path}"),
            Err(e) => eprintln!("spans not written to {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }
}
