//! Sample statistics and the result line.

use std::fmt::Write as _;

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The smallest of `values`. A whole-process job on a shared host runs up
/// to twice as long in the host's slow phases, which come and go within
/// seconds; the fastest of a window's jobs is the figure those phases move
/// least.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Times `f` `reps` times (at least once) and keeps going until the
/// samples add up to `min_total_s`; returns every sample in seconds and
/// the last result.
pub fn time_reps<T>(reps: usize, min_total_s: f64, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut samples = Vec::new();
    loop {
        let start = std::time::Instant::now();
        let out = std::hint::black_box(f());
        samples.push(start.elapsed().as_secs_f64());
        if samples.len() >= reps.max(1) && samples.iter().sum::<f64>() >= min_total_s {
            return (samples, out);
        }
        drop(out);
    }
}

/// One run's result: metrics in report order, each with its unit and the
/// number of samples behind it, plus the answer counters.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str, usize)>,
    /// Raw samples behind some metrics, for the metadata line.
    raw: Vec<(String, Vec<f64>)>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub problems: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_owned(), value, unit, samples));
    }

    /// Keeps the raw samples behind `name` for the metadata line.
    pub fn raw(&mut self, name: &str, samples: &[f64]) {
        self.raw.push((name.to_owned(), samples.to_vec()));
    }

    /// Records the outcome of one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// `{"samples": {...}}` — the sample count behind each metric.
    pub fn samples_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, _, _, n)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{name}\":{n}");
        }
        out.push('}');
        out
    }

    /// `{"name": [samples…], …}` for the metrics that kept their samples.
    pub fn raw_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, samples)) in self.raw.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let list: Vec<String> = samples.iter().map(|v| format!("{v:?}")).collect();
            let _ = write!(out, "{sep}\"{name}\":[{}]", list.join(","));
        }
        out.push('}');
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit, _)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Puts the end-to-end metrics. `answers` are answer times in seconds;
/// `job_s` is the typical one (see `fastest`) and `p99_s` the tail, with
/// the number of answers it is read from, as the workload reads them.
/// `peak_rss_mb` is the largest child RSS and the number of children.
#[allow(clippy::too_many_arguments)]
pub fn put_end_to_end(
    report: &mut Report,
    setups: &[f64],
    answers: &[f64],
    job_s: f64,
    p99_s: (f64, usize),
    max_rps: (f64, usize),
    peak_rss_mb: (f64, usize),
    image_ratio: f64,
) {
    report.raw("setup_s", setups);
    report.raw("answers_s", answers);
    report.put("setup_s", median(setups), "s", setups.len());
    report.put("job_s", job_s, "s", answers.len());
    report.put("p99_ms", p99_s.0 * 1e3, "ms", p99_s.1);
    report.put("max_rps", max_rps.0, "1/s", max_rps.1);
    report.put("peak_rss_mb", peak_rss_mb.0, "MB", peak_rss_mb.1);
    report.put("image_bytes_per_input_byte", image_ratio, "ratio", 1);
    report.put(
        "ok_share",
        1.0 - report.failed as f64 / report.attempted as f64,
        "ratio",
        report.attempted as usize,
    );
}

/// Whole-process answers per second that one core sustains back to back:
/// the reciprocal of the fastest, for the reason `fastest` gives. The
/// window's mean answer moved by up to 30% between runs in one set as the
/// host's slow phases came and went.
pub fn serial_rps(walls: &[f64]) -> (f64, usize) {
    (1.0 / fastest(walls), walls.len())
}
