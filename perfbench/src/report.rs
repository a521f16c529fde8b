//! Percentiles, peak memory and the result line.

/// The `q`-quantile (nearest rank) of `v`, sorting it in place. `NaN` when empty.
pub fn quantile<T: Copy + Ord + Into<u64>>(v: &mut [T], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1].into() as f64
}

/// Median of `v` (mean of the middle pair for an even length). `NaN` when empty.
pub fn median_f64(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Throughput and latency of the operations measured in one window.
///
/// Whole-window figures: on this benchmark's 2-core host they spread less
/// from run to run than medians of per-second figures, whose tails rest
/// on a few samples each.
#[derive(Clone, Copy, Debug)]
pub struct Rates {
    /// Operations per second.
    pub ops_per_s: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 90th-percentile latency, microseconds.
    pub p90_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Operations measured.
    pub samples: usize,
}

impl Rates {
    /// Summarizes the latencies (ns) of the operations completed in a
    /// window of `secs` seconds.
    pub fn of<T: Copy + Ord + Into<u64>>(lat: &[T], secs: f64) -> Rates {
        let mut lat = lat.to_vec();
        Rates {
            ops_per_s: lat.len() as f64 / secs,
            p50_us: quantile(&mut lat, 0.5) / 1e3,
            p90_us: quantile(&mut lat, 0.9) / 1e3,
            p99_us: quantile(&mut lat, 0.99) / 1e3,
            samples: lat.len(),
        }
    }
}

/// The process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The run's verdict and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, answer checks included.
    pub attempted: u64,
    /// Client errors plus answers the oracle rejected.
    pub failed: u64,
    /// Whole-run checks (scrub, reopen, epoch order) that failed.
    pub broken: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts `checked` operations of which `failed` failed.
    pub fn count(&mut self, checked: u64, failed: u64) {
        self.attempted += checked;
        self.failed += failed;
    }

    /// Whether every answer and every whole-run check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit `f64` carries.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert!(quantile::<u64>(&mut [], 0.5).is_nan());
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn rates_over_the_window() {
        let lat: Vec<u64> = (1..=1000).map(|v| v * 1000).collect();
        let r = Rates::of(&lat, 4.0);
        assert_eq!(r.ops_per_s, 250.0);
        assert_eq!((r.p50_us, r.p90_us, r.p99_us), (500.0, 900.0, 990.0));
        assert_eq!(r.samples, 1000);
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome::default();
        o.count(10, 0);
        o.push("setup_s", 0.25, "s");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.broken.push("scrub".into());
        assert!(!o.correct());
    }
}
