//! Metric names, the result a workload run produces, and its rendering.

/// End-to-end metrics every untraced run reports, with their units.
/// `BENCHMARK.json` lists the same names (a test keeps them in step).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("best_cost_geomean", "cycles"),
    ("search_samples_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("state_mb", "MB"),
    ("recover_s", "s"),
];

/// Per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("costmodel.eval_ns", "ns"),
    ("costmodel.evals", "count"),
    ("encoding.decode_ns", "ns"),
    ("core.key_ns", "ns"),
    ("core.batch_ns_per_genome", "ns"),
    ("core.pipeline_ratio", "ratio"),
    ("core.dedup_ratio", "ratio"),
    ("ga.step_ns_per_sample", "ns"),
    ("ga.operator_ns_per_sample", "ns"),
    ("server.run_ms", "ms"),
    ("server.eval_ms", "ms"),
    ("server.checkpoint_ms", "ms"),
    ("server.unattributed_ms", "ms"),
    ("server.spill_ms", "ms"),
    ("server.journal_append_us", "us"),
    ("server.snapshot_ms", "ms"),
    ("server.bytes_written_per_job", "bytes"),
    ("server.queue_wait_ms", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.genome_hit_ratio", "ratio"),
    ("net.submit_ms", "ms"),
    ("net.status_ms", "ms"),
    ("net.overhead_ms", "ms"),
    ("net.requests_per_job", "count"),
    ("trace.overhead_pct", "%"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// A name from [`END_TO_END`] or [`PER_LAYER`], or an extra
    /// human-readable figure.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// The samples behind the value, when it is an order statistic.
    pub samples: Option<usize>,
}

impl Metric {
    /// A plain value.
    pub fn new(name: &'static str, value: f64) -> Metric {
        Metric { name, value, samples: None }
    }

    /// An order statistic over `samples` values.
    pub fn over(name: &'static str, value: f64, samples: usize) -> Metric {
        Metric { name, value, samples: Some(samples) }
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs or searches attempted.
    pub attempted: usize,
    /// Of those, the ones that failed, were refused, or found no
    /// feasible design.
    pub failed: usize,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// End-to-end figures (untraced in an untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer figures (traced runs only).
    pub per_layer: Vec<Metric>,
}

/// The unit a metric name is reported in.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map_or("", |(_, unit)| unit)
}

/// Checks that `metrics` holds exactly the names in `expected`, each
/// once and finite, and that no end-to-end value is zero or negative.
pub fn check_names(metrics: &[Metric], expected: &[(&str, &str)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, _) in expected {
        match metrics.iter().filter(|m| m.name == *name).collect::<Vec<_>>().as_slice() {
            [] => problems.push(format!("metric {name} was not measured")),
            [m] if !m.value.is_finite() => problems.push(format!("metric {name} is {}", m.value)),
            [m] if expected == END_TO_END && m.value <= 0.0 => {
                problems.push(format!("end-to-end metric {name} is {}", m.value));
            }
            [_] => {}
            _ => problems.push(format!("metric {name} was reported twice")),
        }
    }
    for m in metrics {
        if !expected.iter().any(|(name, _)| *name == m.name) {
            problems.push(format!("metric {} is not listed", m.name));
        }
    }
    problems
}

/// The machine-readable last line of a run.
pub fn render_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, unit_of(m.name))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The human-readable line for one metric.
pub fn render_line(m: &Metric) -> String {
    let samples = match m.samples {
        Some(n) => format!("  (n={n})"),
        None => String::new(),
    };
    format!("{:<28} {:>16.6} {}{samples}", m.name, m.value, unit_of(m.name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(list: &[(&'static str, &str)], value: f64) -> Vec<Metric> {
        list.iter().map(|(name, _)| Metric::new(name, value)).collect()
    }

    #[test]
    fn complete_metrics_pass_and_tampered_ones_fail() {
        assert!(check_names(&all(&END_TO_END, 1.5), &END_TO_END).is_empty());
        assert!(check_names(&all(&PER_LAYER, 0.0), &PER_LAYER).is_empty());

        let mut missing = all(&END_TO_END, 1.5);
        missing.pop();
        assert_eq!(check_names(&missing, &END_TO_END).len(), 1);

        let mut zero = all(&END_TO_END, 1.5);
        zero[3].value = 0.0;
        assert_eq!(check_names(&zero, &END_TO_END).len(), 1);

        let mut nan = all(&PER_LAYER, 1.0);
        nan[0].value = f64::NAN;
        assert_eq!(check_names(&nan, &PER_LAYER).len(), 1);

        let mut extra = all(&END_TO_END, 1.5);
        extra.push(Metric::new("made_up", 1.0));
        assert_eq!(check_names(&extra, &END_TO_END).len(), 1);
    }

    #[test]
    fn result_line_is_json_with_units() {
        let line = render_result(true, 3, 0, &[Metric::new("setup_s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
