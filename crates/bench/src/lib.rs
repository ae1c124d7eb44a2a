//! Experiment harness for the DiGamma reproduction.
//!
//! One module per paper artifact (see `DESIGN.md` §4):
//!
//! * [`fig5`] — 9 optimization algorithms × 7 models × {edge, cloud},
//!   latency and latency·area normalized to CMA,
//! * [`fig6`] — HW-opt / Mapping-opt / co-opt scheme comparison,
//! * [`fig7`] — found-solution breakdown for MnasNet at edge,
//! * [`ablation`] — operator ablations of the DiGamma GA (E5),
//! * [`pareto`] — the latency-vs-area sweep (an extension),
//! * [`cachebench`] — cold- vs warm-cache search comparison for the
//!   server's fitness memo (recorded numbers in its module docs),
//! * [`perfjson`] — the evaluator perf harness: fixed seeded workloads
//!   through four off-vs-on A/B sections (metrics, tracing,
//!   failpoints, analytics) plus memo hit-rate measurements, emitted
//!   as `BENCH_eval.json` (the repo's perf trajectory file),
//! * [`report`] — the markdown/TSV table writer the binaries share.
//!
//! The binaries (`fig5`, `fig6`, `fig7`, `pareto`, `space`, `ablation`)
//! are thin wrappers over these modules; everything here is
//! unit-testable at small budgets.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod cachebench;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod pareto;
pub mod perfjson;
pub mod report;

use digamma_workload::{zoo, Model};

/// Geometric mean of the finite, positive entries; `None` when empty.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v.is_finite() && v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

/// Resolves `--models` arguments (comma-separated names) to models;
/// defaults to the paper's full seven-model suite.
pub fn resolve_models(arg: Option<&str>) -> Vec<Model> {
    match arg {
        None => zoo::all_models(),
        Some(names) => names
            .split(',')
            .map(|n| zoo::by_name(n.trim()).unwrap_or_else(|| panic!("unknown model: {n}")))
            .collect(),
    }
}

/// Minimal `--key value` argument parser shared by the binaries.
#[derive(Debug, Clone, Default)]
pub struct Args {
    entries: Vec<(String, String)>,
}

impl Args {
    /// Parses `std::env::args`-style input (flags must be `--key value`).
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Args {
        let mut entries = Vec::new();
        let mut iter = raw.into_iter().peekable();
        while let Some(item) = iter.next() {
            if let Some(key) = item.strip_prefix("--") {
                let value = iter.next().unwrap_or_default();
                entries.push((key.to_owned(), value));
            }
        }
        Args { entries }
    }

    /// Looks up a string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Looks up a numeric flag with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key).map(|v| v.parse().expect("numeric flag")).unwrap_or(default)
    }

    /// Looks up a u64 flag with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key).map(|v| v.parse().expect("numeric flag")).unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_known_values() {
        let g = geomean([1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert!(geomean([]).is_none());
        // Non-finite and non-positive entries are skipped.
        let g = geomean([f64::INFINITY, 4.0, 0.0, 1.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-9);
    }

    #[test]
    fn resolve_models_defaults_to_all_seven() {
        assert_eq!(resolve_models(None).len(), 7);
        let picked = resolve_models(Some("ncf, dlrm"));
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].name(), "ncf");
    }

    #[test]
    fn args_parse_key_values() {
        let args = Args::parse(
            ["--budget", "500", "--models", "ncf", "--budget", "900"].map(String::from),
        );
        assert_eq!(args.get_usize("budget", 1), 900, "last flag wins");
        assert_eq!(args.get("models"), Some("ncf"));
        assert_eq!(args.get_usize("seed", 7), 7);
    }
}
