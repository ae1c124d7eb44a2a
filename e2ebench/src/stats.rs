//! Order statistics and process probes shared by the workloads.

use std::path::Path;
use std::time::Duration;

/// Linear-interpolated quantile (`q` in `0..=1`) of `values`, which need
/// not be sorted. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median of durations, in seconds.
pub fn median_s(values: &[Duration]) -> f64 {
    median(&values.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// Durations in milliseconds.
pub fn to_ms(values: &[Duration]) -> Vec<f64> {
    values.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`), in MB.
pub fn proc_status_mb(pid: u32, field: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kb: f64 = proc_field(&text, field)
        .and_then(|v| v.trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no {field}"))?;
    Ok(kb / 1024.0)
}

/// The `write_bytes` counter of `/proc/<pid>/io`: bytes the process
/// caused to be sent to storage.
pub fn proc_write_bytes(pid: u32) -> Result<u64, String> {
    let path = format!("/proc/{pid}/io");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    proc_field(&text, "write_bytes")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{path} has no write_bytes"))
}

fn proc_field<'a>(text: &'a str, field: &str) -> Option<&'a str> {
    text.lines().find_map(|line| line.strip_prefix(field)?.strip_prefix(':')).map(str::trim)
}

/// Total size of the regular files under `dir`, in MB.
pub fn dir_mb(dir: &Path) -> Result<f64, String> {
    fn walk(dir: &Path) -> std::io::Result<u64> {
        let mut total = 0;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            total += if meta.is_dir() { walk(&entry.path())? } else { meta.len() };
        }
        Ok(total)
    }
    walk(dir).map(|b| b as f64 / (1024.0 * 1024.0)).map_err(|e| format!("{}: {e}", dir.display()))
}

/// A well-mixed 64-bit value derived from `seed` and `index` (SplitMix64),
/// so every generated input is a pure function of the run's seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert!(quantile(&[], 0.5).is_nan());
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn proc_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t  2048 kB\nwrite_bytes: 77\n";
        assert_eq!(proc_field(text, "VmHWM"), Some("2048 kB"));
        assert_eq!(proc_field(text, "write_bytes"), Some("77"));
        assert_eq!(proc_field(text, "VmRSS"), None);
    }
}
