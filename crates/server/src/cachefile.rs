//! On-disk persistence for the fitness memo: spill shards at checkpoint
//! cadence, warm-start at boot.
//!
//! The per-layer memo's keys are already stable across processes
//! ([`digamma_costmodel::cachekey`], versioned via `KEY_VERSION`), so a
//! restarted `digamma-netd` can keep its accumulated *cost-model* work —
//! not just its jobs — by writing `(key, CostReport)` pairs to a text
//! file and reloading them at startup. Format (built on
//! [`crate::textio`]):
//!
//! ```text
//! [fitness-memo]
//! version = 1            # this file format
//! key_version = 1        # digamma_costmodel::cachekey::KEY_VERSION
//! count = 2
//!
//! [entry]
//! key = 16-hex stable cache key
//! latency_cycles = 16-hex f64 bits        # every f64 is bit-exact
//! ...                                      # see render_entry
//! ```
//!
//! Robustness contract:
//!
//! * **bit-exact round-trip** — every `f64` travels as its IEEE-754 bit
//!   pattern, every `u128` as decimal; a reloaded report compares equal
//!   to the bit (property-tested in `tests/cachefile.rs`),
//! * **versioned** — a `version` or `key_version` mismatch discards the
//!   whole file (stale keys must never alias a new cost model),
//! * **corrupt-tolerant** — a malformed `[entry]` section is skipped
//!   (counted, not fatal), so a partially damaged file still warms the
//!   cache with its intact entries; an unreadable or unparsable file
//!   degrades to a cold start, never a crash.

use crate::textio::{
    f64_from_text, f64_to_text, f64s_from_text, f64s_to_text, parse_sections, render_sections,
    Section, TextError,
};
use digamma_costmodel::latency::{Bottleneck, LatencyBreakdown};
use digamma_costmodel::{
    analysis::LinkTraffic, cachekey::KEY_VERSION, BufferRequirement, CostReport, HwConfig,
};
use digamma_obs::{FailAction, FailSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Current spill-file format version.
pub const CACHE_FILE_VERSION: u64 = 1;

/// What a load reports back (for logs and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLoad {
    /// Entries parsed and usable.
    pub loaded: usize,
    /// Malformed `[entry]` sections skipped.
    pub skipped: usize,
}

fn u64s_to_text(values: &[u64]) -> String {
    let rendered: Vec<String> = values.iter().map(u64::to_string).collect();
    rendered.join(",")
}

fn u64s_from_text(s: &str) -> Result<Vec<u64>, TextError> {
    let s = s.trim();
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|v| v.trim().parse().map_err(|_| TextError::new(format!("bad u64 list: {s:?}"))))
        .collect()
}

fn u128s_to_text(values: &[u128]) -> String {
    let rendered: Vec<String> = values.iter().map(u128::to_string).collect();
    rendered.join(",")
}

fn u128s_from_text(s: &str) -> Result<Vec<u128>, TextError> {
    let s = s.trim();
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|v| v.trim().parse().map_err(|_| TextError::new(format!("bad u128 list: {s:?}"))))
        .collect()
}

fn render_entry(key: u64, report: &CostReport) -> Section {
    let mut s = Section::new("entry");
    s.push("key", format!("{key:016x}"));
    s.push("latency_cycles", f64_to_text(report.latency_cycles));
    s.push("compute_cycles", f64_to_text(report.latency.compute_cycles));
    s.push("dram_cycles", f64_to_text(report.latency.dram_cycles));
    s.push("noc_cycles", f64s_to_text(&report.latency.noc_cycles));
    s.push("fill_cycles", f64_to_text(report.latency.fill_cycles));
    s.push("total_cycles", f64_to_text(report.latency.total_cycles));
    let bottleneck = match report.latency.bottleneck {
        Bottleneck::Compute => "compute".to_owned(),
        Bottleneck::Dram => "dram".to_owned(),
        Bottleneck::Noc(i) => format!("noc:{i}"),
    };
    s.push("bottleneck", bottleneck);
    s.push("energy_pj", f64_to_text(report.energy_pj));
    s.push("area_um2", f64_to_text(report.area_um2));
    s.push("pe_area_um2", f64_to_text(report.pe_area_um2));
    s.push("hw_fanouts", u64s_to_text(&report.hw.fanouts));
    s.push("hw_l2_words", report.hw.l2_words.to_string());
    s.push("hw_mid_words", u64s_to_text(&report.hw.mid_words_per_unit));
    s.push("hw_l1_words", report.hw.l1_words_per_pe.to_string());
    s.push("buf_l2_words", report.buffers.l2_words.to_string());
    s.push("buf_mid_words", u64s_to_text(&report.buffers.mid_words_per_unit));
    s.push("buf_l1_words", report.buffers.l1_words_per_pe.to_string());
    // Four u128 counters per level, flattened in level order.
    let traffic: Vec<u128> = report
        .traffic
        .iter()
        .flat_map(|t| [t.weight, t.input, t.output_write, t.output_read])
        .collect();
    s.push("traffic", u128s_to_text(&traffic));
    s.push("utilization", f64_to_text(report.utilization));
    s.push("macs", report.macs.to_string());
    s
}

/// A required scalar: unlike `get_parsed_or`, a missing or unparsable
/// field is an error — within an `[entry]` every field is always
/// rendered, so absence means corruption and the entry must be skipped,
/// never filled with a default that would silently poison evaluations.
fn require_parsed<T: std::str::FromStr>(s: &Section, key: &str) -> Result<T, TextError> {
    s.require(key)?.parse().map_err(|_| TextError::new(format!("bad `{key}` in [entry]")))
}

fn parse_entry(s: &Section) -> Result<(u64, CostReport), TextError> {
    let key = u64::from_str_radix(s.require("key")?, 16)
        .map_err(|_| TextError::new("bad entry key (need 16 hex digits)"))?;
    let bottleneck = match s.require("bottleneck")? {
        "compute" => Bottleneck::Compute,
        "dram" => Bottleneck::Dram,
        other => match other.strip_prefix("noc:").and_then(|i| i.parse().ok()) {
            Some(i) => Bottleneck::Noc(i),
            None => return Err(TextError::new(format!("bad bottleneck {other:?}"))),
        },
    };
    let latency = LatencyBreakdown {
        compute_cycles: f64_from_text(s.require("compute_cycles")?)?,
        dram_cycles: f64_from_text(s.require("dram_cycles")?)?,
        noc_cycles: f64s_from_text(s.require("noc_cycles")?)?,
        fill_cycles: f64_from_text(s.require("fill_cycles")?)?,
        total_cycles: f64_from_text(s.require("total_cycles")?)?,
        bottleneck,
    };
    let flat = u128s_from_text(s.require("traffic")?)?;
    if !flat.len().is_multiple_of(4) {
        return Err(TextError::new("traffic list must hold 4 counters per level"));
    }
    let traffic: Vec<LinkTraffic> = flat
        .chunks_exact(4)
        .map(|c| LinkTraffic { weight: c[0], input: c[1], output_write: c[2], output_read: c[3] })
        .collect();
    let report = CostReport {
        latency_cycles: f64_from_text(s.require("latency_cycles")?)?,
        latency,
        energy_pj: f64_from_text(s.require("energy_pj")?)?,
        area_um2: f64_from_text(s.require("area_um2")?)?,
        pe_area_um2: f64_from_text(s.require("pe_area_um2")?)?,
        hw: HwConfig {
            fanouts: u64s_from_text(s.require("hw_fanouts")?)?,
            l2_words: require_parsed(s, "hw_l2_words")?,
            mid_words_per_unit: u64s_from_text(s.require("hw_mid_words")?)?,
            l1_words_per_pe: require_parsed(s, "hw_l1_words")?,
        },
        buffers: BufferRequirement {
            l2_words: require_parsed(s, "buf_l2_words")?,
            mid_words_per_unit: u64s_from_text(s.require("buf_mid_words")?)?,
            l1_words_per_pe: require_parsed(s, "buf_l1_words")?,
        },
        traffic,
        utilization: f64_from_text(s.require("utilization")?)?,
        macs: require_parsed(s, "macs")?,
    };
    Ok((key, report))
}

/// Renders a full spill document for the given memo entries.
pub fn render_cache_file(entries: &[(u64, Arc<CostReport>)]) -> String {
    let mut head = Section::new("fitness-memo");
    head.push("version", CACHE_FILE_VERSION.to_string());
    head.push("key_version", KEY_VERSION.to_string());
    head.push("count", entries.len().to_string());
    let mut sections = vec![head];
    sections.extend(entries.iter().map(|(key, report)| render_entry(*key, report)));
    render_sections(&sections)
}

/// Parses a spill document. A header mismatch (wrong format or key
/// version) yields zero entries; malformed `[entry]` sections are
/// skipped and counted.
///
/// # Errors
///
/// Returns [`TextError`] only when the document is not even
/// section-structured text; every finer-grained problem degrades to
/// skipped entries.
pub fn parse_cache_file(text: &str) -> Result<(Vec<(u64, CostReport)>, CacheLoad), TextError> {
    let sections = parse_sections(text)?;
    let Some(head) = sections.first().filter(|s| s.name == "fitness-memo") else {
        return Err(TextError::new("not a fitness-memo file"));
    };
    let version = head.get_parsed_or("version", 0u64)?;
    let key_version = head.get_parsed_or("key_version", 0u64)?;
    if version != CACHE_FILE_VERSION || key_version != KEY_VERSION {
        // A stale file must never alias into a newer cost model: treat
        // it as empty rather than failing the boot.
        return Ok((Vec::new(), CacheLoad::default()));
    }
    let mut entries = Vec::new();
    let mut load = CacheLoad::default();
    for section in sections.iter().filter(|s| s.name == "entry") {
        match parse_entry(section) {
            Ok(pair) => {
                entries.push(pair);
                load.loaded += 1;
            }
            Err(_) => load.skipped += 1,
        }
    }
    Ok((entries, load))
}

/// Writes `bytes` to `tmp`, fsyncs, then atomically renames onto
/// `path` — the durability discipline every spill and snapshot shares.
/// The rename only ever promotes fully durable bytes, so a kill or
/// power cut at any instant leaves either the old file or the new one,
/// never a truncated hybrid. The named failpoint injects storage
/// faults: `short` tears the tmp write (the old file survives untouched
/// since the rename never runs), `err`/`enospc` fail it outright.
///
/// # Errors
///
/// Returns [`std::io::Error`] from the write, sync, or rename; on any
/// error the previous `path` contents are intact.
pub(crate) fn persist_atomic(
    tmp: &Path,
    path: &Path,
    bytes: &[u8],
    faults: &FailSet,
    point: &str,
) -> std::io::Result<()> {
    let mut file = std::fs::File::create(tmp)?;
    match faults.fired(point) {
        Some(FailAction::Short) => {
            file.write_all(&bytes[..bytes.len() / 2])?;
            let _ = file.sync_all();
            return Err(std::io::Error::other(format!(
                "injected torn write at failpoint {point:?}"
            )));
        }
        Some(action) => {
            if let Some(e) = action.to_io_error(point) {
                return Err(e);
            }
        }
        None => {}
    }
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(tmp, path)
}

/// Atomically writes the spill file (write + fsync + rename of a
/// temporary file; the `cache.spill` failpoint injects faults).
///
/// # Errors
///
/// Returns [`std::io::Error`] when the directory is unwritable; the
/// previous spill file, if any, survives every failure.
pub fn write_cache_file(
    path: &Path,
    entries: &[(u64, Arc<CostReport>)],
    faults: &FailSet,
) -> std::io::Result<()> {
    let tmp = path.with_extension("cache.tmp");
    persist_atomic(&tmp, path, render_cache_file(entries).as_bytes(), faults, "cache.spill")
}

/// Best-effort load: a missing, unreadable, or corrupt file is a cold
/// start (empty result), never an error.
pub fn read_cache_file(path: &Path) -> (Vec<(u64, CostReport)>, CacheLoad) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return (Vec::new(), CacheLoad::default());
    };
    parse_cache_file(&text).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma_costmodel::{Evaluator, Mapping, Platform};
    use digamma_workload::{zoo, Layer};

    fn sample_entries() -> Vec<(u64, Arc<CostReport>)> {
        let eval = Evaluator::new(Platform::edge());
        let mut entries = Vec::new();
        for model in [zoo::ncf(), zoo::dlrm()] {
            for u in model.unique_layers().iter().take(3) {
                let m = Mapping::row_major_example(&u.layer, 4, 8);
                let key = eval.cache_key(&u.layer, &m);
                entries.push((key, Arc::new(eval.evaluate(&u.layer, &m).unwrap())));
            }
        }
        // A three-level mapping exercises mid buffers and NoC vectors.
        let layer = Layer::conv("deep", 16, 8, 8, 8, 3, 3, 1);
        let m = Mapping::new(vec![
            digamma_costmodel::LevelSpec {
                fanout: 2,
                spatial_dim: digamma_workload::Dim::K,
                order: digamma_workload::Dim::ALL,
                tile: digamma_workload::DimVec([8, 8, 8, 8, 3, 3]),
            },
            digamma_costmodel::LevelSpec {
                fanout: 2,
                spatial_dim: digamma_workload::Dim::Y,
                order: digamma_workload::Dim::ALL,
                tile: digamma_workload::DimVec([4, 8, 4, 8, 3, 3]),
            },
            digamma_costmodel::LevelSpec {
                fanout: 2,
                spatial_dim: digamma_workload::Dim::X,
                order: digamma_workload::Dim::ALL,
                tile: digamma_workload::DimVec([2, 4, 2, 2, 3, 1]),
            },
        ]);
        entries.push((eval.cache_key(&layer, &m), Arc::new(eval.evaluate(&layer, &m).unwrap())));
        entries
    }

    fn assert_report_bits(a: &CostReport, b: &CostReport) {
        assert_eq!(a.latency_cycles.to_bits(), b.latency_cycles.to_bits());
        assert_eq!(a.latency.compute_cycles.to_bits(), b.latency.compute_cycles.to_bits());
        assert_eq!(a.latency.dram_cycles.to_bits(), b.latency.dram_cycles.to_bits());
        assert_eq!(a.latency.noc_cycles.len(), b.latency.noc_cycles.len());
        for (x, y) in a.latency.noc_cycles.iter().zip(&b.latency.noc_cycles) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.latency.fill_cycles.to_bits(), b.latency.fill_cycles.to_bits());
        assert_eq!(a.latency.total_cycles.to_bits(), b.latency.total_cycles.to_bits());
        assert_eq!(a.latency.bottleneck, b.latency.bottleneck);
        assert_eq!(a.energy_pj.to_bits(), b.energy_pj.to_bits());
        assert_eq!(a.area_um2.to_bits(), b.area_um2.to_bits());
        assert_eq!(a.pe_area_um2.to_bits(), b.pe_area_um2.to_bits());
        assert_eq!(a.hw, b.hw);
        assert_eq!(a.buffers, b.buffers);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
        assert_eq!(a.macs, b.macs);
    }

    #[test]
    fn spill_round_trips_bit_exactly() {
        let entries = sample_entries();
        let text = render_cache_file(&entries);
        let (back, load) = parse_cache_file(&text).unwrap();
        assert_eq!(load.loaded, entries.len());
        assert_eq!(load.skipped, 0);
        assert_eq!(back.len(), entries.len());
        for ((ka, ra), (kb, rb)) in entries.iter().zip(&back) {
            assert_eq!(ka, kb);
            assert_report_bits(ra, rb);
        }
    }

    #[test]
    fn stale_versions_yield_a_cold_start() {
        let entries = sample_entries();
        let text = render_cache_file(&entries);
        let wrong_key = text.replacen(
            &format!("key_version = {KEY_VERSION}"),
            &format!("key_version = {}", KEY_VERSION + 1),
            1,
        );
        let (back, load) = parse_cache_file(&wrong_key).unwrap();
        assert!(back.is_empty(), "stale key version must discard everything");
        assert_eq!(load, CacheLoad::default());
        let wrong_fmt = text.replacen(
            &format!("version = {CACHE_FILE_VERSION}"),
            &format!("version = {}", CACHE_FILE_VERSION + 1),
            1,
        );
        assert!(parse_cache_file(&wrong_fmt).unwrap().0.is_empty());
    }

    #[test]
    fn corrupt_entries_are_skipped_not_fatal() {
        let entries = sample_entries();
        let mut text = render_cache_file(&entries);
        // Damage one entry's latency field beyond recognition.
        text = text.replacen("latency_cycles = ", "latency_cycles = zz", 1);
        let (back, load) = parse_cache_file(&text).unwrap();
        assert_eq!(load.skipped, 1, "the damaged entry is skipped");
        assert_eq!(back.len(), entries.len() - 1, "intact entries survive");
    }

    #[test]
    fn missing_fields_skip_the_entry_never_default() {
        // A lost line must skip the whole entry — defaulting (e.g. a
        // buffer size to 0 or MAX) would warm-start the cache with a
        // report that silently poisons every search touching that key.
        let entries = sample_entries();
        let rendered = render_cache_file(&entries);
        for victim in ["buf_l2_words", "macs", "hw_fanouts", "traffic", "noc_cycles"] {
            // Drop only the FIRST occurrence of the victim line.
            let mut dropped = false;
            let damaged: String = rendered
                .lines()
                .filter(|line| {
                    if !dropped && line.starts_with(&format!("{victim} = ")) {
                        dropped = true;
                        false
                    } else {
                        true
                    }
                })
                .collect::<Vec<_>>()
                .join("\n");
            let (back, load) = parse_cache_file(&damaged).unwrap();
            assert_eq!(load.skipped, 1, "missing {victim} must skip its entry");
            assert_eq!(back.len(), entries.len() - 1, "missing {victim}");
        }
    }

    #[test]
    fn unreadable_files_degrade_to_cold_start() {
        let dir = std::env::temp_dir().join(format!("digamma-cachefile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fitness-memo.cache");
        // Missing file.
        assert_eq!(read_cache_file(&path).0.len(), 0);
        // Garbage file.
        std::fs::write(&path, "not a cache at all = [[[").unwrap();
        assert_eq!(read_cache_file(&path).0.len(), 0);
        // Real file round-trips through disk.
        let entries = sample_entries();
        write_cache_file(&path, &entries, &FailSet::new()).unwrap();
        let (back, load) = read_cache_file(&path);
        assert_eq!(load.loaded, entries.len());
        assert_eq!(back.len(), entries.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_storage_faults_never_clobber_the_previous_spill() {
        let dir =
            std::env::temp_dir().join(format!("digamma-cachefile-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fitness-memo.cache");
        let entries = sample_entries();
        write_cache_file(&path, &entries, &FailSet::new()).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();

        let faults = FailSet::new();
        faults.configure("cache.spill=enospc,once").unwrap();
        let err = write_cache_file(&path, &entries, &faults).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC must surface as the real errno");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), good, "old spill intact");

        faults.configure("cache.spill=short,once").unwrap();
        assert!(write_cache_file(&path, &entries, &faults).is_err(), "torn write reports");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), good, "torn tmp never promoted");

        // Disarmed again, the write goes through.
        faults.clear();
        write_cache_file(&path, &entries, &faults).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
