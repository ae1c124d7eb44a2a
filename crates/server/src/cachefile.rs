//! On-disk persistence for the fitness memo: a base plus the records
//! each later spill appended, replayed at boot.
//!
//! The per-layer memo's keys are already stable across processes
//! ([`digamma_costmodel::cachekey`], versioned via `KEY_VERSION`), so a
//! restarted `digamma-netd` can keep its accumulated *cost-model* work —
//! not just its jobs — by writing `(key, CostReport)` pairs to a text
//! file and reloading them at startup. Format (records sealed, read and
//! written as the crate's `sealed.rs` describes):
//!
//! ```text
//! [fitness-memo]
//! version = 2            # this file format
//! key_version = 1        # digamma_costmodel::cachekey::KEY_VERSION
//! count = 2              # records in the base
//!
//! [entry]
//! crc = 4b6e9a21cc03fd10 # the seal
//! key = 16-hex stable cache key
//! latency_cycles = 16-hex f64 bits        # every f64 is bit-exact
//! ...                                      # see render_entry
//! ```
//!
//! The header and the `count` records after it are the *base*, which
//! [`write_cache_file`] writes whole (an atomic replace, then an fsync
//! of the directory). Every later spill hands [`append_cache_file`] only
//! the entries memoized since the previous one, and pays one durable
//! append: a spill costs what a job added, not what the memo holds, and
//! never touches the header.
//!
//! A full write is only ever a compaction: a fresh base holding exactly
//! the resident memo. The server compacts when warm start found skipped,
//! duplicate or evicted records, after a failed append, and once the
//! records appended since the base would exceed the memo's capacity.
//!
//! Robustness contract:
//!
//! * **bit-exact round-trip** — every `f64` travels as its IEEE-754 bit
//!   pattern, every `u128` as decimal; a reloaded report compares equal
//!   to the bit (the unit tests below),
//! * **versioned** — a `version` or `key_version` mismatch discards the
//!   whole file (stale keys must never alias a new cost model). Version
//!   2 sealed the records and added appends; a version-1 file is a cold
//!   start, and the first spill replaces it with a fresh base,
//! * **corrupt-tolerant** — warm start skips (and counts) a record whose
//!   seal is not intact or that lacks a field, so a torn or bit-flipped
//!   file still warms the memo with every intact record. An unreadable
//!   file or a damaged header is a cold start, never a crash
//!   (`tests/corruption.rs` truncates and bit-flips a base with appended
//!   records).

use crate::sealed::{self, Record, Records, Seal};
use crate::textio::{f64_from_text, f64_to_text, f64s_to_text, Section, TextError};
use digamma_costmodel::latency::{Bottleneck, LatencyBreakdown};
use digamma_costmodel::{
    analysis::LinkTraffic, cachekey::KEY_VERSION, BufferRequirement, CostReport, HwConfig, Levels,
    MAX_LEVELS,
};
use digamma_obs::FailSet;
use std::path::Path;
use std::sync::Arc;

/// Current spill-file format version. Version 2 sealed every record
/// with a `crc` and let spills append records after the base.
pub const CACHE_FILE_VERSION: u64 = 2;

/// What a load reports back (for logs, tests, and the server's
/// compaction rule).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLoad {
    /// Entries parsed and usable.
    pub loaded: usize,
    /// Damaged records skipped: a seal that is not intact, or a missing
    /// or malformed field (a list of over [`MAX_LEVELS`] levels, too).
    pub skipped: usize,
    /// How many of the loaded entries were appended after the base.
    pub appended: usize,
}

fn u64s_to_text(values: &[u64]) -> String {
    let rendered: Vec<String> = values.iter().map(u64::to_string).collect();
    rendered.join(",")
}

fn u64s_from_text(s: &str) -> Result<Levels<u64>, TextError> {
    levels_from_text(s, |v| {
        v.trim().parse().map_err(|_| TextError::new(format!("bad u64 list: {s:?}")))
    })
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

/// Parses a comma-joined per-level list straight into [`Levels`], each
/// item with `item`. No report holds more than [`MAX_LEVELS`] levels, so
/// a longer list is corrupt: an error, never a panic.
fn levels_from_text<T: Copy + Default>(
    s: &str,
    item: impl Fn(&str) -> Result<T, TextError>,
) -> Result<Levels<T>, TextError> {
    let s = s.trim();
    let mut levels = Levels::default();
    if s.is_empty() {
        return Ok(levels);
    }
    for v in s.split(',') {
        if levels.len() == MAX_LEVELS {
            return Err(TextError::new(format!("more than {MAX_LEVELS} levels: {s:?}")));
        }
        levels.push(item(v)?);
    }
    Ok(levels)
}

/// Renders one sealed `[entry]` record.
fn render_entry(key: u64, report: &CostReport) -> String {
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
    sealed::seal(&s)
}

/// Parses an intact `[entry]` record. Within an entry every field is
/// always rendered, so absence means corruption and the entry must be
/// skipped, never filled with a default that would silently poison
/// evaluations.
fn parse_entry(record: &Record) -> Result<(u64, CostReport), TextError> {
    if record.seal != Seal::Intact {
        return Err(TextError::new("[entry] does not match its crc"));
    }
    let s =
        |key| record.get(key).ok_or_else(|| TextError::new(format!("[entry] is missing `{key}`")));
    let n = |key| s(key)?.parse().map_err(|_| TextError::new(format!("bad `{key}` in [entry]")));
    let key = u64::from_str_radix(s("key")?, 16)
        .map_err(|_| TextError::new("bad entry key (need 16 hex digits)"))?;
    let bottleneck = match s("bottleneck")? {
        "compute" => Bottleneck::Compute,
        "dram" => Bottleneck::Dram,
        other => match other.strip_prefix("noc:").and_then(|i| i.parse().ok()) {
            Some(i) => Bottleneck::Noc(i),
            None => return Err(TextError::new(format!("bad bottleneck {other:?}"))),
        },
    };
    let latency = LatencyBreakdown {
        compute_cycles: f64_from_text(s("compute_cycles")?)?,
        dram_cycles: f64_from_text(s("dram_cycles")?)?,
        noc_cycles: levels_from_text(s("noc_cycles")?, f64_from_text)?,
        fill_cycles: f64_from_text(s("fill_cycles")?)?,
        total_cycles: f64_from_text(s("total_cycles")?)?,
        bottleneck,
    };
    let flat = u128s_from_text(s("traffic")?)?;
    if !flat.len().is_multiple_of(4) || flat.len() > 4 * MAX_LEVELS {
        return Err(TextError::new(format!("bad traffic list: {} counters", flat.len())));
    }
    let traffic: Levels<LinkTraffic> = flat
        .chunks_exact(4)
        .map(|c| LinkTraffic { weight: c[0], input: c[1], output_write: c[2], output_read: c[3] })
        .collect();
    let report = CostReport {
        latency_cycles: f64_from_text(s("latency_cycles")?)?,
        latency,
        energy_pj: f64_from_text(s("energy_pj")?)?,
        area_um2: f64_from_text(s("area_um2")?)?,
        pe_area_um2: f64_from_text(s("pe_area_um2")?)?,
        hw: HwConfig {
            fanouts: u64s_from_text(s("hw_fanouts")?)?,
            l2_words: n("hw_l2_words")?,
            mid_words_per_unit: u64s_from_text(s("hw_mid_words")?)?,
            l1_words_per_pe: n("hw_l1_words")?,
        },
        buffers: BufferRequirement {
            l2_words: n("buf_l2_words")?,
            mid_words_per_unit: u64s_from_text(s("buf_mid_words")?)?,
            l1_words_per_pe: n("buf_l1_words")?,
        },
        traffic,
        utilization: f64_from_text(s("utilization")?)?,
        macs: s("macs")?.parse().map_err(|_| TextError::new("bad `macs` in [entry]"))?,
    };
    Ok((key, report))
}

/// Renders `entries` as sealed records: what a base carries after its
/// header, and what an append adds.
fn render_records(entries: &[(u64, Arc<CostReport>)]) -> String {
    entries.iter().map(|(key, report)| render_entry(*key, report)).collect()
}

/// Renders a full spill document — a base — for the given memo entries.
pub fn render_cache_file(entries: &[(u64, Arc<CostReport>)]) -> String {
    let mut head = Section::new("fitness-memo");
    head.push("version", CACHE_FILE_VERSION.to_string());
    head.push("key_version", KEY_VERSION.to_string());
    head.push("count", entries.len().to_string());
    head.render() + &render_records(entries)
}

/// Parses a spill document: the base, then every appended record. A
/// header mismatch (wrong format or key version) yields zero entries;
/// damaged records are skipped and counted.
///
/// # Errors
///
/// Returns [`TextError`] only when the document does not open with a
/// `[fitness-memo]` header; every finer-grained problem degrades to
/// skipped records.
pub fn parse_cache_file(text: &str) -> Result<(Vec<(u64, CostReport)>, CacheLoad), TextError> {
    let mut records = Records::new(text).nameless_as("entry");
    let Some(head) = records.next().filter(|head| head.name == "fitness-memo") else {
        return Err(TextError::new("not a fitness-memo file"));
    };
    // Versions compare as text, so a damaged line (`02`, `+2`) never
    // passes for the current one.
    if head.get("version") != Some(&CACHE_FILE_VERSION.to_string())
        || head.get("key_version") != Some(&KEY_VERSION.to_string())
    {
        // A stale file must never alias into a newer cost model: treat
        // it as empty rather than failing the boot.
        return Ok((Vec::new(), CacheLoad::default()));
    }
    let base: u64 = head.get("count").and_then(|v| v.parse().ok()).unwrap_or(0);
    let mut entries = Vec::new();
    let mut load = CacheLoad::default();
    for (at, record) in (0u64..).zip(records) {
        match parse_entry(&record) {
            Ok(pair) => {
                entries.push(pair);
                load.loaded += 1;
                load.appended += usize::from(at >= base);
            }
            Err(_) => load.skipped += 1,
        }
    }
    Ok((entries, load))
}

/// Replaces the spill file with a fresh base holding `entries`, then
/// fsyncs its directory (the `cache.spill` failpoint injects faults).
/// This is the only full write: the server calls it for the first spill
/// and to compact.
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
    sealed::replace(path, render_cache_file(entries).as_bytes(), faults, "cache.spill")?;
    // Later spills append to the renamed file, so its directory entry
    // must be as durable as their records.
    sealed::sync_dir(path)
}

/// Appends `entries` to an existing spill file as sealed records, one
/// durable append. A missing file is an error, so records never land
/// without a header. The `cache.spill` failpoint injects faults:
/// `short` leaves half the bytes on disk, a torn tail that warm start
/// skips; `err`/`enospc` fail before writing.
///
/// # Errors
///
/// Returns [`std::io::Error`] from the open, write, or sync. The file
/// may then end in a torn record, so the caller must compact before
/// appending again; every record of earlier spills survives.
pub fn append_cache_file(
    path: &Path,
    entries: &[(u64, Arc<CostReport>)],
    faults: &FailSet,
) -> std::io::Result<()> {
    sealed::append(path, render_records(entries).as_bytes(), faults, "cache.spill")
}

/// Best-effort load: a missing, unreadable, or corrupt file is a cold
/// start (empty result), never an error. Bytes that are not UTF-8 (a
/// flipped high bit) cost only the record they land in.
pub fn read_cache_file(path: &Path) -> (Vec<(u64, CostReport)>, CacheLoad) {
    let Ok(text) = sealed::read(path) else {
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
    fn over_long_level_lists_skip_their_record() {
        // No report holds more than MAX_LEVELS levels, so a correctly
        // sealed record listing more (a 4-fanout PE array, say) is
        // corrupt: warm start skips and counts it, and loads the rest.
        let entries = sample_entries();
        let base = render_cache_file(&entries);
        let record = Records::new(&base).nth(1).expect("a first entry").to_section();
        let four = |item: &str| [item; 4].join(",");
        let traffic = ["1"; 4 * 4].join(",");
        for (field, value) in [
            ("hw_fanouts", four("2")),
            ("hw_mid_words", four("8")),
            ("buf_mid_words", four("8")),
            ("noc_cycles", four(&f64_to_text(1.0))),
            ("traffic", traffic),
        ] {
            let mut long = record.clone();
            let slot = long.entries.iter_mut().find(|(key, _)| key == field).expect("rendered");
            slot.1 = value;
            let (back, load) = parse_cache_file(&(base.clone() + &sealed::seal(&long))).unwrap();
            assert_eq!(load.skipped, 1, "a {field} list of 4 levels is skipped");
            assert_eq!(back.len(), entries.len(), "{field}: every other record loads");
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
    fn appends_need_a_base_and_reload_after_it() {
        let dir =
            std::env::temp_dir().join(format!("digamma-cachefile-append-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fitness-memo.cache");
        let entries = sample_entries();
        let faults = FailSet::new();
        assert!(append_cache_file(&path, &entries, &faults).is_err(), "no base, no append");
        assert!(!path.exists(), "a failed append never creates a headerless file");
        write_cache_file(&path, &entries[..2], &faults).unwrap();
        append_cache_file(&path, &entries[2..], &faults).unwrap();
        let (back, load) = read_cache_file(&path);
        let appended = entries.len() - 2;
        assert_eq!(load, CacheLoad { loaded: entries.len(), skipped: 0, appended });
        for ((ka, ra), (kb, rb)) in entries.iter().zip(&back) {
            assert_eq!(ka, kb);
            assert_report_bits(ra, rb);
        }
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
