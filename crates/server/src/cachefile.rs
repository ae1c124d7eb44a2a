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
//! ...                                      # 20 value fields in all
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
//! # The codec
//!
//! A spill renders every record straight into one buffer: its fields go
//! in as 16-hex-digit bit patterns and decimals, with no intermediate
//! string, and the seal is filled in over them. A load reads each record
//! in one pass (the `crc` is checked as its lines are read) and then
//! takes the fields in the order the writer emits them, falling back to
//! a lookup by name only for a field out of place.
//!
//! A load checks the header first, so no record of a stale file is ever
//! decoded. It then splits the document just before an `[entry]` line
//! at or past its midpoint and decodes the two halves at once, the second
//! on a scoped thread. The split is exact: a line that opens with `[` is
//! a header or junk, and either one closes the record before it, so the
//! halves read exactly the records one pass reads. The caller receives
//! the entries in file order on its own thread, and [`CacheLoad`] counts
//! them by their position in the whole file.
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
use crate::textio::{self, f64_from_text, TextError};
use digamma_costmodel::latency::{Bottleneck, LatencyBreakdown};
use digamma_costmodel::{
    analysis::LinkTraffic, cachekey::KEY_VERSION, BufferRequirement, CostReport, HwConfig, Levels,
    MAX_LEVELS,
};
use digamma_obs::FailSet;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::thread;

/// Current spill-file format version. Version 2 sealed every record
/// with a `crc` and let spills append records after the base.
pub const CACHE_FILE_VERSION: u64 = 2;

/// The fields of an `[entry]` record: its key and 20 values.
const ENTRY_FIELDS: usize = 21;

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

/// Appends the line `name = values`: the values comma-joined, each
/// written by `item`.
fn field<T>(
    out: &mut String,
    name: &str,
    values: impl IntoIterator<Item = T>,
    item: impl Fn(&mut String, T),
) {
    out.push_str(name);
    out.push_str(" = ");
    for (at, value) in values.into_iter().enumerate() {
        if at > 0 {
            out.push(',');
        }
        item(out, value);
    }
    out.push('\n');
}

/// An `f64` as its IEEE-754 bit pattern in 16 hex digits.
fn bits(out: &mut String, v: f64) {
    out.push_str(textio::hex(v.to_bits()).as_str());
}

/// An unsigned integer in decimal.
fn decimal(out: &mut String, v: impl std::fmt::Display) {
    write!(out, "{v}").expect("a String takes any text");
}

/// Appends one sealed `[entry]` record to `out`.
fn render_entry(out: &mut String, key: u64, report: &CostReport) {
    let (latency, hw, buffers) = (&report.latency, &report.hw, &report.buffers);
    sealed::seal_into(out, "entry", |out| {
        field(out, "key", [key], |out, key| out.push_str(textio::hex(key).as_str()));
        field(out, "latency_cycles", [report.latency_cycles], bits);
        field(out, "compute_cycles", [latency.compute_cycles], bits);
        field(out, "dram_cycles", [latency.dram_cycles], bits);
        field(out, "noc_cycles", latency.noc_cycles.iter().copied(), bits);
        field(out, "fill_cycles", [latency.fill_cycles], bits);
        field(out, "total_cycles", [latency.total_cycles], bits);
        field(out, "bottleneck", [latency.bottleneck], |out, bottleneck| match bottleneck {
            Bottleneck::Compute => out.push_str("compute"),
            Bottleneck::Dram => out.push_str("dram"),
            Bottleneck::Noc(i) => {
                out.push_str("noc:");
                decimal(out, i);
            }
        });
        field(out, "energy_pj", [report.energy_pj], bits);
        field(out, "area_um2", [report.area_um2], bits);
        field(out, "pe_area_um2", [report.pe_area_um2], bits);
        field(out, "hw_fanouts", hw.fanouts.iter().copied(), decimal);
        field(out, "hw_l2_words", [hw.l2_words], decimal);
        field(out, "hw_mid_words", hw.mid_words_per_unit.iter().copied(), decimal);
        field(out, "hw_l1_words", [hw.l1_words_per_pe], decimal);
        field(out, "buf_l2_words", [buffers.l2_words], decimal);
        field(out, "buf_mid_words", buffers.mid_words_per_unit.iter().copied(), decimal);
        field(out, "buf_l1_words", [buffers.l1_words_per_pe], decimal);
        // Four u128 counters per level, flattened in level order.
        let traffic = report.traffic.iter();
        let counters = traffic.flat_map(|t| [t.weight, t.input, t.output_write, t.output_read]);
        field(out, "traffic", counters, decimal);
        field(out, "utilization", [report.utilization], bits);
        field(out, "macs", [report.macs], decimal);
    });
}

fn u64s_from_text(s: &str) -> Result<Levels<u64>, TextError> {
    let bad = || TextError::new(format!("bad u64 list: {s:?}"));
    levels_from_text(s, |v| {
        textio::u128_from_decimal(v).ok().and_then(|v| u64::try_from(v).ok()).ok_or_else(bad)
    })
}

/// Parses a comma-joined per-level list straight into [`Levels`], each
/// item with `item`. No report holds more than [`MAX_LEVELS`] levels, so
/// a longer list is corrupt: an error, never a panic.
fn levels_from_text<T: Copy + Default>(
    s: &str,
    item: impl Fn(&str) -> Result<T, TextError>,
) -> Result<Levels<T>, TextError> {
    let s = textio::trim(s);
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

/// Parses the flattened traffic counters, four per level, straight into
/// [`Levels`]: a count that is not a multiple of 4, or over
/// `4 * MAX_LEVELS`, is corrupt.
fn traffic_from_text(s: &str) -> Result<Levels<LinkTraffic>, TextError> {
    let s = textio::trim(s);
    let mut traffic = Levels::default();
    if s.is_empty() {
        return Ok(traffic);
    }
    let (mut link, mut filled) = ([0u128; 4], 0);
    for v in s.split(',') {
        link[filled] = textio::u128_from_decimal(v)
            .map_err(|_| TextError::new(format!("bad u128 list: {s:?}")))?;
        filled += 1;
        if filled == link.len() {
            if traffic.len() == MAX_LEVELS {
                return Err(TextError::new(format!("more than {MAX_LEVELS} levels: {s:?}")));
            }
            let [weight, input, output_write, output_read] = link;
            traffic.push(LinkTraffic { weight, input, output_write, output_read });
            filled = 0;
        }
    }
    if filled != 0 {
        return Err(TextError::new(format!("bad traffic list: {s:?}")));
    }
    Ok(traffic)
}

/// An intact record's fields, taken in the order [`render_entry`] writes
/// them: each is looked for at its own position first, and by name only
/// when it is not there. Only a record of exactly the writer's fields is
/// read by position. There a name in place is the only one of its kind,
/// or another name is missing and the record fails anyway, so a repeated
/// name yields its first value, as a lookup by name does.
struct InOrder<'r, 'a> {
    record: &'r Record<'a>,
    in_order: bool,
    at: usize,
}

impl<'a> InOrder<'_, 'a> {
    /// The next field's value, which must be named `name`.
    fn text(&mut self, name: &str) -> Result<&'a str, TextError> {
        let found = match self.record.fields.get(self.at) {
            Some(&(key, value)) if self.in_order && key == name => Some(value),
            _ => self.record.get(name),
        };
        self.at += 1;
        found.ok_or_else(|| TextError::new(format!("[entry] is missing `{name}`")))
    }

    /// The next field as an `f64` bit pattern.
    fn bits(&mut self, name: &str) -> Result<f64, TextError> {
        f64_from_text(self.text(name)?)
    }

    /// The next field as a decimal number.
    fn number<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, TextError> {
        self.text(name)?.parse().map_err(|_| TextError::new(format!("bad `{name}` in [entry]")))
    }
}

/// Parses an intact `[entry]` record. Within an entry every field is
/// always rendered, so absence means corruption and the entry must be
/// skipped, never filled with a default that would silently poison
/// evaluations.
fn parse_entry(record: &Record) -> Result<(u64, CostReport), TextError> {
    if record.seal != Seal::Intact {
        return Err(TextError::new("[entry] does not match its crc"));
    }
    let in_order = record.fields.len() == ENTRY_FIELDS;
    let mut f = InOrder { record, in_order, at: 0 };
    let key = textio::u64_from_hex(f.text("key")?)
        .map_err(|_| TextError::new("bad entry key (need 16 hex digits)"))?;
    let latency_cycles = f.bits("latency_cycles")?;
    let compute_cycles = f.bits("compute_cycles")?;
    let dram_cycles = f.bits("dram_cycles")?;
    let noc_cycles = levels_from_text(f.text("noc_cycles")?, f64_from_text)?;
    let fill_cycles = f.bits("fill_cycles")?;
    let total_cycles = f.bits("total_cycles")?;
    let bottleneck = match f.text("bottleneck")? {
        "compute" => Bottleneck::Compute,
        "dram" => Bottleneck::Dram,
        other => match other.strip_prefix("noc:").and_then(|i| i.parse().ok()) {
            Some(i) => Bottleneck::Noc(i),
            None => return Err(TextError::new(format!("bad bottleneck {other:?}"))),
        },
    };
    // Struct fields evaluate in the order written: the writer's order.
    Ok((
        key,
        CostReport {
            latency_cycles,
            latency: LatencyBreakdown {
                compute_cycles,
                dram_cycles,
                noc_cycles,
                fill_cycles,
                total_cycles,
                bottleneck,
            },
            energy_pj: f.bits("energy_pj")?,
            area_um2: f.bits("area_um2")?,
            pe_area_um2: f.bits("pe_area_um2")?,
            hw: HwConfig {
                fanouts: u64s_from_text(f.text("hw_fanouts")?)?,
                l2_words: f.number("hw_l2_words")?,
                mid_words_per_unit: u64s_from_text(f.text("hw_mid_words")?)?,
                l1_words_per_pe: f.number("hw_l1_words")?,
            },
            buffers: BufferRequirement {
                l2_words: f.number("buf_l2_words")?,
                mid_words_per_unit: u64s_from_text(f.text("buf_mid_words")?)?,
                l1_words_per_pe: f.number("buf_l1_words")?,
            },
            traffic: traffic_from_text(f.text("traffic")?)?,
            utilization: f.bits("utilization")?,
            macs: f.number("macs")?,
        },
    ))
}

/// Renders `entries` as sealed records into `out`: what a base carries
/// after its header, and what an append adds.
fn render_records(out: &mut String, entries: &[(u64, Arc<CostReport>)]) {
    for (key, report) in entries {
        render_entry(out, *key, report);
    }
}

/// Renders a full spill document — a base — for the given memo entries.
pub fn render_cache_file(entries: &[(u64, Arc<CostReport>)]) -> String {
    let mut out = format!(
        "[fitness-memo]\nversion = {CACHE_FILE_VERSION}\nkey_version = {KEY_VERSION}\ncount = {}\n",
        entries.len()
    );
    render_records(&mut out, entries);
    out
}

/// Where [`decode`] splits `text`: just before the first `[entry]` line
/// that starts past its midpoint, or at its end when none does.
fn split_point(text: &str) -> usize {
    let mid = (0..=text.len() / 2).rev().find(|&at| text.is_char_boundary(at)).unwrap_or(0);
    text[mid..].find("\n[entry]").map_or(text.len(), |at| mid + at + 1)
}

/// Decodes a spill document: the base, then every appended record. A
/// header mismatch (wrong format or key version) decodes nothing; a
/// damaged record is skipped and counted. Each loaded report passes
/// through `make` on the thread that decoded it, then the entry goes to
/// `keep` on the calling thread, in file order.
///
/// # Errors
///
/// Returns [`TextError`] only when the document does not open with a
/// `[fitness-memo]` header.
fn decode<T: Send>(
    text: &str,
    make: impl Fn(CostReport) -> T + Sync,
    keep: impl FnMut(u64, T),
) -> Result<CacheLoad, TextError> {
    decode_split(text, split_point(text), make, keep)
}

/// [`decode`] with the document split at `split`, which must be the
/// start of a line that opens with `[` (or the end): the records before
/// it decode on the calling thread while those after it decode on a
/// scoped thread.
fn decode_split<T: Send>(
    text: &str,
    split: usize,
    make: impl Fn(CostReport) -> T + Sync,
    mut keep: impl FnMut(u64, T),
) -> Result<CacheLoad, TextError> {
    let (first, second) = text.split_at(split);
    let mut records = Records::new(first).nameless_as("entry");
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
        return Ok(CacheLoad::default());
    }
    let base: u64 = head.get("count").and_then(|v| v.parse().ok()).unwrap_or(0);
    let decode = |record: Record| parse_entry(&record).ok().map(|(key, r)| (key, make(r)));
    let rest = || Records::new(second).nameless_as("entry").map(&decode).collect::<Vec<_>>();
    let mut load = CacheLoad::default();
    let mut at = 0u64;
    let mut tally = |entry: Option<(u64, T)>| {
        match entry {
            Some((key, value)) => {
                keep(key, value);
                load.loaded += 1;
                load.appended += usize::from(at >= base);
            }
            None => load.skipped += 1,
        }
        at += 1;
    };
    thread::scope(|scope| {
        let spawned =
            (!second.is_empty()).then(|| thread::Builder::new().spawn_scoped(scope, rest));
        records.map(&decode).for_each(&mut tally);
        let rest = match spawned {
            None => Vec::new(),
            Some(Ok(handle)) => {
                handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }
            // No thread to be had: decode the rest here.
            Some(Err(_)) => rest(),
        };
        rest.into_iter().for_each(&mut tally);
    });
    Ok(load)
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
    let mut entries = Vec::new();
    let load = decode(text, |report| report, |key, report| entries.push((key, report)))?;
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
    let mut records = String::new();
    render_records(&mut records, entries);
    sealed::append(path, records.as_bytes(), faults, "cache.spill")
}

/// Best-effort load of the spill file at `path` through [`decode`]: a
/// missing, unreadable, or corrupt file is a cold start (nothing kept),
/// never an error. Bytes that are not UTF-8 (a flipped high bit) cost
/// only the record they land in.
pub(crate) fn load_cache_file<T: Send>(
    path: &Path,
    make: impl Fn(CostReport) -> T + Sync,
    keep: impl FnMut(u64, T),
) -> CacheLoad {
    let Ok(text) = sealed::read(path) else { return CacheLoad::default() };
    decode(&text, make, keep).unwrap_or_default()
}

/// Best-effort load: a missing, unreadable, or corrupt file is a cold
/// start (empty result), never an error. Bytes that are not UTF-8 (a
/// flipped high bit) cost only the record they land in.
pub fn read_cache_file(path: &Path) -> (Vec<(u64, CostReport)>, CacheLoad) {
    let mut entries = Vec::new();
    let load = load_cache_file(path, |report| report, |key, report| entries.push((key, report)));
    (entries, load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textio::{f64_to_text, Section};
    use digamma_costmodel::{Evaluator, Mapping, Platform};
    use digamma_workload::{zoo, Layer};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore};

    fn u64s_to_text(values: &[u64]) -> String {
        let rendered: Vec<String> = values.iter().map(u64::to_string).collect();
        rendered.join(",")
    }

    fn f64s_to_text(values: &[f64]) -> String {
        let rendered: Vec<String> = values.iter().map(|&v| f64_to_text(v)).collect();
        rendered.join(",")
    }

    fn u128s_to_text(values: &[u128]) -> String {
        let rendered: Vec<String> = values.iter().map(u128::to_string).collect();
        rendered.join(",")
    }

    /// The oracle: the record renderer this module had before records
    /// were rendered straight into one buffer. It builds a [`Section`] of
    /// owned fields and seals that.
    fn oracle_entry(key: u64, report: &CostReport) -> String {
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

    /// The oracle's rendering of a whole base.
    fn oracle_file(entries: &[(u64, Arc<CostReport>)]) -> String {
        let mut head = Section::new("fitness-memo");
        head.push("version", CACHE_FILE_VERSION.to_string());
        head.push("key_version", KEY_VERSION.to_string());
        head.push("count", entries.len().to_string());
        entries.iter().fold(head.render(), |text, (key, report)| text + &oracle_entry(*key, report))
    }

    /// One record as the codec renders it.
    fn rendered(key: u64, report: &CostReport) -> String {
        let mut out = String::new();
        render_entry(&mut out, key, report);
        out
    }

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
        // The header is checked before any record is decoded.
        let never = |_: CostReport| panic!("a record of a stale file was decoded");
        assert_eq!(decode(&wrong_key, never, |_, ()| {}).unwrap(), CacheLoad::default());
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

    /// One three-level record, byte for byte as the format has always
    /// written it, so that neither the renderer nor the oracle can drift.
    const PINNED: &str = "
[entry]
crc = 189de2a45f299958
key = 287ea8e42498b74c
latency_cycles = 40c2ba0000000000
compute_cycles = 40c2000000000000
dram_cycles = 4077400000000000
noc_cycles = 4048800000000000,4073800000000000
fill_cycles = 4077400000000000
total_cycles = 40c2ba0000000000
bottleneck = compute
energy_pj = 41320c8000000000
area_um2 = 40c73e6666666666
pe_area_um2 = 40a5e00000000000
hw_fanouts = 2,2,2
hw_l2_words = 2976
hw_mid_words = 1344
hw_l1_words = 64
buf_l2_words = 2976
buf_mid_words = 1344
buf_l1_words = 64
traffic = 1152,800,1024,0,1152,960,1024,0,4608,12288,2048,1024
utilization = 3ff0000000000000
macs = 73728
";

    #[test]
    fn a_three_level_record_renders_byte_for_byte() {
        let entries = sample_entries();
        let (key, report) = entries.last().expect("the three-level sample");
        assert_eq!(report.hw.fanouts.len(), 3);
        assert_eq!(oracle_entry(*key, report), PINNED);
        assert_eq!(rendered(*key, report), PINNED);
        let record = Records::new(PINNED).next().expect("one record");
        assert_eq!((record.seal, record.fields.len()), (Seal::Intact, ENTRY_FIELDS));
        let (back, _) = parse_entry(&record).unwrap();
        assert_eq!(back, *key);
    }

    /// Bit patterns the codec must carry exactly: NaN payloads of both
    /// signs, both zeros, both infinities, and subnormals.
    const AWKWARD_BITS: [u64; 10] = [
        0x7ff8_0000_dead_beef,
        0xfff0_0000_0000_0001,
        0x7fff_ffff_ffff_ffff,
        0,
        0x8000_0000_0000_0000,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        1,
        0x800f_ffff_ffff_ffff,
        0x3ff0_0000_0000_0000,
    ];

    fn draw_f64(rng: &mut SmallRng) -> f64 {
        let bits = if rng.gen_bool(0.5) {
            AWKWARD_BITS[rng.gen_range(0..AWKWARD_BITS.len())]
        } else {
            rng.next_u64()
        };
        f64::from_bits(bits)
    }

    /// A `u64` of any magnitude, up to `u64::MAX`.
    fn draw_u64(rng: &mut SmallRng) -> u64 {
        rng.next_u64() >> rng.gen_range(0..64u32)
    }

    /// A level list of 0 to 3 items.
    fn draw_levels<T: Copy + Default>(
        rng: &mut SmallRng,
        mut item: impl FnMut(&mut SmallRng) -> T,
    ) -> Levels<T> {
        (0..rng.gen_range(0..=MAX_LEVELS)).map(|_| item(rng)).collect()
    }

    /// Memo entries drawn to stress the codec rather than to be physical:
    /// raw `f64` bit patterns, 0 to 3 items in every level list, every
    /// bottleneck, traffic counters up to `u128::MAX` and `macs` up to
    /// `u64::MAX`.
    struct Entries;

    impl Strategy for Entries {
        type Value = Vec<(u64, Arc<CostReport>)>;

        fn sample(&self, runner: &mut TestRunner) -> Self::Value {
            let rng = runner.rng();
            let count = rng.gen_range(1..6usize);
            (0..count).map(|_| (rng.next_u64(), Arc::new(draw_report(rng)))).collect()
        }
    }

    fn draw_report(rng: &mut SmallRng) -> CostReport {
        let bottleneck = match rng.gen_range(0..3u32) {
            0 => Bottleneck::Compute,
            1 => Bottleneck::Dram,
            _ => Bottleneck::Noc(draw_u64(rng) as usize),
        };
        let counter = |rng: &mut SmallRng| {
            let wide = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
            wide >> rng.gen_range(0..128u32)
        };
        CostReport {
            latency_cycles: draw_f64(rng),
            latency: LatencyBreakdown {
                compute_cycles: draw_f64(rng),
                dram_cycles: draw_f64(rng),
                noc_cycles: draw_levels(rng, draw_f64),
                fill_cycles: draw_f64(rng),
                total_cycles: draw_f64(rng),
                bottleneck,
            },
            energy_pj: draw_f64(rng),
            area_um2: draw_f64(rng),
            pe_area_um2: draw_f64(rng),
            hw: HwConfig {
                fanouts: draw_levels(rng, draw_u64),
                l2_words: draw_u64(rng),
                mid_words_per_unit: draw_levels(rng, draw_u64),
                l1_words_per_pe: draw_u64(rng),
            },
            buffers: BufferRequirement {
                l2_words: draw_u64(rng),
                mid_words_per_unit: draw_levels(rng, draw_u64),
                l1_words_per_pe: draw_u64(rng),
            },
            traffic: draw_levels(rng, |rng| LinkTraffic {
                weight: counter(rng),
                input: counter(rng),
                output_write: counter(rng),
                output_read: counter(rng),
            }),
            utilization: draw_f64(rng),
            macs: draw_u64(rng),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-buffer renderer writes exactly the oracle's bytes, and
        /// parsing gives back every report bit for bit.
        #[test]
        fn rendering_matches_the_oracle_and_parses_back_bit_exactly(entries in Entries) {
            let text = render_cache_file(&entries);
            prop_assert_eq!(&text, &oracle_file(&entries));
            let (back, load) = parse_cache_file(&text).unwrap();
            prop_assert_eq!(load, CacheLoad { loaded: entries.len(), skipped: 0, appended: 0 });
            prop_assert_eq!(back.len(), entries.len());
            for ((ka, ra), (kb, rb)) in entries.iter().zip(&back) {
                prop_assert_eq!(ka, kb);
                assert_report_bits(ra, rb);
            }
        }
    }

    /// The entries a decode split at `split` keeps, each rendered, in the
    /// order kept, and its load.
    fn decode_at(text: &str, split: usize) -> (Vec<String>, CacheLoad) {
        let mut kept = Vec::new();
        let keep = |key, report: CostReport| kept.push(rendered(key, &report));
        let load = decode_split(text, split, |report| report, keep).unwrap();
        (kept, load)
    }

    #[test]
    fn every_split_decodes_what_one_pass_decodes() {
        let entries = sample_entries();
        let record = |i: usize| rendered(entries[i].0, &entries[i].1);
        let mut doc = render_cache_file(&entries[..3]).into_bytes();
        // A torn record: the blank line opening the next one ends it.
        doc.extend_from_slice(&record(3).as_bytes()[..300]);
        doc.extend_from_slice(record(4).as_bytes());
        // A junk line inside a record: the part before it fails its crc,
        // and the fields after it are a nameless record without one.
        doc.extend_from_slice(record(5).replacen("dram_cycles", "junk\ndram_cycles", 1).as_bytes());
        // A header that lost its `]`: a junk line, then a nameless record
        // that verifies under the name it had.
        doc.extend_from_slice(record(6).replacen("[entry]", "[entry", 1).as_bytes());
        // A byte that is not UTF-8.
        let mut flipped = record(0).into_bytes();
        let at = flipped.len() - 4;
        flipped[at] = 0xff;
        doc.extend_from_slice(&flipped);
        // A sealed record of four fan-outs.
        let mut long = Records::new(&record(1)).next().expect("a record").to_section();
        let slot = long.entries.iter_mut().find(|(key, _)| key == "hw_fanouts").expect("rendered");
        slot.1 = "2,2,2,2".to_owned();
        doc.extend_from_slice(sealed::seal(&long).as_bytes());
        // A duplicate key, then a whole record.
        doc.extend_from_slice(record(2).as_bytes());
        doc.extend_from_slice(record(3).as_bytes());
        let text = String::from_utf8_lossy(&doc).into_owned();

        let whole = decode_at(&text, text.len());
        assert_eq!(whole.1, CacheLoad { loaded: 7, skipped: 5, appended: 4 });
        let splits: Vec<usize> = text.match_indices("\n[entry").map(|(at, _)| at + 1).collect();
        assert_eq!(splits.len(), 11, "every record opens with an `[entry` line");
        for split in splits {
            assert_eq!(decode_at(&text, split), whole, "split at byte {split}");
        }
        assert_eq!(parse_cache_file(&text).unwrap().1, whole.1, "the midpoint split");
    }
}
