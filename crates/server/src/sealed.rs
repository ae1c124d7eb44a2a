//! Sealed records: the one module that writes and reads the checkpoint
//! directory.
//!
//! The job journal, the fitness-memo file and snapshots are documents of
//! [`crate::textio`] records. They share one record layout, one reader
//! and one write path, all here:
//!
//! ```text
//!                           # a blank line opens every record
//! [name]
//! crc = 4b6e9a21cc03fd10    # FNV-1a 64 of the record without this line
//! key = value               # the fields, in order
//! ```
//!
//! * [`seal_into`] renders a record straight into a buffer: the caller
//!   writes the field lines, and the `crc` is filled in over them
//!   afterwards. [`seal`] renders a [`Section`] through it. The blank line
//!   comes *before* a record, so the partial last line of a torn append is
//!   ended by the next record's own newline and never glues onto that
//!   record's header. The `crc` comes first, so a torn record keeps the
//!   checksum that convicts it.
//! * [`Records`] reads a document's records as borrowed lines and checks
//!   each `crc` over the lines as read: one loop over a line's bytes
//!   finds its end and its first `=` and hashes it. A line that is
//!   neither a `[name]` header nor `key = value` is junk and ends the
//!   record it interrupts, so damage costs at most the record it lands
//!   in. A record without a `crc` line is reported [`Seal::Unsealed`];
//!   each format decides whether its version allows one. [`read`]
//!   decodes lossily: a byte that is not UTF-8 becomes U+FFFD, which no
//!   `crc` matches.
//! * [`append`] writes through a named failpoint, then `sync_data`s.
//!   [`replace`] writes a temporary file, fsyncs it and renames it over
//!   the target. [`sync_dir`] fsyncs the directory, which makes renames
//!   and removals in it durable.
//!
//! # Crash model
//!
//! After a power cut a file keeps every write its last fsync covered; a
//! later write may survive whole, torn, or not at all. A rename or a
//! removal survives only once its directory was fsynced (the model ALICE
//! enumerates: Pillai et al., OSDI 2014). Hence:
//!
//! * a journal append returns only after its `sync_data`, so a submit is
//!   durable before it is acknowledged. The journal's creation fsyncs the
//!   directory once, so the file those appends land in keeps its name;
//! * a memo base fsyncs the directory for the same reason: later spills
//!   append to it;
//! * snapshot renames do **not** fsync the directory. A lost rename
//!   leaves the previous whole snapshot (or none), and resuming from an
//!   earlier generation boundary is bit-identical (`tests/resume.rs`), so
//!   a lost rename repeats generations and never changes a result. A
//!   directory fsync on every rename cost `serve-persist` a median 8% of
//!   its `jobs_per_s` (6 of 6 alternating pairs lower).
//!
//! In test builds every create, write, fsync, rename, removal and
//! directory fsync made on the calling thread is logged, and the unit
//! test below rebuilds every crash state that the log of a scripted
//! history allows. A write that one thread queues and another runs
//! carries the queuing thread's log along ([`OpLog`]), so the history
//! includes the background snapshot writer's writes.

use crate::textio::{self, Section};
use digamma_obs::{FailAction, FailSet};
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// The FNV-1a 64 offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a 64 step: `hash` continued over the byte `b`.
fn fnv64_step(hash: u64, b: u8) -> u64 {
    (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
}

/// FNV-1a 64 — the stable hash family the cache keys use — continued
/// from `hash` over `bytes`, so a record can be hashed line by line.
fn fnv64_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| fnv64_step(h, b))
}

/// The hash of a record's `[name]` header line, which its `crc` covers
/// first.
fn header_hash(name: &str) -> u64 {
    fnv64_extend(fnv64_extend(fnv64_extend(FNV_OFFSET, b"["), name.as_bytes()), b"]\n")
}

/// Appends the record `name` to `out`, sealed: a blank line, its `[name]`
/// header, its `crc` line, then the `key = value` lines that `fields`
/// appends, each ending in a newline. The `crc` is FNV-1a 64 over the
/// record without that line (the header, then the fields) as 16 hex
/// digits; it is written as zeros and filled in once the fields are.
pub(crate) fn seal_into(out: &mut String, name: &str, fields: impl FnOnce(&mut String)) {
    out.push_str("\n[");
    out.push_str(name);
    out.push_str("]\ncrc = ");
    let crc_at = out.len();
    out.push_str("0000000000000000\n");
    let fields_at = out.len();
    fields(out);
    let crc = fnv64_extend(header_hash(name), &out.as_bytes()[fields_at..]);
    out.replace_range(crc_at..crc_at + 16, textio::hex(crc).as_str());
}

/// Renders `record` sealed, through [`seal_into`].
pub(crate) fn seal(record: &Section) -> String {
    let mut out = String::new();
    seal_into(&mut out, &record.name, |out| {
        for (key, value) in &record.entries {
            for part in [key.as_str(), " = ", value.as_str(), "\n"] {
                out.push_str(part);
            }
        }
    });
    out
}

/// How a record's `crc` line reads against the rest of the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Seal {
    /// The `crc` matches the lines as read.
    Intact,
    /// The `crc` does not match them, or does not parse.
    Broken,
    /// The record has no `crc` line.
    Unsealed,
}

/// One record as [`Records`] reads it, borrowed from the document.
#[derive(Debug)]
pub(crate) struct Record<'a> {
    /// The header's name; empty when junk cut the fields off from it.
    pub(crate) name: &'a str,
    /// The trimmed `key = value` pairs in order, without the `crc` line.
    pub(crate) fields: Vec<(&'a str, &'a str)>,
    pub(crate) seal: Seal,
}

impl<'a> Record<'a> {
    /// The first value for `key`.
    pub(crate) fn get(&self, key: &str) -> Option<&'a str> {
        self.fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// The record as an owned [`Section`].
    pub(crate) fn to_section(&self) -> Section {
        let mut section = Section::new(self.name);
        section.entries = self.fields.iter().map(|&(k, v)| (k.to_owned(), v.to_owned())).collect();
        section
    }
}

/// One line of a document, as [`Records`] reads it.
enum Line<'a> {
    Blank,
    /// A `[name]` header.
    Header(&'a str),
    /// A `key = value` line, trimmed.
    Field(&'a str, &'a str),
    /// Anything else: damage.
    Junk,
}

impl Line<'_> {
    /// Classifies `raw`, whose first `=` is at byte `eq` (past its end
    /// when it has none). One that opens with `[` but does not close with
    /// `]` is junk, not a field: a header glued to the next line by a
    /// damaged newline must end the record before it.
    fn classify(raw: &str, eq: usize) -> Line<'_> {
        // Trimming moves no `=`, so a line with one opens with `[` just
        // when the part before its `=` does.
        if eq < raw.len() {
            let key = textio::trim(&raw[..eq]);
            if !key.starts_with('[') {
                return Line::Field(key, textio::trim(&raw[eq + 1..]));
            }
        }
        let line = textio::trim(raw);
        if line.is_empty() {
            Line::Blank
        } else if let Some(rest) = line.strip_prefix('[') {
            rest.strip_suffix(']').map_or(Line::Junk, |name| Line::Header(textio::trim(name)))
        } else {
            Line::Junk
        }
    }
}

/// The records of a document. A record opens at a `[name]` line, or
/// nameless at a `key = value` line that junk cut off from its header;
/// the next header or a junk line closes it.
#[derive(Debug)]
pub(crate) struct Records<'a> {
    /// The document, and where its next line starts.
    text: &'a str,
    at: usize,
    /// The next record's opening, already read: its name, and the first
    /// field of a nameless record (the line and where its `=` is).
    next: Option<(&'a str, Option<(&'a str, usize)>)>,
    /// Junk lines read so far.
    pub(crate) junk: usize,
    /// The name of a record junk cut off from its header.
    nameless: &'a str,
    /// The fields of the record being read, reused across records: each
    /// record's own list is copied out of it once, at its final size.
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Records<'a> {
    pub(crate) fn new(text: &'a str) -> Records<'a> {
        Records { text, at: 0, next: None, junk: 0, nameless: "", fields: Vec::new() }
    }

    /// Reads a record that junk cut off from its header as `name`, for
    /// documents whose records all share one; otherwise its name is
    /// empty and its `crc` cannot match.
    pub(crate) fn nameless_as(self, name: &'a str) -> Records<'a> {
        Records { nameless: name, ..self }
    }

    /// Reads the next line as [`str::lines`] splits a document: up to a
    /// `\n`, less one `\r` before it. One loop over the line's bytes finds
    /// its end and its first `=`, and continues `hash` over it. Returns
    /// the line, where its `=` is (past its end when it has none), and
    /// the hash.
    fn line(&mut self, hash: u64) -> Option<(&'a str, usize, u64)> {
        let rest = &self.text[self.at..];
        if rest.is_empty() {
            return None;
        }
        let (mut hashed, mut eq, mut end) = (hash, usize::MAX, rest.len());
        for (at, &b) in rest.as_bytes().iter().enumerate() {
            if b == b'\n' {
                end = at;
                break;
            }
            hashed = fnv64_step(hashed, b);
            eq = eq.min(if b == b'=' { at } else { usize::MAX });
        }
        let mut raw = &rest[..end];
        if end < rest.len() {
            self.at += end + 1;
            if let Some(line) = raw.strip_suffix('\r') {
                raw = line;
                hashed = fnv64_extend(hash, raw.as_bytes());
            }
        } else {
            self.at = self.text.len();
        }
        Some((raw, eq, hashed))
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = Record<'a>;

    fn next(&mut self) -> Option<Record<'a>> {
        let (name, mut first) = loop {
            if let Some(opening) = self.next.take() {
                break opening;
            }
            let (raw, eq, _) = self.line(FNV_OFFSET)?;
            match Line::classify(raw, eq) {
                Line::Header(name) => self.next = Some((name, None)),
                Line::Field(..) => self.next = Some((self.nameless, Some((raw, eq)))),
                Line::Blank => {}
                Line::Junk => self.junk += 1,
            }
        };
        // The bytes `seal_into` hashed: the header, then each other line
        // with its newline.
        let mut hash = header_hash(name);
        let mut declared = None;
        self.fields.clear();
        loop {
            let (raw, eq, hashed) = match first.take() {
                Some((raw, eq)) => (raw, eq, fnv64_extend(hash, raw.as_bytes())),
                None => match self.line(hash) {
                    Some(line) => line,
                    None => break,
                },
            };
            match Line::classify(raw, eq) {
                Line::Blank => {}
                Line::Header(next) => {
                    self.next = Some((next, None));
                    break;
                }
                Line::Junk => {
                    self.junk += 1;
                    break;
                }
                Line::Field("crc", crc) if declared.is_none() => declared = Some(crc),
                Line::Field(key, value) => {
                    hash = fnv64_step(hashed, b'\n');
                    self.fields.push((key, value));
                }
            }
        }
        let seal = match declared {
            None => Seal::Unsealed,
            Some(crc) if textio::u64_from_hex(crc) == Ok(hash) => Seal::Intact,
            Some(_) => Seal::Broken,
        };
        Some(Record { name, fields: self.fields.to_vec(), seal })
    }
}

/// Reads a whole document. Bytes that are not UTF-8 decode to U+FFFD,
/// which no `crc` matches, so they cost the record they land in.
///
/// # Errors
///
/// Returns [`io::Error`] when the file cannot be read.
pub(crate) fn read(path: &Path) -> io::Result<String> {
    let bytes = std::fs::read(path)?;
    Ok(String::from_utf8(bytes)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()))
}

/// Writes `bytes` to `file`, open at `path`, through the named
/// failpoint: `short` writes half of them and fails (a torn write),
/// `err`/`enospc` fail before writing anything.
fn write(
    file: &mut File,
    path: &Path,
    bytes: &[u8],
    faults: &FailSet,
    point: &str,
) -> io::Result<()> {
    let action = faults.fired(point);
    if let Some(e) = action.and_then(|a| a.to_io_error(point)) {
        return Err(e);
    }
    let torn = action == Some(FailAction::Short);
    let written = if torn { &bytes[..bytes.len() / 2] } else { bytes };
    file.write_all(written)?;
    #[cfg(test)]
    oplog::record(oplog::Op::Write(path.to_owned(), written.to_vec()));
    if torn {
        return Err(io::Error::other(format!(
            "injected torn write to {} at failpoint {point:?}",
            path.display()
        )));
    }
    Ok(())
}

/// Flushes the data of `file`, open at `path`, to disk.
#[cfg_attr(not(test), allow(unused_variables))]
fn sync_data(file: &File, path: &Path) -> io::Result<()> {
    file.sync_data()?;
    #[cfg(test)]
    oplog::record(oplog::Op::Fsync(path.to_owned()));
    Ok(())
}

/// Appends `bytes` to the existing file at `path` through the named
/// failpoint, then `sync_data`s it: once this returns, the bytes survive
/// a power cut. A missing file fails before the failpoint is consulted.
///
/// # Errors
///
/// Returns [`io::Error`] from the open, write or sync. The file may then
/// end in a torn record.
pub(crate) fn append(path: &Path, bytes: &[u8], faults: &FailSet, point: &str) -> io::Result<()> {
    let mut file = std::fs::OpenOptions::new().append(true).open(path)?;
    write(&mut file, path, bytes, faults, point)?;
    sync_data(&file, path)
}

/// Replaces the file at `path` with `bytes`: write a temporary file
/// beside it through the named failpoint, fsync it, rename it over
/// `path`. A kill or power cut at any instant leaves the old file or the
/// new one, never a hybrid; the rename itself is durable only after a
/// [`sync_dir`].
///
/// # Errors
///
/// Returns [`io::Error`] from the write, sync or rename; the previous
/// file at `path` is then intact.
pub(crate) fn replace(path: &Path, bytes: &[u8], faults: &FailSet, point: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    #[cfg(test)]
    oplog::record(oplog::Op::Create(tmp.clone()));
    write(&mut file, &tmp, bytes, faults, point)?;
    sync_data(&file, &tmp)?;
    std::fs::rename(&tmp, path)?;
    #[cfg(test)]
    oplog::record(oplog::Op::Rename(tmp, path.to_owned()));
    Ok(())
}

/// Fsyncs the directory holding `path`, so that renames and removals in
/// it survive a power cut.
///
/// # Errors
///
/// Returns [`io::Error`] when the directory cannot be opened or synced.
pub(crate) fn sync_dir(path: &Path) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()?;
    #[cfg(test)]
    oplog::record(oplog::Op::DirFsync);
    Ok(())
}

/// Removes the file at `path`, without a directory fsync.
///
/// # Errors
///
/// Returns [`io::Error`] when the file cannot be removed.
pub(crate) fn remove(path: &Path) -> io::Result<()> {
    std::fs::remove_file(path)?;
    #[cfg(test)]
    oplog::record(oplog::Op::Remove(path.to_owned()));
    Ok(())
}

/// The calling thread's crash-test log, carried by a write that one
/// thread queues and another runs, so that the write is logged as the
/// queuing thread's own. It holds nothing outside test builds.
#[derive(Debug, Default)]
pub(crate) struct OpLog {
    #[cfg(test)]
    log: Option<oplog::Shared>,
}

impl OpLog {
    /// The calling thread's log.
    pub(crate) fn current() -> OpLog {
        OpLog {
            #[cfg(test)]
            log: oplog::current(),
        }
    }

    /// Logs the calling thread's file operations into this log from now
    /// on, marked as handed off.
    pub(crate) fn adopt(&self) {
        #[cfg(test)]
        oplog::adopt(self.log.clone());
    }
}

/// The per-thread log of file operations the crash-state test replays.
#[cfg(test)]
mod oplog {
    use std::cell::RefCell;
    use std::path::PathBuf;
    use std::sync::{Arc, Mutex};

    /// One file operation, as the crash model sees it.
    #[derive(Debug, Clone)]
    pub(super) enum Op {
        /// A new, empty file at this path.
        Create(PathBuf),
        /// Bytes appended to the file at this path.
        Write(PathBuf, Vec<u8>),
        /// `sync_data` of the file at this path.
        Fsync(PathBuf),
        /// A rename from the first path to the second.
        Rename(PathBuf, PathBuf),
        Remove(PathBuf),
        /// An fsync of the directory (the test keeps all files in one).
        DirFsync,
    }

    /// A log, shared by the thread that started it and every thread that
    /// runs a write it queued. Each operation comes with whether a thread
    /// that adopted the log ran it.
    pub(super) type Shared = Arc<Mutex<Vec<(Op, bool)>>>;

    thread_local! {
        /// `None` until [`start`] or [`adopt`]: other tests on other
        /// threads log nothing. The flag is set on an adopting thread.
        static LOG: RefCell<Option<(Shared, bool)>> = const { RefCell::new(None) };
    }

    pub(super) fn record(op: Op) {
        LOG.with(|log| {
            if let Some((ops, adopted)) = log.borrow().as_ref() {
                ops.lock().expect("op log poisoned").push((op, *adopted));
            }
        });
    }

    /// Starts logging this thread's operations.
    pub(super) fn start() {
        LOG.with(|log| *log.borrow_mut() = Some((Shared::default(), false)));
    }

    /// This thread's log, if it keeps one.
    pub(super) fn current() -> Option<Shared> {
        LOG.with(|log| log.borrow().as_ref().map(|(ops, _)| Arc::clone(ops)))
    }

    /// Logs this thread's operations into `ops` (or nowhere), marked as
    /// handed off.
    pub(super) fn adopt(ops: Option<Shared>) {
        LOG.with(|log| *log.borrow_mut() = ops.map(|ops| (ops, true)));
    }

    /// How many operations were logged so far.
    pub(super) fn len() -> usize {
        current().map_or(0, |ops| ops.lock().expect("op log poisoned").len())
    }

    /// Stops logging on this thread and returns the log.
    pub(super) fn take() -> Vec<(Op, bool)> {
        let ops = LOG.with(|log| log.borrow_mut().take()).map(|(ops, _)| ops);
        ops.map(|ops| std::mem::take(&mut *ops.lock().expect("op log poisoned")))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::oplog::{self, Op};
    use super::*;
    use crate::cachefile::{read_cache_file, render_cache_file};
    use crate::{
        JobAlgorithm, JobId, JobSpec, JobStatus, Journal, SearchServer, ServerConfig, Snapshot,
    };
    use digamma::Objective;
    use digamma_costmodel::Platform;
    use digamma_workload::zoo;
    use std::collections::{BTreeSet, HashMap, HashSet};
    use std::sync::Arc;

    #[test]
    fn sealed_records_read_back_intact_and_damage_is_reported() {
        let mut record = Section::new("entry");
        record.push("key", "00ff");
        record.push("value", "a = b");
        let sealed = seal(&record);
        assert!(sealed.starts_with("\n[entry]\ncrc = "), "{sealed}");
        let text = format!("[head]\nversion = 1\n{sealed}{}", sealed.replace("00ff", "00fe"));
        let mut records = Records::new(&text);
        let read: Vec<Record> = records.by_ref().collect();
        let seals: Vec<(&str, Seal)> = read.iter().map(|r| (r.name, r.seal)).collect();
        let expected = [("head", Seal::Unsealed), ("entry", Seal::Intact), ("entry", Seal::Broken)];
        assert_eq!(seals, expected);
        assert_eq!(read[1].to_section(), record, "the crc line is not a field");
        assert_eq!(read[1].get("value"), Some("a = b"));
        assert_eq!(records.junk, 0);
        // A torn record is convicted alone: the blank line that opens the
        // next record ends its partial last line.
        let torn = format!("{}{sealed}", &sealed[..sealed.len() - 3]);
        let read: Vec<(&str, Seal)> = Records::new(&torn).map(|r| (r.name, r.seal)).collect();
        assert_eq!(read, [("entry", Seal::Broken), ("entry", Seal::Intact)]);
        // A header that lost its `]` is junk, and the fields after it form
        // a nameless record, which verifies only under the name it had.
        let damaged = sealed.replacen("[entry]", "[entry", 1);
        let mut records = Records::new(&damaged);
        let read: Vec<(&str, Seal)> = records.by_ref().map(|r| (r.name, r.seal)).collect();
        assert_eq!((read, records.junk), (vec![("", Seal::Broken)], 1));
        let read: Vec<Seal> = Records::new(&damaged).nameless_as("entry").map(|r| r.seal).collect();
        assert_eq!(read, [Seal::Intact]);
    }

    /// A line's class as the reader found it before it split and hashed
    /// lines itself: with `str::trim` and `split_once`.
    fn classify_with_std(raw: &str) -> (u8, &str, &str) {
        let line = raw.trim();
        if line.is_empty() {
            (0, "", "")
        } else if let Some(rest) = line.strip_prefix('[') {
            rest.strip_suffix(']').map_or((3, "", ""), |name| (1, name.trim(), ""))
        } else if let Some((key, value)) = line.split_once('=') {
            (2, key.trim(), value.trim())
        } else {
            (3, "", "")
        }
    }

    #[test]
    fn lines_split_hash_and_classify_as_str_lines_and_trim_do() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let pieces = [
            "\r", "\n", "\r\n", "=", "[", "]", "a", "é", " ", "\t", "\u{b}", "\u{85}", "\u{a0}",
            "\u{3000}",
        ];
        let mut rng = SmallRng::seed_from_u64(27);
        for _ in 0..20_000 {
            let len = rng.gen_range(0..16usize);
            let text: String = (0..len).map(|_| pieces[rng.gen_range(0..pieces.len())]).collect();
            let mut records = Records::new(&text);
            let mut lines = Vec::new();
            while let Some((raw, eq, hash)) = records.line(FNV_OFFSET) {
                assert_eq!(hash, fnv64_extend(FNV_OFFSET, raw.as_bytes()), "{text:?}");
                assert_eq!(raw.find('='), Some(eq).filter(|&eq| eq < raw.len()), "{raw:?}");
                let class = match Line::classify(raw, eq) {
                    Line::Blank => (0, "", ""),
                    Line::Header(name) => (1, name, ""),
                    Line::Field(key, value) => (2, key, value),
                    Line::Junk => (3, "", ""),
                };
                assert_eq!(class, classify_with_std(raw), "{raw:?}");
                lines.push(raw);
            }
            assert_eq!(lines, text.lines().collect::<Vec<_>>(), "{text:?}");
        }
    }

    /// One file's life in the log: its writes, and how many of them each
    /// fsync covered, each with its position in the log.
    #[derive(Default)]
    struct Inode {
        writes: Vec<(usize, Vec<u8>)>,
        fsyncs: Vec<(usize, usize)>,
    }

    /// The crash model of one log: the files written, and the renames and
    /// removals that bind names to them.
    #[derive(Default)]
    struct Model {
        inodes: Vec<Inode>,
        /// Each rename onto a path (`Some` of the file) or removal of it
        /// (`None`), with its position in the log.
        bindings: Vec<(usize, PathBuf, Option<usize>)>,
        dir_fsyncs: Vec<usize>,
    }

    impl Model {
        fn new(ops: &[Op]) -> Model {
            let mut model = Model::default();
            // The names as the running process saw them.
            let mut names: HashMap<PathBuf, usize> = HashMap::new();
            for (at, op) in ops.iter().enumerate() {
                match op {
                    Op::Create(path) => {
                        names.insert(path.clone(), model.inodes.len());
                        model.inodes.push(Inode::default());
                    }
                    Op::Write(path, bytes) => {
                        model.inodes[names[path]].writes.push((at, bytes.clone()))
                    }
                    Op::Fsync(path) => {
                        let inode = &mut model.inodes[names[path]];
                        inode.fsyncs.push((at, inode.writes.len()));
                    }
                    Op::Rename(from, to) => {
                        let inode = names.remove(from).expect("renamed files exist");
                        names.insert(to.clone(), inode);
                        model.bindings.push((at, to.clone(), Some(inode)));
                    }
                    Op::Remove(path) => {
                        names.remove(path);
                        model.bindings.push((at, path.clone(), None));
                    }
                    Op::DirFsync => model.dir_fsyncs.push(at),
                }
            }
            model
        }

        /// Every content the file at `path` may hold after a crash once
        /// the first `prefix` operations ran (`None`: no file).
        /// Renames and removals before the last directory fsync hold;
        /// each later one holds or is lost.
        fn states(&self, path: &Path, prefix: usize) -> BTreeSet<Option<Vec<u8>>> {
            let synced = self.dir_fsyncs.iter().filter(|&&at| at < prefix).max().copied();
            let (sure, unsure): (Vec<_>, Vec<_>) = self
                .bindings
                .iter()
                .filter(|(at, p, _)| *at < prefix && p == path)
                .partition(|(at, _, _)| synced.is_some_and(|s| *at < s));
            assert!(unsure.len() <= 12, "{} unsynced renames of {}", unsure.len(), path.display());
            let durable = sure.last().and_then(|(_, _, inode)| *inode);
            let mut states = BTreeSet::new();
            for kept in 0..1u32 << unsure.len() {
                let bound = (0..unsure.len())
                    .rfind(|i| kept >> i & 1 == 1)
                    .map_or(durable, |i| unsure[i].2);
                match bound {
                    None => {
                        states.insert(None);
                    }
                    Some(inode) => {
                        states.extend(self.contents(inode, prefix).into_iter().map(Some))
                    }
                }
            }
            states
        }

        /// Every content a file may hold after that crash: the writes its
        /// last fsync covered, then each later write whole, torn in half,
        /// or lost. A lost write under a later one leaves zeros.
        fn contents(&self, inode: usize, prefix: usize) -> Vec<Vec<u8>> {
            let inode = &self.inodes[inode];
            let writes: Vec<&[u8]> =
                inode.writes.iter().filter(|(at, _)| *at < prefix).map(|(_, b)| &b[..]).collect();
            let covered = inode
                .fsyncs
                .iter()
                .filter(|(at, _)| *at < prefix)
                .map(|&(_, n)| n)
                .max()
                .unwrap_or(0);
            let mut states = vec![writes[..covered].concat()];
            let mut offset = states[0].len();
            for write in &writes[covered..] {
                states = states
                    .into_iter()
                    .flat_map(|state| {
                        [write.len(), write.len() / 2, 0].map(|keep| {
                            let mut state = state.clone();
                            if keep > 0 {
                                state.resize(offset, 0);
                                state.extend_from_slice(&write[..keep]);
                            }
                            state
                        })
                    })
                    .collect();
                offset += write.len();
            }
            states
        }
    }

    fn small_job(name: &str, seed: u64) -> JobSpec {
        let mut spec = JobSpec::new(
            name,
            zoo::ncf(),
            Platform::edge(),
            Objective::Latency,
            JobAlgorithm::DiGamma,
        );
        spec.budget = 40;
        spec.population_size = 8;
        spec.seed = seed;
        spec.threads = 1;
        spec.checkpoint_every = Some(1);
        spec
    }

    /// Writes a crash state's file (or its absence) to `path`.
    fn materialize(path: &Path, state: &Option<Vec<u8>>) {
        match state {
            Some(bytes) => std::fs::write(path, bytes).unwrap(),
            None => {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    /// Runs a scripted history — submit, run and finish job 1, then job 2
    /// with another seed — logging every file operation, the background
    /// snapshot writer's included, then rebuilds each crash state the log
    /// allows and recovers from it. Each check reads one file, so the
    /// states of each file are enumerated on their own: that covers every
    /// combination of them.
    #[test]
    fn every_crash_state_recovers_acknowledged_submits_and_whole_records() {
        let dir = std::env::temp_dir().join(format!("digamma-sealed-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("jobs.journal");
        let memo_path = dir.join("fitness-memo.cache");
        let server = SearchServer::new(ServerConfig {
            workers: 1,
            checkpoint_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        // Each generation takes a few milliseconds, so the writer takes a
        // queued snapshot before the next one or completion supersedes it.
        server.faults().configure("worker.eval=delay:3").unwrap();
        let journal = Journal::new(&journal_path);
        oplog::start();
        // Each acknowledged submit, with the log length at its ack.
        let mut acked: Vec<(JobId, usize)> = Vec::new();
        for (id, seed) in [(1, 11), (2, 22)] {
            let spec = small_job(&format!("job-{id}"), seed);
            journal.append_submitted(id, &spec).unwrap();
            acked.push((id, oplog::len()));
            let report = server.run_job(&spec);
            assert!(report.generations >= 2 && report.cache_insertions > 0, "{report:?}");
            journal.append_finished(id, JobStatus::Done).unwrap();
        }
        let (ops, handed_off): (Vec<Op>, Vec<bool>) = oplog::take().into_iter().unzip();
        let model = Model::new(&ops);

        // The history has the shape the crash model must cover: the
        // journal and the memo base are each created by one rename, job
        // 2's spill appends to that base, and both jobs snapshot.
        let renames_onto = |path: &Path| {
            model.bindings.iter().filter(|(_, p, i)| p == path && i.is_some()).count()
        };
        assert_eq!((renames_onto(&journal_path), renames_onto(&memo_path)), (1, 1));
        assert!(
            ops.iter().any(|op| matches!(op, Op::Write(p, _) if *p == memo_path)),
            "no memo append"
        );
        let snapshot_paths: BTreeSet<&PathBuf> = model
            .bindings
            .iter()
            .map(|(_, path, _)| path)
            .filter(|p| p.extension().is_some_and(|e| e == "snapshot"))
            .collect();
        assert_eq!(snapshot_paths.len(), 2, "{snapshot_paths:?}");
        assert!(
            ops.iter().zip(&handed_off).any(|(op, &handed_off)| handed_off
                && matches!(op, Op::Rename(_, to) if snapshot_paths.contains(to))),
            "no background snapshot write"
        );
        let whole_snapshots: HashSet<&[u8]> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Write(path, bytes) if path.to_string_lossy().ends_with(".snapshot.tmp") => {
                    Some(&bytes[..])
                }
                _ => None,
            })
            .collect();
        // Every memo entry as written, rendered bit-exactly.
        let written: HashMap<u64, String> = read_cache_file(&memo_path)
            .0
            .into_iter()
            .map(|(key, report)| (key, render_cache_file(&[(key, Arc::new(report))])))
            .collect();
        assert!(!written.is_empty());

        let probe = dir.join("probe");
        let mut replayed: HashMap<Option<Vec<u8>>, BTreeSet<JobId>> = HashMap::new();
        let (mut memos, mut snapshots) = (BTreeSet::new(), BTreeSet::new());
        for prefix in 0..=ops.len() {
            for state in model.states(&journal_path, prefix) {
                let ids = replayed.entry(state).or_insert_with_key(|state| {
                    materialize(&probe, state);
                    let replay = Journal::new(&probe).replay().expect("replay never fails");
                    replay
                        .pending
                        .iter()
                        .map(|(id, _)| *id)
                        .chain(replay.finished.iter().map(|(id, _)| *id))
                        .collect()
                });
                for (id, at) in &acked {
                    assert!(
                        *at > prefix || ids.contains(id),
                        "a crash after {prefix} of {} operations lost acknowledged job {id}",
                        ops.len()
                    );
                }
            }
            memos.extend(model.states(&memo_path, prefix));
            for path in &snapshot_paths {
                snapshots.extend(model.states(path, prefix));
            }
        }
        for state in &memos {
            materialize(&probe, state);
            for (key, report) in read_cache_file(&probe).0 {
                let loaded = render_cache_file(&[(key, Arc::new(report))]);
                assert_eq!(
                    written.get(&key),
                    Some(&loaded),
                    "a crash state altered memo entry {key:016x}"
                );
            }
        }
        for bytes in snapshots.iter().flatten() {
            std::fs::write(&probe, bytes).unwrap();
            if let Ok(snapshot) = Snapshot::parse(&read(&probe).unwrap()) {
                let rendered = snapshot.render();
                assert!(whole_snapshots.contains(rendered.as_bytes()), "a torn snapshot parsed");
            }
        }
        assert!(
            replayed.len() > 2 && memos.len() > 2 && snapshots.len() > 2,
            "the log left too few crash states"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
