//! The job journal: a write-ahead text log that lets a killed service
//! resume its in-flight jobs.
//!
//! Snapshots alone cannot restart a service — they carry search *state*
//! but not the submitted [`JobSpec`]s (nor which jobs were still
//! unfinished). The journal closes that gap: every accepted job appends
//! a `[submitted]` record (the spec rendered through
//! [`crate::render_job`]) *before* it runs, and every terminal
//! transition appends a `[finished]` record. Replay on startup yields
//! exactly the jobs that were queued or running at the kill — each of
//! which then resumes from its surviving snapshot through the normal
//! checkpoint path.
//!
//! ```text
//! [journal]
//! version = 3                   # format version (see JOURNAL_VERSION)
//!
//! [submitted]
//! crc = 4b6e9a21cc03fd10        # since version 3: FNV-1a of the record
//! id = 3
//! name = ncf-edge
//! tenant = alpha                # since version 2
//! model = ncf
//! ...                           # the full [job] key set
//!
//! [finished]
//! crc = 90211c5fe0aa7b34
//! id = 3
//! status = done                 # done | cancelled | failed
//! ```
//!
//! Version 1 journals (written before tenancy) carry neither the
//! `[journal]` header nor `tenant` keys; they replay cleanly, every job
//! defaulting to the `"default"` tenant. Version 2 records (no `crc`)
//! replay unverified. A journal declaring a version *newer* than
//! [`JOURNAL_VERSION`] refuses to replay — silently dropping records a
//! future format considers essential would be worse than failing the
//! start.
//!
//! Records are sealed, written and read by [`crate::sealed`]:
//!
//! * **fsync before acknowledgement** — an append returns only after its
//!   `sync_data`, so a submit survives a power cut before the registry
//!   acknowledges it. The first append creates the journal whole, header
//!   included, by an atomic replace and then fsyncs the directory: once
//!   per journal life.
//! * **a blank line before each record** — a torn append leaves a
//!   partial last line, which the next append's blank line ends, so
//!   replay convicts the torn record alone and the next acknowledged
//!   record replays whole.
//! * **lossy replay** — a byte that is not UTF-8 costs only the record
//!   it lands in, so damage never fails a start. A record whose `crc`
//!   fails, that junk cut off from its header, or that lacks the `crc`
//!   its version requires is skipped and counted in
//!   [`JournalReplay::corrupt`], never replayed as garbage.
//!
//! Failure domains are injectable: the `journal.append` failpoint tears
//! or fails an append, `journal.replay` fails the read-back (see
//! [`digamma_obs::fail`]).

use crate::job::JobSpec;
use crate::manifest::{parse_job_section, render_job};
use crate::registry::{JobId, JobStatus};
use crate::sealed::{self, Records, Seal};
use crate::textio::Section;
use digamma_obs::FailSet;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The journal format version this build writes. Bumped to 2 when jobs
/// gained `tenant` tags, to 3 when records gained `crc` checksums;
/// version-1 files (no `[journal]` header) still replay, defaulting
/// every job's tenant, and version-2 records replay without
/// verification.
pub const JOURNAL_VERSION: u64 = 3;

/// An append-only job journal at a fixed path.
///
/// Callers must serialize appends; the registry does so by appending
/// under its state lock. Unserialized, two first appends would both
/// find no journal and race in `sealed::replace` over one temporary
/// file, and later appends could interleave their records. This is why
/// the registry's finish-path append still runs under the lock, where
/// claims and submits wait on its fsync, until a single writer thread
/// owns the journal.
#[derive(Debug, Clone)]
pub struct Journal {
    path: PathBuf,
    /// The failpoint set the `journal.append`/`journal.replay` sites
    /// consult (an inactive default unless built via
    /// [`Journal::with_faults`]).
    faults: Arc<FailSet>,
}

/// What replaying a journal recovers.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Jobs submitted but never finished, in submission (id) order —
    /// the work a restarted service must pick back up.
    pub pending: Vec<(JobId, JobSpec)>,
    /// Jobs that reached a terminal state, with that state.
    pub finished: Vec<(JobId, JobStatus)>,
    /// The next fresh id (one past the largest seen).
    pub next_id: JobId,
    /// Damaged records — a `crc` that does not match, fields cut off
    /// from their header, or a missing `crc` since version 3 — skipped
    /// rather than replayed.
    pub corrupt: u64,
    /// Idempotency keys journaled with keyed submissions, as
    /// `(scope, key, ids)` — replayed into the registry's dedupe map so
    /// a client retrying a submit across a daemon restart still gets
    /// the original job ids instead of duplicates.
    pub idempotency: Vec<(String, String, Vec<JobId>)>,
}

impl Journal {
    /// A journal at `path` (created on first append).
    pub fn new(path: impl Into<PathBuf>) -> Journal {
        Journal::with_faults(path, Arc::new(FailSet::new()))
    }

    /// A journal whose append/replay failpoints consult `faults` (the
    /// server's shared set, so one `--failpoints` spec covers every
    /// domain).
    pub fn with_faults(path: impl Into<PathBuf>, faults: Arc<FailSet>) -> Journal {
        Journal { path: path.into(), faults }
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records an accepted job. Must happen before the job first runs —
    /// the journal is what makes it survive a kill.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] when the append fails.
    pub fn append_submitted(&self, id: JobId, spec: &JobSpec) -> std::io::Result<()> {
        self.append_submitted_keyed(&[(id, spec)], None)
    }

    /// Records a whole accepted batch in one filesystem append, so a
    /// batch submission is journaled all-or-nothing (modulo a torn tail,
    /// which replay drops). When the submission carried an idempotency
    /// key, a `[idempotency]` record binding
    /// `(scope, key)` to the batch's ids lands in the *same* filesystem
    /// append — so dedupe state survives a restart exactly when the jobs
    /// it guards do. A torn append drops the key along with the batch,
    /// which is safe: the client never saw a response, so its retry
    /// re-submitting from scratch is the correct outcome.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] when the append fails.
    pub fn append_submitted_keyed(
        &self,
        batch: &[(JobId, &JobSpec)],
        idempotency: Option<(&str, &str)>,
    ) -> std::io::Result<()> {
        let mut buffer = String::new();
        for (id, spec) in batch {
            let mut section = Section::new("submitted");
            section.push("id", id.to_string());
            for (key, value) in render_job(spec).entries {
                section.push(key, value);
            }
            buffer.push_str(&sealed::seal(&section));
        }
        if let Some((scope, key)) = idempotency {
            let ids: Vec<String> = batch.iter().map(|(id, _)| id.to_string()).collect();
            let mut section = Section::new("idempotency");
            section.push("key", key);
            section.push("tenant", scope);
            section.push("ids", ids.join(" "));
            buffer.push_str(&sealed::seal(&section));
        }
        self.append(&buffer)
    }

    /// Records a terminal transition (`Done`, `Cancelled`, or `Failed`).
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] when the append fails.
    pub fn append_finished(&self, id: JobId, status: JobStatus) -> std::io::Result<()> {
        let mut section = Section::new("finished");
        section.push("id", id.to_string());
        section.push("status", status.to_string());
        self.append(&sealed::seal(&section))
    }

    /// Appends sealed records durably. The first append creates the
    /// journal whole, header included, and fsyncs its directory so the
    /// name every later append lands in survives a power cut.
    fn append(&self, records: &str) -> std::io::Result<()> {
        match sealed::append(&self.path, records.as_bytes(), &self.faults, "journal.append") {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let journal = format!("[journal]\nversion = {JOURNAL_VERSION}\n{records}");
                sealed::replace(&self.path, journal.as_bytes(), &self.faults, "journal.append")?;
                sealed::sync_dir(&self.path)
            }
            appended => appended,
        }
    }

    /// Replays the journal. A missing file is an empty replay; damaged
    /// records — a torn tail (the kill scenario this file exists for),
    /// a flipped bit, a byte that is not UTF-8 — are skipped and
    /// counted, and every other record replays.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] only for real I/O failures (permission
    /// problems, not absence) and for a journal newer than this build.
    pub fn replay(&self) -> std::io::Result<JournalReplay> {
        if let Some(e) =
            self.faults.fired("journal.replay").and_then(|a| a.to_io_error("journal.replay"))
        {
            return Err(e);
        }
        let text = match sealed::read(&self.path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut pending: BTreeMap<JobId, JobSpec> = BTreeMap::new();
        let mut finished = Vec::new();
        let mut next_id: JobId = 1;
        let mut corrupt = 0;
        let mut idempotency = Vec::new();
        // Version 1 files have no header at all.
        let mut version = 1;
        for record in Records::new(&text) {
            if record.name == "journal" {
                // Anything newer than this build refuses to replay rather
                // than silently dropping records it cannot understand.
                version = record.get("version").and_then(|v| v.parse().ok()).unwrap_or(1);
                if version > JOURNAL_VERSION {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "journal {} declares version {version}, newer than supported {}",
                            self.path.display(),
                            JOURNAL_VERSION
                        ),
                    ));
                }
                continue;
            }
            // Pre-v3 records carry no `crc` and replay unverified, as they
            // always did; any other damage is skipped, never replayed.
            let unsealed = record.seal == Seal::Unsealed && version >= 3;
            if record.seal == Seal::Broken || record.name.is_empty() || unsealed {
                corrupt += 1;
                continue;
            }
            // Idempotency records have no `id` of their own — they bind
            // a `(scope, key)` pair to the ids of the batch they were
            // appended with.
            if record.name == "idempotency" {
                if let (Some(key), Some(scope)) = (record.get("key"), record.get("tenant")) {
                    let ids: Vec<JobId> = record
                        .get("ids")
                        .map(|v| v.split_whitespace().filter_map(|t| t.parse().ok()).collect())
                        .unwrap_or_default();
                    idempotency.push((scope.to_owned(), key.to_owned(), ids));
                }
                continue;
            }
            let Some(id) = record.get("id").and_then(|v| v.parse::<JobId>().ok()) else {
                continue;
            };
            next_id = next_id.max(id + 1);
            match record.name {
                "submitted" => {
                    if let Ok(spec) = parse_job_section(&record.to_section(), id as usize) {
                        pending.insert(id, spec);
                    }
                }
                "finished" => {
                    pending.remove(&id);
                    if let Some(status) = record.get("status").and_then(parse_status) {
                        finished.push((id, status));
                    }
                }
                _ => {}
            }
        }
        Ok(JournalReplay {
            pending: pending.into_iter().collect(),
            finished,
            next_id,
            corrupt,
            idempotency,
        })
    }
}

fn parse_status(s: &str) -> Option<JobStatus> {
    match s {
        "done" => Some(JobStatus::Done),
        "cancelled" => Some(JobStatus::Cancelled),
        "failed" => Some(JobStatus::Failed),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobAlgorithm;
    use crate::sealed::seal;
    use digamma::Objective;
    use digamma_costmodel::Platform;
    use digamma_workload::zoo;

    fn spec(name: &str) -> JobSpec {
        let mut s = JobSpec::new(
            name,
            zoo::ncf(),
            Platform::edge(),
            Objective::Latency,
            JobAlgorithm::DiGamma,
        );
        s.budget = 160;
        s.population_size = 8;
        s
    }

    fn temp_journal(tag: &str) -> Journal {
        let path =
            std::env::temp_dir().join(format!("digamma-journal-{tag}-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Journal::new(path)
    }

    #[test]
    fn replay_recovers_unfinished_jobs_in_order() {
        let journal = temp_journal("order");
        journal.append_submitted(1, &spec("a")).unwrap();
        journal.append_submitted(2, &spec("b")).unwrap();
        journal.append_submitted(3, &spec("c")).unwrap();
        journal.append_finished(2, JobStatus::Done).unwrap();
        let replay = journal.replay().unwrap();
        let names: Vec<&str> = replay.pending.iter().map(|(_, s)| s.name.as_str()).collect();
        assert_eq!(names, vec!["a", "c"], "finished jobs are not replayed");
        assert_eq!(replay.pending[0].0, 1);
        assert_eq!(replay.next_id, 4);
        assert_eq!(replay.finished, vec![(2, JobStatus::Done)]);
        std::fs::remove_file(journal.path()).ok();
    }

    #[test]
    fn missing_journal_is_an_empty_replay() {
        let journal = temp_journal("absent");
        let replay = journal.replay().unwrap();
        assert!(replay.pending.is_empty());
        assert_eq!(replay.next_id, 1);
    }

    #[test]
    fn truncated_tail_is_dropped_not_fatal() {
        let journal = temp_journal("truncated");
        journal.append_submitted(1, &spec("alive")).unwrap();
        // A kill mid-append: a half-written record at the tail.
        let mut text = std::fs::read_to_string(journal.path()).unwrap();
        text.push_str("[submitted]\nid = 2\nname = half-wr");
        std::fs::write(journal.path(), text).unwrap();
        let replay = journal.replay().unwrap();
        // Record 2 has no parsable model line → dropped; record 1 lives.
        assert_eq!(replay.pending.len(), 1);
        assert_eq!(replay.pending[0].1.name, "alive");
        std::fs::remove_file(journal.path()).ok();
    }

    #[test]
    fn fresh_journals_carry_the_version_header_once() {
        let journal = temp_journal("header");
        journal.append_submitted(1, &spec("a")).unwrap();
        journal.append_finished(1, JobStatus::Done).unwrap();
        let text = std::fs::read_to_string(journal.path()).unwrap();
        assert!(text.starts_with("[journal]\nversion = 3\n"), "{text}");
        assert_eq!(text.matches("[journal]").count(), 1, "header appends exactly once");
        assert!(journal.replay().is_ok());
        std::fs::remove_file(journal.path()).ok();
    }

    #[test]
    fn every_record_is_sealed_with_a_matching_crc() {
        let journal = temp_journal("crc");
        journal.append_submitted(1, &spec("sealed")).unwrap();
        journal.append_finished(1, JobStatus::Failed).unwrap();
        let text = std::fs::read_to_string(journal.path()).unwrap();
        assert_eq!(text.matches("crc = ").count(), 2, "{text}");
        let replay = journal.replay().unwrap();
        assert_eq!(replay.corrupt, 0);
        assert_eq!(replay.finished, vec![(1, JobStatus::Failed)]);
        std::fs::remove_file(journal.path()).ok();
    }

    #[test]
    fn bit_flipped_records_are_skipped_and_counted() {
        let journal = temp_journal("flip");
        journal.append_submitted(1, &spec("clean")).unwrap();
        journal.append_submitted(2, &spec("damaged")).unwrap();
        // Flip one byte of record 2's content (its name), leaving it a
        // perfectly well-formed section.
        let text = std::fs::read_to_string(journal.path()).unwrap();
        let flipped = text.replace("name = damaged", "name = damagez");
        assert_ne!(text, flipped);
        std::fs::write(journal.path(), flipped).unwrap();
        let replay = journal.replay().unwrap();
        assert_eq!(replay.corrupt, 1, "the damaged record must be convicted");
        assert_eq!(replay.pending.len(), 1);
        assert_eq!(replay.pending[0].1.name, "clean");
        std::fs::remove_file(journal.path()).ok();
    }

    #[test]
    fn torn_then_overwritten_records_are_convicted_not_merged() {
        let journal = temp_journal("torn-overwrite");
        journal.append_submitted(1, &spec("alive")).unwrap();
        // A torn append: the record loses its tail *and* its newline,
        // so the next append's header glues onto the dangling line —
        // the block still parses, but its content is two records'
        // shrapnel. Without the crc this replayed as garbage.
        let mut text = std::fs::read_to_string(journal.path()).unwrap();
        let torn = {
            let mut section = Section::new("submitted");
            section.push("id", "2");
            for (key, value) in render_job(&spec("torn")).entries {
                section.push(key, value);
            }
            let full = seal(&section);
            // Cut just after a `key = ` so the dangling line still
            // parses — the block survives the lenient parser and it is
            // the checksum, not a parse error, that convicts it.
            let cut = full.rfind(" = ").expect("rendered entries") + 3;
            full[..cut].to_owned()
        };
        text.push_str(&torn);
        std::fs::write(journal.path(), &text).unwrap();
        journal.append_finished(1, JobStatus::Done).unwrap();
        let replay = journal.replay().unwrap();
        assert!(replay.corrupt >= 1, "the merged block must be convicted");
        assert!(
            !replay.pending.iter().any(|(id, _)| *id == 2),
            "the torn submit must not replay: {:?}",
            replay.pending
        );
        std::fs::remove_file(journal.path()).ok();
    }

    #[test]
    fn version_2_records_without_crc_replay_unverified() {
        let journal = temp_journal("v2");
        let v2 = "\
[journal]
version = 2

[submitted]
id = 1
name = pre-crc
model = ncf
budget = 64

[finished]
id = 1
status = done
";
        std::fs::write(journal.path(), v2).unwrap();
        let replay = journal.replay().unwrap();
        assert_eq!(replay.corrupt, 0);
        assert_eq!(replay.finished, vec![(1, JobStatus::Done)]);
        assert!(replay.pending.is_empty());
        std::fs::remove_file(journal.path()).ok();
    }

    #[test]
    fn torn_append_failpoint_leaves_a_tail_replay_survives() {
        use digamma_obs::{FailAction, FailSet};
        // The failpoint grammar is checked on a local set; here we prove
        // the journal-side handling by writing the torn bytes directly
        // (`tests/corruption.rs` tears a real append through
        // `Journal::with_faults`).
        let set = FailSet::new();
        set.configure("journal.append=short,once").unwrap();
        assert_eq!(set.fired("journal.append"), Some(FailAction::Short));
        let journal = temp_journal("torn-tail");
        journal.append_submitted(1, &spec("whole")).unwrap();
        let mut text = std::fs::read_to_string(journal.path()).unwrap();
        let tail = {
            let mut section = Section::new("finished");
            section.push("id", "1");
            section.push("status", "done");
            let full = seal(&section);
            full[..full.len() / 2].to_owned()
        };
        text.push_str(&tail);
        std::fs::write(journal.path(), &text).unwrap();
        let replay = journal.replay().unwrap();
        // The torn finish never lands: job 1 is still pending.
        assert_eq!(replay.pending.len(), 1);
        std::fs::remove_file(journal.path()).ok();
    }

    #[test]
    fn version_1_journals_replay_as_the_default_tenant() {
        // A journal exactly as the previous (pre-tenancy) version wrote
        // it: no [journal] header, no tenant keys.
        let journal = temp_journal("v1");
        let v1 = "\
[submitted]
id = 1
name = old-life
model = ncf
platform = edge
objective = latency
algorithm = digamma
budget = 160
seed = 0
population = 8
threads = 1

[submitted]
id = 2
name = finished-long-ago
model = ncf
budget = 64

[finished]
id = 2
status = done
";
        std::fs::write(journal.path(), v1).unwrap();
        let replay = journal.replay().unwrap();
        assert_eq!(replay.pending.len(), 1);
        let (id, back) = &replay.pending[0];
        assert_eq!((*id, back.name.as_str()), (1, "old-life"));
        assert_eq!(back.tenant, "default", "pre-tenancy jobs replay under the default tenant");
        assert_eq!(back.fingerprint(), spec("old-life").fingerprint());
        assert_eq!(replay.next_id, 3);
        std::fs::remove_file(journal.path()).ok();
    }

    #[test]
    fn journals_from_the_future_refuse_to_replay() {
        let journal = temp_journal("future");
        std::fs::write(journal.path(), "[journal]\nversion = 99\n").unwrap();
        let err = journal.replay().unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        std::fs::remove_file(journal.path()).ok();
    }

    #[test]
    fn idempotency_keys_replay_with_their_ids() {
        let journal = temp_journal("idem");
        let a = spec("a");
        let b = spec("b");
        journal.append_submitted_keyed(&[(1, &a), (2, &b)], Some(("alpha", "k-123"))).unwrap();
        journal.append_submitted(3, &spec("unkeyed")).unwrap();
        let replay = journal.replay().unwrap();
        assert_eq!(replay.idempotency, vec![("alpha".into(), "k-123".into(), vec![1, 2])]);
        assert_eq!(replay.pending.len(), 3, "the key record must not shadow the jobs");
        assert_eq!(replay.corrupt, 0, "key records are sealed and verify clean");
        // A torn key record is convicted like any other, dropping the
        // dedupe entry (safe: the client never got a response).
        let text = std::fs::read_to_string(journal.path()).unwrap();
        let flipped = text.replace("key = k-123", "key = k-666");
        assert_ne!(text, flipped);
        std::fs::write(journal.path(), flipped).unwrap();
        let replay = journal.replay().unwrap();
        assert!(replay.idempotency.is_empty());
        assert_eq!(replay.corrupt, 1);
        std::fs::remove_file(journal.path()).ok();
    }

    #[test]
    fn replayed_specs_round_trip_identity() {
        let journal = temp_journal("identity");
        let mut s = spec("exact");
        s.seed = 77;
        s.checkpoint_every = Some(3);
        journal.append_submitted(9, &s).unwrap();
        let replay = journal.replay().unwrap();
        let (id, back) = &replay.pending[0];
        assert_eq!(*id, 9);
        assert_eq!(back.fingerprint(), s.fingerprint(), "resume depends on exact identity");
        assert_eq!(back.checkpoint_every, s.checkpoint_every);
        assert_eq!(replay.next_id, 10);
        std::fs::remove_file(journal.path()).ok();
    }
}
