//! The storage corruption suite: journals, snapshots and fitness-memo
//! files fed truncated, bit-flipped, and duplicated input must never
//! panic, never replay damaged records as good ones, and must count the
//! damage they skip.
//!
//! The journal under test carries the full record zoo — a keyed batch
//! (`[submitted]` × 2 + `[idempotency]`), a `[finished]` terminal
//! record, and a second batch — so every parser path faces the damage.
//! The memo file under test is a base plus two appended segments, the
//! shape spills leave behind.

use digamma::{CoOptProblem, Objective};
use digamma_costmodel::{CostReport, Evaluator, Mapping, Platform};
use digamma_encoding::Genome;
use digamma_obs::FailSet;
use digamma_server::cachefile::{
    append_cache_file, parse_cache_file, read_cache_file, write_cache_file, CacheLoad,
};
use digamma_server::{
    JobAlgorithm, JobSpec, JobStatus, Journal, SearchServer, ServerConfig, Snapshot,
};
use digamma_workload::zoo;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

fn spec(name: &str, budget: usize) -> JobSpec {
    let mut s =
        JobSpec::new(name, zoo::ncf(), Platform::edge(), Objective::Latency, JobAlgorithm::DiGamma);
    s.budget = budget;
    s
}

/// Renders the reference journal into `path`: keyed batch (ids 1, 2),
/// job 1 finished, then an unkeyed id 3.
fn write_reference_journal(path: &std::path::Path) {
    let journal = Journal::new(path);
    let (alpha, beta) = (spec("alpha", 100), spec("beta", 200));
    journal.append_submitted_keyed(&[(1, &alpha), (2, &beta)], Some(("acme", "k-chaos"))).unwrap();
    journal.append_finished(1, JobStatus::Done).unwrap();
    journal.append_submitted(3, &spec("gamma", 300)).unwrap();
}

/// A reference snapshot with a real population, rendered to text.
fn reference_snapshot() -> String {
    let problem = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency);
    let mut rng = SmallRng::seed_from_u64(42);
    let population: Vec<Genome> = (0..4)
        .map(|_| Genome::random(&mut rng, problem.unique_layers(), problem.platform(), 2))
        .collect();
    let history: Vec<f64> = (0..32).map(|i| 1e6 / (i + 1) as f64).collect();
    Snapshot {
        fingerprint: "job 1 ncf edge latency".to_owned(),
        generation: 7,
        samples: history.len(),
        history,
        best: Some(population[0].clone()),
        population,
        ops: digamma_obs::OpCounters::new(),
        last_improved_gen: 7,
        cost_points: Vec::new(),
    }
    .render()
}

/// A snapshot that parses but does not fit the job's model — a genome
/// with a layer too many, in the population or as the best — fails to
/// restore instead of panicking the resumed job, and a genome with more
/// levels than the cost model supports does not parse.
#[test]
fn structurally_foreign_snapshots_are_rejected() {
    let problem = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency);
    let ga = digamma::DiGamma::new(digamma::DiGammaConfig {
        population_size: 4,
        threads: 1,
        ..Default::default()
    });
    let good = reference_snapshot();
    let fingerprint = "job 1 ncf edge latency";
    assert!(Snapshot::parse(&good).unwrap().restore(&ga, &problem, fingerprint).is_ok());

    let extra_layer = "|K,KCYXRS,1,1,1,1,1,1;K,KCYXRS,1,1,1,1,1,1";
    let mut foreign = Snapshot::parse(&good).unwrap();
    let mut grown = foreign.population[1].to_text();
    grown.push_str(extra_layer);
    foreign.population[1] = Genome::from_text(&grown).unwrap();
    let parsed = Snapshot::parse(&foreign.render()).expect("a foreign genome still parses");
    let err = parsed.restore(&ga, &problem, fingerprint).unwrap_err();
    assert!(err.to_string().contains("layers"), "{err}");

    let mut foreign = Snapshot::parse(&good).unwrap();
    foreign.best = Some(Genome::from_text(&grown).unwrap());
    assert!(foreign.restore(&ga, &problem, fingerprint).is_err());

    let level = "K,KCYXRS,1,1,1,1,1,1";
    let four_levels = format!("1,2,2,2|{}", [level; 4].join(";"));
    assert!(Genome::from_text(&four_levels).is_err());
    let first_genome = good.lines().find_map(|l| l.strip_prefix("genome = ")).unwrap();
    let deep = good.replacen(first_genome, &four_levels, 1);
    assert!(Snapshot::parse(&deep).is_err(), "a 4-level genome must not parse");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A journal truncated at an arbitrary byte replays without panic
    /// to a *prefix-consistent* state: records strictly before the cut
    /// survive intact, everything at or after it vanishes, and at most
    /// the one torn record is convicted as corrupt. In particular a
    /// torn keyed append may keep a prefix of its `[submitted]` records
    /// but always drops the trailing `[idempotency]` key with the tear.
    #[test]
    fn truncated_journals_replay_to_a_consistent_prefix(cut_seed in 0u64..4_096) {
        let dir = std::env::temp_dir()
            .join(format!("digamma-corrupt-trunc-{}-{cut_seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let full_path = dir.join("full.journal");
        write_reference_journal(&full_path);
        let bytes = std::fs::read(&full_path).unwrap();
        let cut = (cut_seed as usize) % (bytes.len() + 1);
        let torn_path = dir.join("torn.journal");
        std::fs::write(&torn_path, &bytes[..cut]).unwrap();

        let replay = Journal::new(&torn_path).replay().expect("truncation is never an I/O error");
        let has = |id| replay.pending.iter().any(|(i, _)| *i == id);
        let fin1 = replay.finished.iter().any(|&(i, s)| i == 1 && s == JobStatus::Done);
        let keyed = !replay.idempotency.is_empty();
        // The reachable states, in tail-growth order:
        // nothing → {1} → {1,2} → {1,2}+key → key+finished(1) → +{3}.
        let state = (has(1), has(2), has(3), fin1, keyed);
        let allowed = [
            (false, false, false, false, false),
            (true, false, false, false, false),
            (true, true, false, false, false),
            (true, true, false, false, true),
            (false, true, false, true, true),
            (false, true, true, true, true),
        ];
        prop_assert!(allowed.contains(&state), "cut {cut}: unreachable state {state:?}");
        prop_assert!(replay.corrupt <= 1, "cut {cut}: one tear, {} convictions", replay.corrupt);
        if keyed {
            prop_assert_eq!(
                replay.idempotency.clone(),
                vec![("acme".to_owned(), "k-chaos".to_owned(), vec![1, 2])]
            );
        }
        // Surviving records are the originals, not reinterpretations.
        for (id, spec) in &replay.pending {
            let wanted = match id {
                1 => ("alpha", 100),
                2 => ("beta", 200),
                3 => ("gamma", 300),
                other => panic!("invented job id {other}"),
            };
            prop_assert_eq!((spec.name.as_str(), spec.budget), wanted);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A single flipped byte anywhere in the journal never panics the
    /// replayer, never changes a surviving record (the per-record crc
    /// convicts any content flip), and any deviation from the pristine
    /// state is matched by a nonzero corrupt count.
    #[test]
    fn bit_flipped_journals_never_replay_damaged_records(flip_seed in 0u64..4_096) {
        let dir = std::env::temp_dir()
            .join(format!("digamma-corrupt-flip-{}-{flip_seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flipped.journal");
        write_reference_journal(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        let mut rng = SmallRng::seed_from_u64(flip_seed);
        let at = rng.gen_range(0..bytes.len());
        // Flip a low bit: the damage stays ASCII, so the failure mode
        // under test is record corruption, not UTF-8 decoding.
        bytes[at] ^= 1u8 << rng.gen_range(0..4);
        std::fs::write(&path, &bytes).unwrap();

        // Structural damage (a mangled section header) may surface as a
        // parse error; that is acceptable — a panic or a silently
        // altered record is not.
        let Ok(replay) = Journal::new(&path).replay() else {
            std::fs::remove_dir_all(&dir).ok();
            return;
        };
        for (id, spec) in &replay.pending {
            let wanted = match id {
                1 => ("alpha", 100),
                2 => ("beta", 200),
                3 => ("gamma", 300),
                other => panic!("invented job id {other}"),
            };
            prop_assert_eq!(
                (spec.name.as_str(), spec.budget),
                wanted,
                "flip at {} replayed an altered record",
                at
            );
        }
        let pristine = replay.pending.iter().map(|(i, _)| *i).collect::<Vec<_>>() == vec![2, 3]
            && replay.finished.iter().any(|&(i, s)| i == 1 && s == JobStatus::Done)
            && replay.idempotency.len() == 1;
        if !pristine {
            prop_assert!(
                replay.corrupt >= 1,
                "flip at {at} changed the replayed state without a corruption conviction"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Snapshot parsing under truncation: never a panic, and any
    /// successfully parsed document satisfies the internal-consistency
    /// invariants the resume path relies on.
    #[test]
    fn truncated_snapshots_parse_or_reject_but_never_panic(cut_seed in 0u64..4_096) {
        let text = reference_snapshot();
        let cut = (cut_seed as usize) % (text.len() + 1);
        // Cut on a char boundary (the text is ASCII, but stay honest).
        let mut cut = cut;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        if let Ok(snapshot) = Snapshot::parse(&text[..cut]) {
            prop_assert_eq!(snapshot.history.len(), snapshot.samples);
            // A truncated prefix that still parses must be the complete
            // document: the declared population and sample counts
            // convict every shorter prefix.
            prop_assert_eq!(snapshot.population.len(), 4);
        }
    }

    /// Snapshot parsing under single-byte flips: never a panic; parsed
    /// documents keep their declared-vs-carried invariants.
    #[test]
    fn bit_flipped_snapshots_parse_or_reject_but_never_panic(flip_seed in 0u64..4_096) {
        let text = reference_snapshot();
        let mut bytes = text.into_bytes();
        let mut rng = SmallRng::seed_from_u64(flip_seed);
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= 1u8 << rng.gen_range(0..4);
        let Ok(text) = String::from_utf8(bytes) else { return };
        if let Ok(snapshot) = Snapshot::parse(&text) {
            prop_assert_eq!(snapshot.history.len(), snapshot.samples);
            prop_assert_eq!(snapshot.population.len(), 4);
        }
    }
}

/// Whole-record duplication (a double-applied append, the classic
/// retry-without-idempotency bug at the storage layer) must replay each
/// id once, keeping the journal's last-writer-wins semantics.
#[test]
fn duplicated_journal_records_replay_once_per_id() {
    let dir = std::env::temp_dir().join(format!("digamma-corrupt-dup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dup.journal");
    write_reference_journal(&path);
    // Re-append the whole journal body after its header: every record
    // now appears twice.
    let text = std::fs::read_to_string(&path).unwrap();
    let body = text.split_once("\n\n").map(|(_, rest)| rest.to_owned()).unwrap_or_default();
    std::fs::write(&path, format!("{text}{body}")).unwrap();

    let replay = Journal::new(&path).replay().expect("duplication is not an I/O error");
    let ids: Vec<u64> = replay.pending.iter().map(|(i, _)| *i).collect();
    assert_eq!(ids, vec![2, 3], "each id replays exactly once: {ids:?}");
    assert_eq!(replay.corrupt, 0, "duplicates are valid records, not corruption");
    assert_eq!(replay.next_id, 4);
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn append costs only its own record: the next acknowledged
/// append opens with a blank line that ends the torn line, so it is
/// never glued onto the torn record and lost with it.
#[test]
fn torn_journal_appends_cost_only_the_torn_record() {
    let dir = std::env::temp_dir().join(format!("digamma-corrupt-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let faults = Arc::new(FailSet::new());
    let journal = Journal::with_faults(dir.join("torn.journal"), Arc::clone(&faults));
    journal.append_submitted(1, &spec("alpha", 100)).unwrap();
    faults.configure("journal.append=short,once").unwrap();
    assert!(journal.append_submitted(2, &spec("beta", 200)).is_err(), "a torn submit fails");
    journal.append_submitted(3, &spec("gamma", 300)).unwrap();
    journal.append_finished(1, JobStatus::Done).unwrap();

    let replay = journal.replay().unwrap();
    let pending: Vec<u64> = replay.pending.iter().map(|(id, _)| *id).collect();
    assert_eq!(pending, vec![3], "the acknowledged submit after the tear replays");
    assert_eq!(replay.finished, vec![(1, JobStatus::Done)]);
    assert_eq!(replay.corrupt, 1, "only the torn record is convicted");
    std::fs::remove_dir_all(&dir).ok();
}

/// A byte that is not UTF-8 anywhere in the journal — the high bit of
/// each byte flipped in turn — never fails the replay (which would
/// refuse the daemon's start), never replays an altered record, and any
/// deviation from the pristine state comes with a conviction.
#[test]
fn journals_replay_past_any_non_utf8_byte() {
    let dir = std::env::temp_dir().join(format!("digamma-corrupt-utf8-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flipped.journal");
    write_reference_journal(&path);
    let bytes = std::fs::read(&path).unwrap();
    for at in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x80;
        std::fs::write(&path, &flipped).unwrap();
        let replay = Journal::new(&path)
            .replay()
            .unwrap_or_else(|e| panic!("flip at {at} failed the replay: {e}"));
        for (id, spec) in &replay.pending {
            let wanted = match id {
                1 => ("alpha", 100),
                2 => ("beta", 200),
                3 => ("gamma", 300),
                other => panic!("flip at {at} invented job id {other}"),
            };
            assert_eq!((spec.name.as_str(), spec.budget), wanted, "flip at {at} altered a record");
        }
        let pristine = replay.pending.iter().map(|(i, _)| *i).collect::<Vec<_>>() == vec![2, 3]
            && replay.finished == vec![(1, JobStatus::Done)]
            && replay.idempotency == vec![("acme".to_owned(), "k-chaos".to_owned(), vec![1, 2])];
        assert!(pristine || replay.corrupt >= 1, "flip at {at} changed the replay unconvicted");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// No flip of any bit of any byte of a snapshot, read the way a resuming
/// job reads it (lossy), parses as a different snapshot: the document
/// either fails to parse or renders exactly as the original did.
#[test]
fn bit_flipped_snapshots_never_parse_as_a_different_snapshot() {
    let text = reference_snapshot();
    for at in 0..text.len() {
        for bit in 0..8 {
            let mut bytes = text.clone().into_bytes();
            bytes[at] ^= 1 << bit;
            if let Ok(snapshot) = Snapshot::parse(&String::from_utf8_lossy(&bytes)) {
                assert_eq!(snapshot.render(), text, "flip {at}:{bit} parsed as another snapshot");
            }
        }
    }
}

/// `count` distinct `(key, report)` pairs: a few mapping shapes of each
/// unique layer of a handful of models, in evaluation order.
fn memo_entries(count: usize) -> Vec<(u64, Arc<CostReport>)> {
    let eval = Evaluator::new(Platform::edge());
    let mut seen = HashSet::new();
    let mut entries = Vec::new();
    for model in [zoo::ncf(), zoo::resnet18(), zoo::mobilenet_v2(), zoo::bert()] {
        for u in model.unique_layers() {
            for (rows, cols) in [(1, 1), (2, 2), (4, 2), (8, 4), (16, 8), (4, 16), (32, 2)] {
                let mapping = Mapping::row_major_example(&u.layer, rows, cols);
                let key = eval.cache_key(&u.layer, &mapping);
                if let Ok(report) = eval.evaluate(&u.layer, &mapping) {
                    if seen.insert(key) {
                        entries.push((key, Arc::new(report)));
                    }
                }
                if entries.len() == count {
                    return entries;
                }
            }
        }
    }
    panic!("only {} distinct memo entries, wanted {count}", entries.len());
}

/// Writes a memo file of `entries` as spills leave one: a base holding
/// the first `base`, then the rest appended in two segments, the first
/// holding `first`. Returns the file's bytes.
fn write_memo(
    path: &Path,
    entries: &[(u64, Arc<CostReport>)],
    base: usize,
    first: usize,
) -> Vec<u8> {
    let faults = FailSet::new();
    write_cache_file(path, &entries[..base], &faults).unwrap();
    append_cache_file(path, &entries[base..base + first], &faults).unwrap();
    append_cache_file(path, &entries[base + first..], &faults).unwrap();
    std::fs::read(path).unwrap()
}

/// Loads memo-file bytes as `read_cache_file` decodes a file, without
/// the disk round trip, so a sweep can try every cut and every flip.
fn load(bytes: &[u8]) -> (HashMap<u64, CostReport>, CacheLoad) {
    let (entries, load) = parse_cache_file(&String::from_utf8_lossy(bytes)).unwrap_or_default();
    (entries.into_iter().collect(), load)
}

/// Whether `loaded` holds exactly the bits written under `key`: every
/// `f64` compared by its bit pattern, so even a sign flip of a zero
/// counts.
fn written_bits(entries: &[(u64, Arc<CostReport>)], key: u64, loaded: &CostReport) -> bool {
    let Some((_, a)) = entries.iter().find(|(k, _)| *k == key) else { return false };
    let b = loaded;
    let f = |x: f64, y: f64| x.to_bits() == y.to_bits();
    let fs = |x: &[f64], y: &[f64]| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| f(*p, *q));
    f(a.latency_cycles, b.latency_cycles)
        && f(a.latency.compute_cycles, b.latency.compute_cycles)
        && f(a.latency.dram_cycles, b.latency.dram_cycles)
        && fs(&a.latency.noc_cycles, &b.latency.noc_cycles)
        && f(a.latency.fill_cycles, b.latency.fill_cycles)
        && f(a.latency.total_cycles, b.latency.total_cycles)
        && a.latency.bottleneck == b.latency.bottleneck
        && f(a.energy_pj, b.energy_pj)
        && f(a.area_um2, b.area_um2)
        && f(a.pe_area_um2, b.pe_area_um2)
        && (&a.hw, &a.buffers, &a.traffic) == (&b.hw, &b.buffers, &b.traffic)
        && f(a.utilization, b.utilization)
        && a.macs == b.macs
}

/// The byte span of each `[entry]` record in a memo file, its final
/// newline included (the blank line before a record is in no span).
fn record_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let text = std::str::from_utf8(bytes).unwrap();
    let starts: Vec<usize> = text.match_indices("\n[entry]\n").map(|(at, _)| at + 1).collect();
    let ends = starts.iter().skip(1).map(|&next| next - 1).chain([text.len()]);
    starts.iter().copied().zip(ends).collect()
}

/// A memo file shaped by `(base, first, second)` records in its base and
/// two appended segments, written to a fresh directory: its entries in
/// file order, and its bytes. Reading it back from disk loads them all.
fn reference_memo(
    tag: &str,
    (base, first, second): (usize, usize, usize),
) -> (Vec<(u64, Arc<CostReport>)>, Vec<u8>) {
    let dir =
        std::env::temp_dir().join(format!("digamma-corrupt-memo-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fitness-memo.cache");
    let entries = memo_entries(base + first + second);
    let bytes = write_memo(&path, &entries, base, first);
    let (loaded, load) = read_cache_file(&path);
    assert_eq!((loaded.len(), load.skipped, load.appended), (entries.len(), 0, first + second));
    std::fs::remove_dir_all(&dir).ok();
    (entries, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For memo files of several shapes, a truncation at every byte
    /// loads without panic every record wholly before the cut, and
    /// nothing else: a torn record fails its crc.
    #[test]
    fn truncated_memo_files_load_every_whole_record(shape in (0usize..4, 0usize..3, 1usize..3)) {
        let (entries, bytes) = reference_memo("trunc", shape);
        let spans = record_spans(&bytes);
        for cut in 0..=bytes.len() {
            let (loaded, load) = load(&bytes[..cut]);
            for (i, ((key, _), (_, end))) in entries.iter().zip(&spans).enumerate() {
                if *end <= cut {
                    prop_assert!(loaded.contains_key(key), "cut {}: whole record {} lost", cut, i);
                } else if *end > cut + 1 {
                    // Only a record missing nothing but its last newline is whole.
                    prop_assert!(!loaded.contains_key(key), "cut {}: torn record {} loaded", cut, i);
                }
            }
            for (key, report) in &loaded {
                prop_assert!(written_bits(&entries, *key, report), "cut {}: altered bits", cut);
            }
            prop_assert!(load.skipped <= 1, "cut {}: one tear, {} skipped", cut, load.skipped);
        }
    }

    /// For memo files of several shapes, flipping one bit of any byte
    /// (each byte in turn, a seeded bit each) never panics, never loads
    /// bits that differ from what was written, and costs at most the
    /// record it lands in. A flip in the header's version lines is a
    /// cold start; elsewhere in the header it loses everything or
    /// nothing.
    #[test]
    fn bit_flipped_memo_files_lose_at_most_the_flipped_record(
        shape in (0usize..4, 0usize..3, 1usize..3),
        bit_seed in 0u64..u64::MAX,
    ) {
        let (entries, bytes) = reference_memo("flip", shape);
        let spans = record_spans(&bytes);
        let text = std::str::from_utf8(&bytes).unwrap();
        let line_of = |prefix: &str| {
            let start = text.find(prefix).unwrap() + 1;
            start..start + text[start..].find('\n').unwrap()
        };
        let version_lines = [line_of("\nversion = "), line_of("\nkey_version = ")];
        let mut rng = SmallRng::seed_from_u64(bit_seed);
        for at in 0..bytes.len() {
            let bit: u32 = rng.gen_range(0..8);
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << bit;
            let (loaded, _) = load(&flipped);
            for (key, report) in &loaded {
                prop_assert!(
                    written_bits(&entries, *key, report),
                    "flip {}:{} altered bits", at, bit
                );
            }
            if version_lines.iter().any(|line| line.contains(&at)) {
                prop_assert!(loaded.is_empty(), "flip {}:{} in a version line loaded", at, bit);
            } else if at < spans[0].0 {
                prop_assert!(
                    loaded.is_empty() || loaded.len() == entries.len(),
                    "flip {}:{} in the header loaded {} of {}",
                    at, bit, loaded.len(), entries.len()
                );
            } else {
                let hit = spans.iter().position(|(start, end)| (*start..*end).contains(&at));
                for (i, (key, _)) in entries.iter().enumerate() {
                    if Some(i) != hit {
                        prop_assert!(loaded.contains_key(key), "flip {}:{} lost {}", at, bit, i);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A memo file holding more records than the server's
    /// `cache_capacity` is evicted into at warm start, so one spill —
    /// with nothing new memoized — rewrites it down to the resident
    /// memo.
    #[test]
    fn oversized_memo_files_compact_after_one_spill(capacity in 1usize..=128) {
        let dir = std::env::temp_dir()
            .join(format!("digamma-corrupt-compact-{}-{capacity}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fitness-memo.cache");
        let entries = memo_entries(200);
        let written = write_memo(&path, &entries, 100, 50);

        let server = SearchServer::new(ServerConfig {
            workers: 1,
            cache_capacity: capacity,
            checkpoint_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let resident = server.cache_stats().unwrap().entries as usize;
        prop_assert!(resident < entries.len(), "{} of {} resident", resident, entries.len());
        prop_assert_eq!(std::fs::read(&path).unwrap(), written, "warm start never writes");

        server.spill_cache_if_dirty();
        let compacted = String::from_utf8(std::fs::read(&path).unwrap()).unwrap();
        prop_assert_eq!(compacted.matches("\n[entry]\n").count(), resident);
        let (loaded, load) = read_cache_file(&path);
        prop_assert_eq!((loaded.len(), load.skipped, load.appended), (resident, 0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
