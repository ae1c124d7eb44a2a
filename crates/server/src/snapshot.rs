//! Versioned text snapshots of GA search state.
//!
//! A snapshot captures a [`SearchState`] at a generation boundary in a
//! hand-rolled, human-inspectable text format. Because the GA reseeds
//! its RNG per generation from `(seed, generation)`, the snapshot needs
//! no RNG internals — population genomes, the best-so-far genome, the
//! exact history (f64 bit patterns), and two counters are enough for a
//! killed search to continue **bit-identically**, which
//! `tests/resume.rs` proves end to end.
//!
//! Format (sealed records, see [`crate::sealed`]):
//!
//! ```text
//! [snapshot]
//! crc = 1f0c...                       # each record is sealed (version 4)
//! version = 4
//! fingerprint = ncf/edge/latency/digamma/b600/s1/p16
//! generation = 12
//! samples = 208
//! population = 16                     # genomes in [population]
//! history = 7ff0...x16,4111e1c0...x24,...  # RLE: 16-hex f64 bits x count
//! best = 8,16|K,KCYXRS,...            # absent while nothing feasible
//!
//! [analytics]
//! crc = 6d2a...
//! last_improved_gen = 11
//! op = crossover 96 7 2               # attempted improved incumbents
//! point = 1 16 4111e1c000000000       # generation evals best-bits
//!
//! [population]
//! crc = 90b4...
//! genome = 8,16|K,KCYXRS,...          # repeated, in population order
//! ```
//!
//! The history is run-length-encoded: the best-so-far curve is a
//! monotone step function, so its exact size tracks *improvements*, not
//! samples — checkpoints stay flat-sized even on 100k-sample budgets
//! while still round-tripping bit-identically. The `[analytics]` record
//! carries the cumulative per-operator attribution counters, the
//! last-improvement generation, and the cost-vs-evaluations curve
//! (compressed to its improvement points), so operator attribution
//! survives SIGKILL and resumes counting where it left off.
//!
//! Each of the three records is sealed with a `crc`, and a document
//! parses only when it is version 4, holds exactly those three records,
//! each intact, and no junk line: no damaged byte can parse as a
//! different snapshot that a resumed job would adopt. Earlier versions
//! carry no `crc` and are refused, so their jobs start over; a fresh run
//! reaches the same result a resume would have.

use crate::sealed::{self, Record, Records, Seal};
use crate::textio::{self, Section, TextError};
use digamma::{CoOptProblem, DiGamma, SearchState};
use digamma_encoding::Genome;
use digamma_obs::{CostPoint, OpCounters, OpKind};

/// The snapshot format version, the only one parsing accepts.
pub const SNAPSHOT_VERSION: u64 = 4;

/// A parsed (or about-to-be-rendered) checkpoint.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Job identity line; resume refuses a mismatched job.
    pub fingerprint: String,
    /// Completed generations at capture time.
    pub generation: u64,
    /// Samples evaluated at capture time.
    pub samples: usize,
    /// Best-so-far cost after each sample, bit-exact.
    pub history: Vec<f64>,
    /// Best feasible genome, if any.
    pub best: Option<Genome>,
    /// The population at the generation boundary.
    pub population: Vec<Genome>,
    /// Cumulative per-operator attribution.
    pub ops: OpCounters,
    /// Generation in which the incumbent last improved.
    pub last_improved_gen: u64,
    /// Cost-vs-evaluations curve, compressed to the points where the
    /// best cost changed (plus the first point) so the rendered size
    /// tracks improvements, like the history RLE does.
    pub cost_points: Vec<CostPoint>,
}

/// Keeps the first point and every point whose best-cost bits differ
/// from the previous kept point's — the exact knee set a step-function
/// convergence plot needs.
pub(crate) fn compress_points(points: &[CostPoint]) -> Vec<CostPoint> {
    let mut out: Vec<CostPoint> = Vec::new();
    for p in points {
        if out.last().is_none_or(|prev| prev.best.to_bits() != p.best.to_bits()) {
            out.push(*p);
        }
    }
    out
}

impl Snapshot {
    /// Captures a search state (see [`DiGamma::step`]'s boundary
    /// contract) under a job identity line.
    pub fn capture(fingerprint: impl Into<String>, state: &SearchState) -> Snapshot {
        Snapshot {
            fingerprint: fingerprint.into(),
            generation: state.generation(),
            samples: state.samples(),
            history: state.history().to_vec(),
            best: state.best_genome().cloned(),
            population: state.population().to_vec(),
            ops: *state.op_counters(),
            last_improved_gen: state.last_improved_generation(),
            cost_points: compress_points(state.cost_points()),
        }
    }

    /// Rebuilds a live [`SearchState`] on `ga`/`problem`, re-evaluating
    /// the stored genomes (evaluation is pure, so this reproduces the
    /// captured state exactly).
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] when `expected_fingerprint` differs from
    /// the snapshot's — resuming a different job from this checkpoint
    /// would silently corrupt both — and when a stored genome's layer
    /// count differs from the problem's unique-layer count, which
    /// evaluation cannot score.
    pub fn restore(
        &self,
        ga: &DiGamma,
        problem: &CoOptProblem,
        expected_fingerprint: &str,
    ) -> Result<SearchState, TextError> {
        if self.fingerprint != expected_fingerprint {
            return Err(TextError::new(format!(
                "snapshot is for job {:?}, not {expected_fingerprint:?}",
                self.fingerprint
            )));
        }
        if self.population.is_empty() {
            return Err(TextError::new("snapshot has an empty population"));
        }
        if self.history.len() != self.samples {
            return Err(TextError::new(format!(
                "snapshot history has {} entries for {} samples",
                self.history.len(),
                self.samples
            )));
        }
        let layers = problem.unique_layers().len();
        if let Some(g) = self.population.iter().chain(&self.best).find(|g| g.layers.len() != layers)
        {
            return Err(TextError::new(format!(
                "snapshot genome has {} layers, the model has {layers}",
                g.layers.len()
            )));
        }
        let mut state = ga.restore(
            problem,
            self.population.clone(),
            self.best.clone(),
            self.history.clone(),
            self.samples,
            self.generation,
        );
        state.restore_analytics(self.ops, self.cost_points.clone(), self.last_improved_gen);
        Ok(state)
    }

    /// Renders the versioned text form.
    pub fn render(&self) -> String {
        let mut head = Section::new("snapshot");
        head.push("version", SNAPSHOT_VERSION.to_string());
        head.push("fingerprint", &self.fingerprint);
        head.push("generation", self.generation.to_string());
        head.push("samples", self.samples.to_string());
        // The declared population size lets the parser reject a file
        // truncated inside the [population] section — a truncated prefix
        // of a valid snapshot could otherwise still parse.
        head.push("population", self.population.len().to_string());
        head.push("history", textio::f64s_to_rle_text(&self.history));
        if let Some(best) = &self.best {
            head.push("best", best.to_text());
        }
        // The [analytics] section sits *before* [population], so a file
        // truncated anywhere inside it also loses the population section
        // and is rejected outright instead of parsing with partial
        // counters.
        let mut analytics = Section::new("analytics");
        analytics.push("last_improved_gen", self.last_improved_gen.to_string());
        for (kind, c) in self.ops.iter() {
            analytics.push(
                "op",
                format!("{} {} {} {}", kind.name(), c.attempted, c.improved, c.incumbents),
            );
        }
        for p in &self.cost_points {
            analytics.push(
                "point",
                format!("{} {} {}", p.generation, p.evals, textio::f64_to_text(p.best)),
            );
        }
        let mut pop = Section::new("population");
        for g in &self.population {
            pop.push("genome", g.to_text());
        }
        [head, analytics, pop].iter().map(sealed::seal).collect()
    }

    /// Parses a document rendered by [`Snapshot::render`].
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] on malformed input, a version other than
    /// [`SNAPSHOT_VERSION`], a record that is missing, repeated or fails
    /// its `crc`, or internal inconsistency (declared population/sample
    /// counts not matching the document body — the signature of a file
    /// truncated mid-write).
    pub fn parse(text: &str) -> Result<Snapshot, TextError> {
        // The strict text rules: no junk line, no field before the first
        // header.
        let mut reader = Records::new(text);
        let records: Vec<Record> = reader.by_ref().collect();
        if reader.junk > 0 || records.iter().any(|r| r.name.is_empty()) {
            return Err(TextError::new("snapshot has a line outside `[section]` / `key = value`"));
        }
        let section = |name| {
            let record = records.iter().find(|r| r.name == name);
            record
                .map(Record::to_section)
                .ok_or_else(|| TextError::new(format!("missing [{name}] section")))
        };
        let head = section("snapshot")?;
        let version: u64 = head.get_parsed_or("version", 0)?;
        if version != SNAPSHOT_VERSION {
            return Err(TextError::new(format!(
                "snapshot version {version} unsupported (this build reads {SNAPSHOT_VERSION})"
            )));
        }
        // Exactly the three sealed records, each intact.
        let sealed_records = ["snapshot", "analytics", "population"];
        if records.len() != sealed_records.len()
            || records.iter().any(|r| r.seal != Seal::Intact)
            || sealed_records.iter().any(|&name| records.iter().all(|r| r.name != name))
        {
            return Err(TextError::new("snapshot is not its three records, intact"));
        }
        let parse_genome =
            |s: &str| Genome::from_text(s).map_err(|e| TextError::new(format!("bad genome: {e}")));
        let best = head.get("best").map(parse_genome).transpose()?;
        let pop = section("population")?;
        let population = pop
            .get_all("genome")
            .into_iter()
            .map(parse_genome)
            .collect::<Result<Vec<Genome>, _>>()?;
        let declared: usize = head
            .require("population")?
            .parse()
            .map_err(|_| TextError::new("bad population count"))?;
        if population.len() != declared {
            return Err(TextError::new(format!(
                "snapshot declares {declared} genomes but carries {} (truncated write?)",
                population.len()
            )));
        }
        let samples: usize = head.get_parsed_or("samples", 0)?;
        // The declared sample count bounds materialization, so a corrupt
        // run length cannot balloon allocation.
        let history = textio::f64s_from_rle_text(head.require("history")?, samples)?;
        if history.len() != samples {
            return Err(TextError::new(format!(
                "snapshot declares {samples} samples but carries {} history entries",
                history.len()
            )));
        }
        let generation: u64 = head.get_parsed_or("generation", 0)?;
        let analytics = section("analytics")?;
        let last_improved_gen: u64 = analytics
            .require("last_improved_gen")?
            .parse()
            .map_err(|_| TextError::new("bad last_improved_gen"))?;
        let mut ops = OpCounters::new();
        for raw in analytics.get_all("op") {
            let mut parts = raw.split_whitespace();
            let kind = parts
                .next()
                .and_then(OpKind::from_name)
                .ok_or_else(|| TextError::new(format!("bad op line: {raw:?}")))?;
            let mut next = || {
                parts
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or_else(|| TextError::new(format!("bad op line: {raw:?}")))
            };
            let counter = ops.get_mut(kind);
            counter.attempted = next()?;
            counter.improved = next()?;
            counter.incumbents = next()?;
        }
        let mut cost_points = Vec::new();
        for raw in analytics.get_all("point") {
            let mut parts = raw.split_whitespace();
            let mut next_u64 = || {
                parts
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or_else(|| TextError::new(format!("bad point line: {raw:?}")))
            };
            let generation = next_u64()?;
            let evals = next_u64()?;
            let best = textio::f64_from_text(
                parts.next().ok_or_else(|| TextError::new(format!("bad point line: {raw:?}")))?,
            )?;
            cost_points.push(CostPoint { generation, evals, best });
        }
        Ok(Snapshot {
            fingerprint: head.require("fingerprint")?.to_owned(),
            generation,
            samples,
            history,
            best,
            population,
            ops,
            last_improved_gen,
            cost_points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma::{CoOptProblem, DiGammaConfig, Objective};
    use digamma_costmodel::Platform;
    use digamma_workload::zoo;

    fn setup() -> (CoOptProblem, DiGamma) {
        let problem = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency);
        let config =
            DiGammaConfig { population_size: 8, seed: 3, threads: 1, ..Default::default() };
        (problem, DiGamma::new(config))
    }

    #[test]
    fn snapshot_roundtrips_through_text() {
        let (problem, ga) = setup();
        let mut state = ga.init(&problem, 64);
        ga.step(&problem, &mut state, 64);
        ga.step(&problem, &mut state, 64);
        let snap = Snapshot::capture("job-a", &state);
        let parsed = Snapshot::parse(&snap.render()).unwrap();
        assert_eq!(parsed.fingerprint, "job-a");
        assert_eq!(parsed.generation, snap.generation);
        assert_eq!(parsed.samples, snap.samples);
        assert_eq!(parsed.population, snap.population);
        assert_eq!(parsed.best, snap.best);
        assert_eq!(parsed.history.len(), snap.history.len());
        for (a, b) in parsed.history.iter().zip(&snap.history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn restore_refuses_a_different_job() {
        let (problem, ga) = setup();
        let state = ga.init(&problem, 32);
        let snap = Snapshot::capture("job-a", &state);
        let err = snap.restore(&ga, &problem, "job-b").unwrap_err();
        assert!(err.to_string().contains("job-a"), "{err}");
        assert!(snap.restore(&ga, &problem, "job-a").is_ok());
    }

    #[test]
    fn parse_rejects_bad_documents() {
        assert!(Snapshot::parse("").is_err(), "empty");
        assert!(Snapshot::parse("[snapshot]\nversion = 99\n").is_err(), "future version");
        let (problem, ga) = setup();
        let snap = Snapshot::capture("j", &ga.init(&problem, 16));
        let good = snap.render();
        let no_pop = good.split("[population]").next().unwrap();
        assert!(Snapshot::parse(no_pop).is_err(), "missing population");
        let corrupt = good.replace("genome = ", "genome = !");
        assert!(Snapshot::parse(&corrupt).is_err(), "corrupt genome");
    }

    #[test]
    fn truncated_documents_are_rejected() {
        // A file cut off mid-write (the crash scenario checkpointing
        // exists for) must never parse as a smaller-but-valid snapshot.
        let (problem, ga) = setup();
        let mut state = ga.init(&problem, 64);
        ga.step(&problem, &mut state, 64);
        let good = Snapshot::capture("j", &state).render();
        // Cut at every line boundary: each prefix must either fail to
        // parse or (when only trailing blank lines are cut) roundtrip.
        let lines: Vec<&str> = good.lines().collect();
        for keep in 1..lines.len() {
            let prefix = lines[..keep].join("\n");
            if let Ok(parsed) = Snapshot::parse(&prefix) {
                assert_eq!(parsed.population.len(), state.population().len());
                assert_eq!(parsed.history.len(), state.history().len());
            }
        }
    }

    #[test]
    fn analytics_survive_the_text_roundtrip_and_restore() {
        let (problem, ga) = setup();
        let mut state = ga.init(&problem, 64);
        while ga.step(&problem, &mut state, 64) {}
        assert!(state.op_counters().total_attempted() > 0);
        let snap = Snapshot::capture("j", &state);
        let parsed = Snapshot::parse(&snap.render()).unwrap();
        assert_eq!(parsed.ops, *state.op_counters());
        assert_eq!(parsed.last_improved_gen, state.last_improved_generation());
        assert!(!parsed.cost_points.is_empty());
        // Compressed points keep the knees: first point and every
        // best-cost change, bit-exactly.
        for (a, b) in parsed.cost_points.iter().zip(&snap.cost_points) {
            assert_eq!((a.generation, a.evals), (b.generation, b.evals));
            assert_eq!(a.best.to_bits(), b.best.to_bits());
        }
        let restored = parsed.restore(&ga, &problem, "j").unwrap();
        assert_eq!(restored.op_counters(), state.op_counters());
        assert_eq!(restored.last_improved_generation(), state.last_improved_generation());
    }

    #[test]
    fn resumed_searches_keep_counting_attribution() {
        // Kill at the midpoint, restore, finish: the final counters must
        // cover every stepped child across both halves.
        let (problem, ga) = setup();
        let mut state = ga.init(&problem, 96);
        while state.samples() < 48 && ga.step(&problem, &mut state, 96) {}
        let snap = Snapshot::capture("j", &state);
        let parsed = Snapshot::parse(&snap.render()).unwrap();
        let mut resumed = parsed.restore(&ga, &problem, "j").unwrap();
        while ga.step(&problem, &mut resumed, 96) {}
        let mut uninterrupted = ga.init(&problem, 96);
        while ga.step(&problem, &mut uninterrupted, 96) {}
        assert_eq!(
            resumed.op_counters(),
            uninterrupted.op_counters(),
            "attribution across a kill must equal an uninterrupted run"
        );
        assert_eq!(resumed.last_improved_generation(), uninterrupted.last_improved_generation());
    }

    #[test]
    fn checkpoint_size_tracks_improvements_not_samples() {
        // 100k samples, ten improvements: the rendered document must stay
        // kilobytes (population + a handful of history segments), not the
        // 1.7 MB a per-sample history would cost.
        let (problem, ga) = setup();
        let mut snap = Snapshot::capture("j", &ga.init(&problem, 16));
        let mut history = Vec::with_capacity(100_000);
        let mut best = f64::INFINITY;
        for i in 0..100_000u64 {
            if i % 10_000 == 0 {
                best = 1e12 / (i + 1) as f64;
            }
            history.push(best);
        }
        snap.history = history;
        snap.samples = 100_000;
        let rendered = snap.render();
        assert!(rendered.len() < 8 * 1024, "snapshot is {} bytes", rendered.len());
        let parsed = Snapshot::parse(&rendered).unwrap();
        assert_eq!(parsed.history.len(), 100_000);
        for (a, b) in parsed.history.iter().zip(&snap.history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn infinity_history_survives_the_roundtrip() {
        // Before the first feasible design the history is +inf; the
        // format must carry that exactly.
        let (problem, ga) = setup();
        let mut snap = Snapshot::capture("j", &ga.init(&problem, 16));
        snap.history = vec![f64::INFINITY, 1.5];
        snap.samples = 2;
        let parsed = Snapshot::parse(&snap.render()).unwrap();
        assert!(parsed.history[0].is_infinite());
        assert_eq!(parsed.history[1], 1.5);
    }
}
