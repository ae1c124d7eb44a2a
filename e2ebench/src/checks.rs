//! Output checks. Each returns one message per violation; a run with
//! any message reports `"correct": false` and exits nonzero.

use crate::serve::JobRun;

/// Every job reached `done`.
pub fn all_done(runs: &[JobRun]) -> Vec<String> {
    runs.iter()
        .filter_map(|r| match &r.report {
            Ok(w) if w.status == "done" => None,
            Ok(w) => Some(format!("job {} ended {}", r.k, w.status)),
            Err(e) => Some(format!("job {}: {e}", r.k)),
        })
        .collect()
}

fn best(run: &JobRun) -> Option<(&str, &str)> {
    let w = run.report.as_ref().ok()?;
    Some((w.best_cost.as_deref()?, w.best_genome.as_deref()?))
}

/// Every run of a spec (`spec_of(k)` names job `k`'s spec) reports the
/// best cost and design the spec's run in `first` reported.
pub fn repeats_agree(
    first: &[JobRun],
    repeats: &[JobRun],
    spec_of: &dyn Fn(usize) -> usize,
) -> Vec<String> {
    let mut problems = Vec::new();
    for run in repeats {
        let spec = spec_of(run.k);
        let reference = first.iter().find(|f| spec_of(f.k) == spec).and_then(best);
        if reference.is_none() || best(run) != reference {
            problems.push(format!(
                "job {} of spec {spec} reported {:?}, its first run {:?}",
                run.k,
                best(run).map(|b| b.0),
                reference.map(|b| b.0)
            ));
        }
    }
    problems
}

/// Each served job reports the best cost and design (`%.6e` cost,
/// genome text) of the same spec searched in process.
pub fn matches_in_process(runs: &[JobRun], expected: &[Option<(String, String)>]) -> Vec<String> {
    runs.iter()
        .zip(expected)
        .filter(|(run, want)| best(run) != want.as_ref().map(|(c, g)| (c.as_str(), g.as_str())))
        .map(|(run, want)| {
            format!(
                "served job {} reported {:?}, in process {:?}",
                run.k,
                best(run).map(|b| b.0),
                want.as_ref().map(|w| &w.0)
            )
        })
        .collect()
}

/// Each repeated search reproduced its reference fingerprint (best
/// cost, best design, and the whole best-so-far history).
pub fn searches_repeat(reference: &[u64], observed: &[u64], label: &str) -> Vec<String> {
    reference
        .iter()
        .zip(observed)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, (a, b))| format!("{label}: search {i} fingerprint {b:016x}, first run {a:016x}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::WireReport;
    use std::time::Duration;

    fn run(k: usize, cost: &str) -> JobRun {
        JobRun {
            k,
            traced: false,
            latency: Duration::from_millis(2),
            cycle: Duration::from_millis(3),
            submit: Duration::ZERO,
            status_call: Duration::ZERO,
            requests: 3,
            report: Ok(WireReport {
                status: "done".into(),
                best_cost: Some(cost.into()),
                best_genome: Some(format!("genome-for-{cost}")),
                ..Default::default()
            }),
        }
    }

    #[test]
    fn honest_results_pass() {
        let first = [run(0, "1e3"), run(1, "2e3")];
        let repeats = [run(0, "1e3"), run(1, "2e3"), run(2, "1e3")];
        assert!(all_done(&repeats).is_empty());
        assert!(repeats_agree(&first, &repeats, &|k| k % 2).is_empty());
        let expected = vec![Some(("1e3".into(), "genome-for-1e3".into()))];
        assert!(matches_in_process(&first[..1], &expected).is_empty());
        assert!(searches_repeat(&[1, 2], &[1, 2], "pass").is_empty());
    }

    #[test]
    fn tampered_results_fail() {
        let first = [run(0, "1e3"), run(1, "2e3")];
        let mut repeats = vec![run(0, "1e3"), run(1, "2e3"), run(2, "1.000001e3")];
        assert_eq!(repeats_agree(&first, &repeats, &|k| k % 2).len(), 1);

        if let Ok(w) = &mut repeats[1].report {
            w.best_genome = Some("someone else's design".into());
        }
        assert_eq!(repeats_agree(&first, &repeats, &|k| k % 2).len(), 2);
        // A spec that never ran first has nothing to agree with.
        assert_eq!(repeats_agree(&first[..1], &first, &|k| k % 2).len(), 1);

        if let Ok(w) = &mut repeats[0].report {
            w.status = "failed".into();
        }
        repeats.push(JobRun { report: Err("HTTP 503".into()), ..run(3, "1e3") });
        assert_eq!(all_done(&repeats).len(), 2);

        let expected = vec![Some(("1e3".into(), "genome-for-1e3".into()))];
        assert_eq!(matches_in_process(&[run(0, "9e3")], &expected).len(), 1);
        assert_eq!(matches_in_process(&first[..1], &[None]).len(), 1);

        assert_eq!(searches_repeat(&[1, 2], &[1, 3], "pass").len(), 1);
    }
}
