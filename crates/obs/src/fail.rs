//! Deterministic, dependency-free fault injection.
//!
//! A *failpoint* is a named site in the code that asks, each time it is
//! reached, whether an injected fault should fire there. Production
//! code compiles the question down to one relaxed atomic load: with no
//! failpoints configured (the default), [`FailSet::fired`] returns
//! `None` without taking any lock. Tests and the `digamma-netd
//! --failpoints` flag arm points with a spec string:
//!
//! ```text
//! SPEC  := POINT (';' POINT)*
//! POINT := NAME '=' ACTION (',' MOD)*
//! ACTION := panic | err | enospc | short | drop | delay:MS
//! MOD    := once | nth:N | every:N | times:N | p:F | seed:N
//! ```
//!
//! Examples:
//!
//! * `worker.eval=panic,nth:2` — panic on the second evaluation hit only
//! * `journal.append=short,once` — tear the first journal append
//! * `cache.spill=enospc,once` — one disk-full spill
//! * `sock.read=err,p:0.2,seed:7` — fail ~20% of socket reads, seeded
//!
//! Triggers are deterministic: `once` fires on the first hit, `nth:N`
//! on exactly the Nth hit, `every:N` on every Nth, and `p:F` draws from
//! a seeded xorshift stream so a given seed always fires on the same
//! hit sequence. `times:N` caps total firings of a point. The *action*
//! is advice to the call site — storage sites map [`FailAction::Short`]
//! to a torn write and [`FailAction::Enospc`] to a disk-full error,
//! socket sites map [`FailAction::Drop`] to closing the connection,
//! worker sites honor [`FailAction::Panic`] — so one framework serves
//! every failure domain without knowing any of them.
//!
//! There is no process-global set: each server owns one [`FailSet`]
//! (`ServerConfig::faults`, armed once at startup) and hands it to every
//! failure domain it runs — journal, storage writes, worker evals and
//! sockets — so separate servers in one process, like parallel tests,
//! never fight over shared state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a fired failpoint asks its call site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic at the call site (the worker-eval domain).
    Panic,
    /// Fail with a generic injected I/O error.
    Err,
    /// Fail with `ENOSPC` (disk full).
    Enospc,
    /// Write only a prefix of the data (a torn/short write).
    Short,
    /// Drop the connection / stream mid-operation.
    Drop,
    /// Sleep this many milliseconds, then proceed normally.
    Delay(u64),
}

impl FailAction {
    /// The I/O error this action injects, for storage/socket sites:
    /// `Err` and `Enospc` map to errors tagged `injected fault`, every
    /// other action returns `None` (the site handles it differently).
    pub fn to_io_error(self, point: &str) -> Option<std::io::Error> {
        match self {
            FailAction::Err => {
                Some(std::io::Error::other(format!("injected fault at failpoint {point:?}")))
            }
            // Raw ENOSPC so callers that match on the OS error see the
            // real thing, message notwithstanding.
            FailAction::Enospc => Some(std::io::Error::from_raw_os_error(28)),
            _ => None,
        }
    }
}

/// When a point fires, relative to its hit count.
#[derive(Debug, Clone, Copy)]
enum Trigger {
    /// Every hit.
    Always,
    /// The first hit only.
    Once,
    /// Exactly the Nth hit (1-based).
    Nth(u64),
    /// Every Nth hit (1-based: N, 2N, ...).
    Every(u64),
    /// Each hit independently with probability `p`, from a seeded
    /// xorshift stream.
    Prob(f64),
}

/// One armed failpoint. Hit bookkeeping is atomic so evaluation never
/// blocks behind another thread's hit.
#[derive(Debug)]
struct FailPoint {
    action: FailAction,
    trigger: Trigger,
    /// Cap on total firings (`times:N`); `u64::MAX` when uncapped.
    max_fires: u64,
    hits: AtomicU64,
    fires: AtomicU64,
    /// xorshift64* state for `Prob`.
    rng: AtomicU64,
}

impl FailPoint {
    /// Evaluates one hit: advances the counters and reports the action
    /// if the trigger fires.
    fn hit(&self) -> Option<FailAction> {
        let n = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let fires = match self.trigger {
            Trigger::Always => true,
            Trigger::Once => n == 1,
            Trigger::Nth(k) => n == k,
            Trigger::Every(k) => k > 0 && n.is_multiple_of(k),
            Trigger::Prob(p) => {
                // Seeded xorshift64*: each hit consumes one draw, so a
                // given seed fires on the same hit indices every run.
                let mut x = self.rng.load(Ordering::Relaxed);
                loop {
                    let mut next = x;
                    next ^= next >> 12;
                    next ^= next << 25;
                    next ^= next >> 27;
                    match self.rng.compare_exchange_weak(
                        x,
                        next,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            let draw = next.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
                            break (draw as f64 / (1u64 << 53) as f64) < p;
                        }
                        Err(current) => x = current,
                    }
                }
            }
        };
        if !fires {
            return None;
        }
        // `times:N` cap: claim a firing slot atomically.
        let prior = self.fires.fetch_add(1, Ordering::Relaxed);
        if prior >= self.max_fires {
            return None;
        }
        Some(self.action)
    }
}

/// Hit/fire counts for one point, as [`FailSet::snapshot`] reports them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailStat {
    /// The point's name.
    pub name: String,
    /// Times the site was reached.
    pub hits: u64,
    /// Times the trigger fired.
    pub fires: u64,
}

/// A set of armed failpoints, shared by every failure domain of one
/// server.
#[derive(Debug, Default)]
pub struct FailSet {
    /// Fast path: `false` means no point is armed and [`FailSet::fired`]
    /// returns immediately.
    active: AtomicBool,
    points: Mutex<HashMap<String, Arc<FailPoint>>>,
}

impl FailSet {
    /// An empty (inactive) set.
    pub fn new() -> FailSet {
        FailSet::default()
    }

    /// Whether any point is armed.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Replaces the armed points with the ones described by `spec`
    /// (grammar in the module docs). An empty spec disarms everything.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed point.
    pub fn configure(&self, spec: &str) -> Result<(), String> {
        let parsed = parse_spec(spec)?;
        let mut points = self.points.lock().expect("failpoint table poisoned");
        points.clear();
        for (name, point) in parsed {
            points.insert(name, Arc::new(point));
        }
        self.active.store(!points.is_empty(), Ordering::Relaxed);
        Ok(())
    }

    /// Disarms every point and resets counters.
    pub fn clear(&self) {
        let mut points = self.points.lock().expect("failpoint table poisoned");
        points.clear();
        self.active.store(false, Ordering::Relaxed);
    }

    /// The hot-path question: did the named point fire on this hit?
    /// One relaxed load when nothing is armed.
    pub fn fired(&self, name: &str) -> Option<FailAction> {
        if !self.active.load(Ordering::Relaxed) {
            return None;
        }
        let point = {
            let points = self.points.lock().expect("failpoint table poisoned");
            points.get(name).cloned()
        };
        let action = point?.hit()?;
        if let FailAction::Delay(ms) = action {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        Some(action)
    }

    /// Hit/fire counts for every armed point, sorted by name.
    pub fn snapshot(&self) -> Vec<FailStat> {
        let points = self.points.lock().expect("failpoint table poisoned");
        let mut stats: Vec<FailStat> = points
            .iter()
            .map(|(name, p)| FailStat {
                name: name.clone(),
                hits: p.hits.load(Ordering::Relaxed),
                fires: p.fires.load(Ordering::Relaxed).min(p.max_fires),
            })
            .collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }
}

/// Parses a spec into named points (grammar in the module docs).
fn parse_spec(spec: &str) -> Result<Vec<(String, FailPoint)>, String> {
    let mut out = Vec::new();
    for raw in spec.split(';') {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let (name, rest) = raw
            .split_once('=')
            .ok_or_else(|| format!("failpoint {raw:?} needs NAME=ACTION[,MOD...]"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("failpoint {raw:?} has an empty name"));
        }
        let mut tokens = rest.split(',').map(str::trim);
        let action_token = tokens.next().filter(|t| !t.is_empty()).ok_or_else(|| {
            format!("failpoint {name:?} needs an action (panic/err/enospc/short/drop/delay:MS)")
        })?;
        let action = match action_token.split_once(':') {
            None => match action_token {
                "panic" => FailAction::Panic,
                "err" => FailAction::Err,
                "enospc" => FailAction::Enospc,
                "short" => FailAction::Short,
                "drop" => FailAction::Drop,
                other => return Err(format!("failpoint {name:?}: unknown action {other:?}")),
            },
            Some(("delay", ms)) => FailAction::Delay(
                ms.parse().map_err(|_| format!("failpoint {name:?}: delay needs milliseconds"))?,
            ),
            Some((other, _)) => {
                return Err(format!("failpoint {name:?}: unknown action {other:?}"))
            }
        };
        let mut trigger = Trigger::Always;
        let mut max_fires = u64::MAX;
        let mut seed = None;
        for token in tokens {
            if token.is_empty() {
                return Err(format!("failpoint {name:?} has an empty modifier"));
            }
            match token.split_once(':') {
                None if token == "once" => trigger = Trigger::Once,
                Some(("nth", v)) => {
                    let n: u64 = v
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("failpoint {name:?}: nth needs N >= 1"))?;
                    trigger = Trigger::Nth(n);
                }
                Some(("every", v)) => {
                    let n: u64 = v
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("failpoint {name:?}: every needs N >= 1"))?;
                    trigger = Trigger::Every(n);
                }
                Some(("times", v)) => {
                    max_fires = v
                        .parse()
                        .map_err(|_| format!("failpoint {name:?}: times needs a count"))?;
                }
                Some(("p", v)) => {
                    let p: f64 = v
                        .parse()
                        .ok()
                        .filter(|p| (0.0..=1.0).contains(p))
                        .ok_or_else(|| format!("failpoint {name:?}: p needs 0.0..=1.0"))?;
                    trigger = Trigger::Prob(p);
                }
                Some(("seed", v)) => {
                    seed = Some(
                        v.parse::<u64>()
                            .map_err(|_| format!("failpoint {name:?}: seed needs an integer"))?,
                    );
                }
                _ => return Err(format!("failpoint {name:?}: unknown modifier {token:?}")),
            }
        }
        // Default probability seed: a stable hash of the point name, so
        // unseeded probabilistic points are still run-to-run stable.
        let seed = seed.unwrap_or_else(|| {
            name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
        });
        out.push((
            name.to_owned(),
            FailPoint {
                action,
                trigger,
                max_fires,
                hits: AtomicU64::new(0),
                fires: AtomicU64::new(0),
                // xorshift state must be non-zero.
                rng: AtomicU64::new(seed | 1),
            },
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed(spec: &str) -> FailSet {
        let set = FailSet::new();
        set.configure(spec).expect("valid spec");
        set
    }

    #[test]
    fn inactive_set_never_fires() {
        let set = FailSet::new();
        assert!(!set.is_active());
        assert_eq!(set.fired("anything"), None);
        assert!(set.snapshot().is_empty());
    }

    #[test]
    fn once_fires_exactly_once() {
        let set = armed("j.append=short,once");
        assert_eq!(set.fired("j.append"), Some(FailAction::Short));
        for _ in 0..10 {
            assert_eq!(set.fired("j.append"), None);
        }
        let stats = set.snapshot();
        assert_eq!(stats.len(), 1);
        assert_eq!((stats[0].hits, stats[0].fires), (11, 1));
    }

    #[test]
    fn nth_fires_on_exactly_the_nth_hit() {
        let set = armed("w.eval=panic,nth:3");
        assert_eq!(set.fired("w.eval"), None);
        assert_eq!(set.fired("w.eval"), None);
        assert_eq!(set.fired("w.eval"), Some(FailAction::Panic));
        assert_eq!(set.fired("w.eval"), None);
    }

    #[test]
    fn every_fires_periodically_and_times_caps_firings() {
        let set = armed("s.read=err,every:2,times:2");
        let fires: Vec<bool> = (0..8).map(|_| set.fired("s.read").is_some()).collect();
        assert_eq!(fires, vec![false, true, false, true, false, false, false, false]);
    }

    #[test]
    fn probability_is_seeded_and_reproducible() {
        let a = armed("x=err,p:0.5,seed:42");
        let b = armed("x=err,p:0.5,seed:42");
        let run =
            |set: &FailSet| -> Vec<bool> { (0..64).map(|_| set.fired("x").is_some()).collect() };
        let fires = run(&a);
        assert_eq!(fires, run(&b), "same seed, same firing sequence");
        let count = fires.iter().filter(|&&f| f).count();
        assert!((16..=48).contains(&count), "p=0.5 over 64 draws fired {count} times");
    }

    #[test]
    fn unknown_points_do_not_fire_and_unnamed_points_are_rejected() {
        let set = armed("a=err");
        assert_eq!(set.fired("b"), None);
        assert!(parse_spec("=err").is_err());
        assert!(parse_spec("a").is_err());
        assert!(parse_spec("a=explode").is_err());
        assert!(parse_spec("a=err,p:1.5").is_err());
        assert!(parse_spec("a=err,nth:0").is_err());
        assert!(parse_spec("a=delay").is_err());
    }

    #[test]
    fn multi_point_specs_and_reconfigure() {
        let set = armed("a=panic,once; b=enospc,nth:2 ; c=delay:0");
        assert_eq!(set.fired("a"), Some(FailAction::Panic));
        assert_eq!(set.fired("b"), None);
        assert_eq!(set.fired("b"), Some(FailAction::Enospc));
        assert_eq!(set.fired("c"), Some(FailAction::Delay(0)));
        set.configure("").unwrap();
        assert!(!set.is_active());
        assert_eq!(set.fired("a"), None);
    }

    #[test]
    fn io_error_mapping() {
        assert_eq!(FailAction::Enospc.to_io_error("p").map(|e| e.raw_os_error()), Some(Some(28)));
        assert!(FailAction::Err.to_io_error("p").is_some());
        assert!(FailAction::Short.to_io_error("p").is_none());
        assert!(FailAction::Panic.to_io_error("p").is_none());
    }
}
