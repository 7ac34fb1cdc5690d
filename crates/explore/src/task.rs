//! Wire-format task descriptions: the exploration DAG, exported.
//!
//! Every expensive unit of work the pipeline fans out — an annealing
//! walk from one start, one cross-seeding or matrix-cell evaluation —
//! is a pure function of a small, serializable description. A
//! [`TaskSpec`] is that description: shipped to a fleet worker it
//! reproduces *exactly* the value the local closure would have
//! computed, because both sides run the same deterministic engine on
//! the same inputs. That equivalence is what lets a coordinator
//! scatter tasks over the wire and still gather a byte-identical
//! result for any worker count, topology, or failure schedule: a task
//! that cannot be dispatched (no healthy worker, exhausted retries,
//! garbage response) simply runs locally, and nobody downstream can
//! tell the difference.
//!
//! A [`TaskDispatcher`] is the seam between the recovery layer and
//! whatever remote execution exists: [`RunContext`] asks it for each
//! describable task, and treats `None` — for any reason — as "run it
//! here". The dispatcher owns every networking concern (deadlines,
//! retries, backoff, quarantine); this crate never opens a socket.
//!
//! [`RunContext`]: crate::recovery::RunContext

use crate::anneal::{anneal, AnnealOptions};
use crate::cache::EvalCache;
use crate::point::DesignPoint;
use crate::search::{explorer_by_name, SearchOptions};
use serde::{Deserialize, Serialize};
use xps_cacti::Technology;
use xps_sim::CoreConfig;
use xps_workload::WorkloadProfile;

/// The most micro-ops one task may simulate. [`TaskSpec::execute`]
/// refuses a spec whose bound exceeds it before simulating anything, so
/// a hostile or mistyped spec cannot pin a worker for hours. The
/// largest task any in-repo caller sends is the full profile's anneal,
/// (260 + 2) × 400k ≈ 105M ops; this leaves about tenfold headroom.
pub const MAX_TASK_OPS: u64 = 1_000_000_000;

/// Which pipeline task a [`TaskSpec`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    /// A full annealing walk from one start point (`anneal` and
    /// `reanneal` fan items).
    Anneal,
    /// One IPT evaluation of a workload on a configuration (`seed`,
    /// `matrix`, and `rematrix` fan items).
    Eval,
    /// One budgeted portfolio search — one explorer against one
    /// workload (`bakeoff` fan items).
    Search,
}

/// A self-contained, serializable description of one pipeline task.
///
/// The vendored serde derive handles unit enum variants only, so this
/// is a struct tagged by [`TaskKind`] with the variant payloads as
/// optional fields; the constructors keep the combinations coherent
/// and [`execute`](TaskSpec::execute) validates them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskSpec {
    /// What to run.
    pub kind: TaskKind,
    /// The workload, inline (not by name) so a worker needs no shared
    /// registry to reproduce the exact model.
    pub profile: WorkloadProfile,
    /// Annealing start point ([`TaskKind::Anneal`] only).
    pub start: Option<DesignPoint>,
    /// Annealing options, with the multi-start seed already mixed in
    /// ([`TaskKind::Anneal`] only).
    pub opts: Option<AnnealOptions>,
    /// Technology point the anneal realizes against
    /// ([`TaskKind::Anneal`] only).
    pub tech: Option<Technology>,
    /// The configuration to evaluate on ([`TaskKind::Eval`] only).
    pub config: Option<CoreConfig>,
    /// Registry name of the search strategy ([`TaskKind::Search`]
    /// only).
    pub explorer: Option<String>,
    /// Budgeted-search options ([`TaskKind::Search`] only; `tech`
    /// carries the technology, as for anneals).
    pub search: Option<SearchOptions>,
    /// Trace length in micro-ops ([`TaskKind::Eval`] only; 0 for
    /// anneals and searches, which carry their own trace lengths via
    /// `opts` / `search`).
    pub ops: u64,
}

impl TaskSpec {
    /// Describe one annealing walk.
    pub fn anneal(
        profile: &WorkloadProfile,
        start: &DesignPoint,
        opts: &AnnealOptions,
        tech: &Technology,
    ) -> TaskSpec {
        TaskSpec {
            kind: TaskKind::Anneal,
            profile: profile.clone(),
            start: Some(start.clone()),
            opts: Some(opts.clone()),
            tech: Some(tech.clone()),
            config: None,
            explorer: None,
            search: None,
            ops: 0,
        }
    }

    /// Describe one IPT evaluation.
    pub fn eval(profile: &WorkloadProfile, config: &CoreConfig, ops: u64) -> TaskSpec {
        TaskSpec {
            kind: TaskKind::Eval,
            profile: profile.clone(),
            start: None,
            opts: None,
            tech: None,
            config: Some(config.clone()),
            explorer: None,
            search: None,
            ops,
        }
    }

    /// Describe one budgeted portfolio search.
    pub fn search(
        profile: &WorkloadProfile,
        explorer: &str,
        opts: &SearchOptions,
        tech: &Technology,
    ) -> TaskSpec {
        TaskSpec {
            kind: TaskKind::Search,
            profile: profile.clone(),
            start: None,
            opts: None,
            tech: Some(tech.clone()),
            config: None,
            explorer: Some(explorer.to_string()),
            search: Some(opts.clone()),
            ops: 0,
        }
    }

    /// The canonical JSON of this spec: derived struct serialization
    /// is field-ordered, so equal tasks — built on the coordinator or
    /// re-parsed on a worker — canonicalize to equal bytes. Fleet
    /// content-addressing fingerprints exactly this string.
    pub fn canonical(&self) -> String {
        // xps-allow(no-unwrap-in-lib): task specs are plain data structs built from validated campaign options; serialization cannot fail
        serde_json::to_string(self).expect("task specs serialize to JSON")
    }

    /// An upper bound on the micro-ops this task simulates (0 when its
    /// payload is missing). Saturating, so hostile values cannot
    /// overflow.
    fn op_bound(&self) -> u64 {
        match self.kind {
            TaskKind::Eval => self.ops,
            // The start, every iteration, and the final measurement.
            TaskKind::Anneal => self.opts.as_ref().map_or(0, |o| {
                u64::from(o.iterations)
                    .saturating_add(2)
                    .saturating_mul(o.eval_ops_early.max(o.eval_ops_late))
            }),
            TaskKind::Search => self
                .search
                .as_ref()
                .map_or(0, |o| o.budget.saturating_mul(o.eval_ops)),
        }
    }

    /// Run the task and serialize its result — the exact JSON the
    /// local fan closure's result would journal, so a dispatched
    /// result deserializes into the identical in-memory value.
    ///
    /// # Errors
    ///
    /// Returns a one-line description when the spec is incoherent
    /// (missing payload for its kind), invalid (bad annealing options
    /// or start point), would simulate more than [`MAX_TASK_OPS`], or
    /// anneals from a start that realizes no design under its
    /// technology. Execution is otherwise infallible: the engine is
    /// total over validated inputs.
    pub fn execute(&self, cache: &EvalCache) -> Result<String, String> {
        let bound = self.op_bound();
        if bound > MAX_TASK_OPS {
            return Err(format!(
                "task would simulate up to {bound} ops; the limit is {MAX_TASK_OPS}"
            ));
        }
        match self.kind {
            TaskKind::Anneal => {
                let (Some(start), Some(opts), Some(tech)) = (&self.start, &self.opts, &self.tech)
                else {
                    return Err("anneal task missing start/opts/tech".into());
                };
                opts.validate().map_err(|e| e.to_string())?;
                start.validate().map_err(|e| format!("anneal start: {e}"))?;
                let result = anneal(&self.profile, start, opts, tech, cache, None)
                    .map_err(|e| e.to_string())?;
                // xps-allow(no-unwrap-in-lib): task results are plain data structs; serialization cannot fail
                Ok(serde_json::to_string(&result).expect("task results serialize to JSON"))
            }
            TaskKind::Eval => {
                let Some(config) = &self.config else {
                    return Err("eval task missing config".into());
                };
                if self.ops == 0 {
                    return Err("eval task needs ops >= 1".into());
                }
                config.validate().map_err(|e| e.to_string())?;
                let ipt = cache.ipt(&self.profile, config, self.ops);
                // xps-allow(no-unwrap-in-lib): a measured IPT is a finite f64; serialization cannot fail
                Ok(serde_json::to_string(&ipt).expect("task results serialize to JSON"))
            }
            TaskKind::Search => {
                let (Some(name), Some(opts), Some(tech)) =
                    (&self.explorer, &self.search, &self.tech)
                else {
                    return Err("search task missing explorer/search/tech".into());
                };
                let explorer =
                    explorer_by_name(name).ok_or_else(|| format!("unknown explorer {name:?}"))?;
                let outcome = crate::search::search(&*explorer, &self.profile, tech, opts, cache)
                    .map_err(|e| e.to_string())?;
                // xps-allow(no-unwrap-in-lib): task results are plain data structs; serialization cannot fail
                Ok(serde_json::to_string(&outcome).expect("task results serialize to JSON"))
            }
        }
    }
}

/// The remote-execution seam of the recovery layer.
///
/// `dispatch` either returns the serialized result of running `spec`
/// somewhere else — byte-compatible with the local closure's journal
/// serialization — or `None` to decline, in which case the task runs
/// locally. Declining is always sound: it is the graceful-degradation
/// path down to zero workers. Implementations own their failure
/// handling (deadlines, bounded retries, quarantine) and must never
/// panic or block indefinitely; a worker that hangs past its deadline
/// is a decline, not a hang of the whole fan.
pub trait TaskDispatcher: Send + Sync + std::fmt::Debug {
    /// Try to run `spec` remotely. `key` is the task's deterministic
    /// journal key (`label#fan/item`) — stable across runs, so
    /// dispatchers can use it for deterministic fault injection and
    /// backoff jitter without consulting a clock.
    fn dispatch(&self, key: &str, spec: &TaskSpec) -> Option<String>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use xps_workload::spec;

    fn gzip() -> WorkloadProfile {
        spec::profile("gzip").expect("gzip exists")
    }

    #[test]
    fn canonical_round_trips_and_is_stable() {
        let t = TaskSpec::eval(&gzip(), &CoreConfig::initial(), 5_000);
        let json = t.canonical();
        let back: TaskSpec = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back.canonical(), json, "canonicalization is a fixpoint");
        assert_eq!(back.kind, TaskKind::Eval);
        assert_eq!(back.ops, 5_000);
    }

    #[test]
    fn eval_execute_matches_local_evaluation() {
        let cache = EvalCache::new();
        let config = CoreConfig::initial();
        let t = TaskSpec::eval(&gzip(), &config, 4_000);
        let remote = t.execute(&cache).expect("executes");
        let local = cache.ipt(&gzip(), &config, 4_000);
        let back: f64 = serde_json::from_str(&remote).expect("f64 body");
        assert!(
            back == local,
            "remote must be bit-identical: {back} vs {local}"
        );
        // And the wire JSON deserializes into Option<f64> too (the
        // `seed` fan's item type).
        let opt: Option<f64> = serde_json::from_str(&remote).expect("Option<f64> body");
        assert_eq!(opt, Some(local));
    }

    #[test]
    fn anneal_execute_matches_local_anneal() {
        let cache = EvalCache::new();
        let mut opts = AnnealOptions::quick();
        opts.iterations = 6;
        opts.eval_ops_early = 2_000;
        opts.eval_ops_late = 4_000;
        let tech = Technology::default();
        let start = DesignPoint::initial();
        let t = TaskSpec::anneal(&gzip(), &start, &opts, &tech);
        let remote = t.execute(&cache).expect("executes");
        let local = anneal(&gzip(), &start, &opts, &tech, &cache, None).expect("anneals");
        let expected = serde_json::to_string(&local).expect("serializes");
        assert_eq!(remote, expected, "remote anneal is byte-identical");
    }

    #[test]
    fn search_execute_matches_local_search() {
        use crate::search::{explorer_by_name, search};
        let cache = EvalCache::new();
        let opts = SearchOptions {
            budget: 8,
            eval_ops: 3_000,
            seed: 5,
        };
        let tech = Technology::default();
        let t = TaskSpec::search(&gzip(), "genetic", &opts, &tech);
        let remote = t.execute(&cache).expect("executes");
        let explorer = explorer_by_name("genetic").expect("registered");
        let local = search(&*explorer, &gzip(), &tech, &opts, &cache).expect("searches");
        let expected = serde_json::to_string(&local).expect("serializes");
        assert_eq!(remote, expected, "remote search is byte-identical");
    }

    #[test]
    fn search_specs_validate_their_payload() {
        let opts = SearchOptions {
            budget: 4,
            eval_ops: 1_000,
            seed: 1,
        };
        let tech = Technology::default();
        let mut t = TaskSpec::search(&gzip(), "anneal", &opts, &tech);
        t.explorer = Some("bogus".into());
        assert!(t.execute(&EvalCache::new()).is_err(), "unknown explorer");
        let mut t = TaskSpec::search(&gzip(), "anneal", &opts, &tech);
        t.search = None;
        assert!(t.execute(&EvalCache::new()).is_err(), "missing options");
        let mut bad = opts.clone();
        bad.budget = 0;
        let t = TaskSpec::search(&gzip(), "anneal", &bad, &tech);
        assert!(t.execute(&EvalCache::new()).is_err(), "invalid options");
    }

    #[test]
    fn incoherent_specs_are_typed_errors() {
        let mut t = TaskSpec::eval(&gzip(), &CoreConfig::initial(), 1_000);
        t.config = None;
        assert!(t.execute(&EvalCache::new()).is_err());
        let mut a = TaskSpec::anneal(
            &gzip(),
            &DesignPoint::initial(),
            &AnnealOptions::quick(),
            &Technology::default(),
        );
        a.opts = None;
        assert!(a.execute(&EvalCache::new()).is_err());
        let mut z = TaskSpec::eval(&gzip(), &CoreConfig::initial(), 0);
        z.ops = 0;
        assert!(z.execute(&EvalCache::new()).is_err());
    }

    #[test]
    fn over_bound_eval_is_refused_before_simulating() {
        let cache = EvalCache::new();
        let t = TaskSpec::eval(&gzip(), &CoreConfig::initial(), MAX_TASK_OPS + 1);
        let err = t.execute(&cache).expect_err("over the bound");
        assert!(err.contains("limit"), "{err}");
        assert_eq!(cache.counters().misses, 0, "nothing simulated");
        let at = TaskSpec::eval(&gzip(), &CoreConfig::initial(), MAX_TASK_OPS);
        assert_eq!(at.op_bound(), MAX_TASK_OPS);
    }

    #[test]
    fn over_bound_anneal_is_refused_without_overflow() {
        let mut opts = AnnealOptions::quick();
        opts.iterations = u32::MAX;
        opts.eval_ops_late = u64::MAX;
        let t = TaskSpec::anneal(
            &gzip(),
            &DesignPoint::initial(),
            &opts,
            &Technology::default(),
        );
        assert_eq!(t.op_bound(), u64::MAX, "saturates");
        assert!(t.execute(&EvalCache::new()).is_err());
        // The full profile's anneal, the largest task any caller sends,
        // stays under the bound.
        let full = TaskSpec::anneal(
            &gzip(),
            &DesignPoint::initial(),
            &AnnealOptions::default(),
            &Technology::default(),
        );
        assert_eq!(full.op_bound(), 262 * 400_000);
        assert!(full.op_bound() < MAX_TASK_OPS);
    }

    #[test]
    fn over_bound_search_is_refused_without_overflow() {
        let opts = SearchOptions {
            budget: u64::MAX,
            eval_ops: 2,
            seed: 1,
        };
        let t = TaskSpec::search(&gzip(), "anneal", &opts, &Technology::default());
        assert_eq!(t.op_bound(), u64::MAX, "saturates");
        let err = t.execute(&EvalCache::new()).expect_err("over the bound");
        assert!(err.contains("limit"), "{err}");
        let ok = TaskSpec::search(
            &gzip(),
            "anneal",
            &SearchOptions::default(),
            &Technology::default(),
        );
        assert!(ok.op_bound() < MAX_TASK_OPS);
    }

    #[test]
    fn hostile_anneal_starts_are_refused_before_simulating() {
        let mut opts = AnnealOptions::quick();
        opts.iterations = 2;
        for clock_ns in [0.0, -1.0, 5.0, f64::NAN] {
            let start = DesignPoint {
                clock_ns,
                ..DesignPoint::initial()
            };
            let t = TaskSpec::anneal(&gzip(), &start, &opts, &Technology::default());
            let cache = EvalCache::new();
            let err = t.execute(&cache).expect_err("invalid start");
            assert!(err.contains("clock_ns"), "clock {clock_ns}: {err}");
            assert!(cache.is_empty(), "clock {clock_ns}: nothing simulated");
        }
    }
}
