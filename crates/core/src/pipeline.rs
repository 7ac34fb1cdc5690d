//! The end-to-end measured reproduction pipeline.
//!
//! `workload models → annealing exploration → cross-configuration
//! matrix → communal customization`, i.e. the paper's methodology run
//! on this repository's own substrate instead of the published data.

use crate::error::PipelineError;
use serde::{Deserialize, Serialize};
use xps_communal::CrossPerfMatrix;
use xps_explore::{
    merge_counts, resolve_jobs, Campaign, CustomizedCore, EvalCache, EvalCell, ExploreOptions,
    ExploreStats, RunContext,
};
use xps_sim::CoreConfig;
use xps_workload::WorkloadProfile;

/// The IPT substituted for a matrix cell whose measurement failed
/// every retry. Positive (so the matrix stays valid) but smaller than
/// any real measurement, so a failed cell can never win a replacement
/// decision; the failed task is listed in the run's
/// [`RecoveryStats::failed_tasks`](xps_explore::RecoveryStats::failed_tasks).
pub const FAILED_CELL_IPT: f64 = f64::MIN_POSITIVE;

/// Options of the full measured pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pipeline {
    /// Exploration options (annealing + cross seeding).
    pub explore: ExploreOptions,
    /// Trace length for each cell of the cross-configuration matrix.
    pub matrix_ops: u64,
    /// Maximum passes of the paper's replacement rule when building
    /// the matrix ("if a workload performs better on some other
    /// workload's configuration, that configuration replaces its
    /// own").
    pub replacement_passes: u32,
}

impl Default for Pipeline {
    fn default() -> Pipeline {
        Pipeline {
            explore: ExploreOptions::default(),
            matrix_ops: 1_000_000,
            replacement_passes: 3,
        }
    }
}

impl Pipeline {
    /// Cheap settings for tests and demos.
    pub fn quick() -> Pipeline {
        Pipeline {
            explore: ExploreOptions::quick(),
            matrix_ops: 40_000,
            replacement_passes: 2,
        }
    }

    /// Check every invariant of the pipeline options (including the
    /// nested exploration and annealing options), so a bad
    /// configuration is one typed error up front instead of a panic
    /// mid-campaign.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] naming the first violated invariant.
    pub fn validate(&self) -> Result<(), PipelineError> {
        self.explore.validate()?;
        if self.matrix_ops == 0 {
            return Err(PipelineError::InvalidPipeline(
                "matrix_ops must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

/// Everything the measured pipeline produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineResult {
    /// Each workload's customized core (the measured Table 4).
    pub cores: Vec<CustomizedCore>,
    /// The measured cross-configuration matrix (the measured Table 5).
    pub matrix: CrossPerfMatrix,
    /// Parallelism, cache, and crash-safety counters spanning both
    /// phases. Informational only — results do not depend on them.
    pub stats: ExploreStats,
}

/// Build a cross-configuration matrix by simulating every workload on
/// every configuration, applying the paper's replacement rule until
/// the diagonal dominates (or the pass budget runs out). Returns the
/// matrix plus the per-worker task counts.
///
/// The cell measurements fan out over `jobs` workers (0 = available
/// parallelism) as lock-step rows, memoized in `cache` (or, without
/// one, in a cache private to the call). Cells are pure functions of
/// `(profile, config, ops)` and are merged in row-major order, so the
/// matrix is bit-identical for any worker count. With a cache shared
/// with the exploration phase, replacement passes mostly re-measure
/// unchanged cells and hit instead of re-simulating.
///
/// Every cell measurement runs through `ctx` — panic-isolated,
/// retried, optionally journaled and fault-injected. A cell that fails
/// every attempt is reported in the context's
/// [`RecoveryStats`](xps_explore::RecoveryStats) and
/// measured as [`FAILED_CELL_IPT`] (so it can never win a replacement
/// decision) instead of aborting the run.
///
/// # Errors
///
/// Returns [`PipelineError`] when the configuration count mismatches
/// the workload count, the journal fails, or the assembled matrix is
/// invalid.
#[allow(clippy::too_many_arguments)]
pub fn cross_matrix_recoverable(
    profiles: &[WorkloadProfile],
    configs: &mut [CoreConfig],
    ops: u64,
    passes: u32,
    jobs: usize,
    cache: Option<&EvalCache>,
    ctx: &RunContext,
) -> Result<(CrossPerfMatrix, Vec<u64>), PipelineError> {
    if profiles.len() != configs.len() {
        return Err(PipelineError::InvalidPipeline(format!(
            "one configuration per workload ({} profiles, {} configs)",
            profiles.len(),
            configs.len()
        )));
    }
    let n = profiles.len();
    let local;
    let cache = match cache {
        Some(cache) => cache,
        None => {
            local = EvalCache::new();
            &local
        }
    };
    fn cell<'a>(
        profile: &'a WorkloadProfile,
        config: &'a CoreConfig,
        ops: u64,
    ) -> Option<EvalCell<'a>> {
        Some(EvalCell {
            profile,
            config,
            ops,
        })
    }
    let unwrap_cell = |item: Result<Option<f64>, xps_explore::TaskError>| match item {
        Ok(Some(v)) => v,
        // Already recorded in the context's failed-task list; degrade.
        _ => FAILED_CELL_IPT,
    };
    let mut per_worker_tasks = Vec::new();
    let mut ipt = vec![vec![0.0f64; n]; n];
    let fill_phase = xps_trace::span("matrix.fill");
    let cells: Vec<_> = (0..n * n)
        .map(|t| cell(&profiles[t / n], &configs[t % n], ops))
        .collect();
    let fan = ctx.run_eval_fan(jobs, "matrix", &cells, cache)?;
    fill_phase.end_with(|| xps_trace::attr("cells", n * n));
    merge_counts(&mut per_worker_tasks, &fan.per_worker);
    for (t, item) in fan.items.into_iter().enumerate() {
        ipt[t / n][t % n] = unwrap_cell(item);
    }
    let replace_phase = xps_trace::span("matrix.replace");
    let mut replacements = 0u64;
    for _ in 0..passes {
        let mut changed = false;
        for w in 0..n {
            let best = (0..n)
                // xps-allow(no-unwrap-in-lib): matrix cells are measured IPTs or the finite FAILED_CELL_IPT sentinel; never NaN
                .max_by(|&a, &b| ipt[w][a].partial_cmp(&ipt[w][b]).expect("finite"))
                // xps-allow(no-unwrap-in-lib): the matrix is square over at least one workload
                .expect("non-empty row");
            if best != w && ipt[w][best] > ipt[w][w] {
                // Adopt the better configuration as w's own; its row
                // and column must be re-measured (one fan-out: the
                // first n tasks are the row, the rest the column).
                configs[w] = CoreConfig {
                    name: profiles[w].name.clone(),
                    ..configs[best].clone()
                };
                changed = true;
                replacements += 1;
                xps_trace::instant("matrix.adopt", || {
                    xps_trace::attrs([
                        ("workload", profiles[w].name.as_str().into()),
                        ("from", profiles[best].name.as_str().into()),
                    ])
                });
                let cells: Vec<_> = (0..n)
                    .map(|t| cell(&profiles[w], &configs[t], ops))
                    .chain((0..n).map(|t| cell(&profiles[t], &configs[w], ops)))
                    .collect();
                let fan = ctx.run_eval_fan(jobs, "rematrix", &cells, cache)?;
                merge_counts(&mut per_worker_tasks, &fan.per_worker);
                for (t, item) in fan.items.into_iter().enumerate() {
                    let v = unwrap_cell(item);
                    if t < n {
                        ipt[w][t] = v;
                    } else {
                        ipt[t - n][w] = v;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    replace_phase.end_with(|| xps_trace::attr("replacements", replacements));
    let matrix =
        CrossPerfMatrix::from_fn(profiles.iter().map(|p| p.name.clone()).collect(), |w, c| {
            ipt[w][c]
        })
        .map_err(PipelineError::InvalidMatrix)?
        .with_weights(profiles.iter().map(|p| p.weight).collect())
        .map_err(PipelineError::InvalidMatrix)?;
    Ok((matrix, per_worker_tasks))
}

impl Pipeline {
    /// Run the full pipeline over `profiles`: exploration, then the
    /// cross-configuration matrix.
    ///
    /// `cache` and one worker pool (sized by `explore.jobs`; 0 =
    /// available parallelism) span both phases: the exploration warms
    /// the cache, and the matrix then reuses every evaluation it can.
    /// The cache may outlive the run — a long-lived service shares one
    /// across requests. Every task — anneal start, cross-seed
    /// evaluation, re-anneal, matrix cell — runs through `ctx`, which
    /// isolates panics, retries failed attempts, checkpoints completed
    /// tasks when a journal is attached (so an interrupted campaign
    /// resumes without re-running finished work), and streams
    /// annealing steps and task completions to its observer. Results
    /// are bit-identical for any worker count, cache state, or
    /// observer, and to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] when the options are invalid, the
    /// journal fails, or a whole workload fails terminally.
    pub fn run(
        &self,
        profiles: &[WorkloadProfile],
        cache: &EvalCache,
        ctx: &RunContext,
    ) -> Result<PipelineResult, PipelineError> {
        self.validate()?;
        let explored =
            Campaign::try_new(self.explore.clone())?.explore_recoverable(profiles, cache, ctx)?;
        let mut configs: Vec<CoreConfig> =
            explored.cores.iter().map(|c| c.config.clone()).collect();
        let (matrix, matrix_tasks) = cross_matrix_recoverable(
            profiles,
            &mut configs,
            self.matrix_ops,
            self.replacement_passes,
            self.explore.jobs,
            Some(cache),
            ctx,
        )?;
        let mut per_worker_tasks = explored.stats.per_worker_tasks.clone();
        merge_counts(&mut per_worker_tasks, &matrix_tasks);
        let cores = explored
            .cores
            .into_iter()
            .zip(configs)
            .enumerate()
            .map(|(i, (mut core, config))| {
                core.ipt = matrix.ipt(i, i);
                core.config = config;
                core
            })
            .collect();
        Ok(PipelineResult {
            cores,
            matrix,
            stats: ExploreStats {
                workers: resolve_jobs(self.explore.jobs),
                per_worker_tasks,
                cache: cache.counters(),
                recovery: ctx.stats(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xps_workload::spec;

    #[test]
    fn quick_pipeline_three_workloads() {
        let profiles: Vec<_> = ["gzip", "mcf", "crafty"]
            .iter()
            .map(|n| spec::profile(n).expect("known benchmark"))
            .collect();
        let ctx = RunContext::from_env().expect("valid XPS_FAULTS");
        let r = Pipeline::quick()
            .run(&profiles, &EvalCache::new(), &ctx)
            .expect("quick pipeline");
        assert_eq!(r.cores.len(), 3);
        assert_eq!(r.matrix.len(), 3);
        assert!(
            r.matrix.is_diagonal_dominant(),
            "replacement rule must make the diagonal dominate"
        );
        for (i, core) in r.cores.iter().enumerate() {
            assert!((core.ipt - r.matrix.ipt(i, i)).abs() < 1e-12);
        }
    }

    #[test]
    fn cross_matrix_replacement_rule() {
        let profiles: Vec<_> = ["twolf", "vpr"]
            .iter()
            .map(|n| spec::profile(n).expect("known benchmark"))
            .collect();
        // Deliberately give twolf a terrible configuration; the rule
        // should replace it with vpr's.
        let mut bad = CoreConfig::initial();
        bad.name = "twolf".to_string();
        bad.rob_size = 32;
        bad.iq_size = 8;
        bad.lsq_size = 16;
        bad.clock_ns = 1.0;
        let mut good = CoreConfig::initial();
        good.name = "vpr".to_string();
        let mut configs = vec![bad, good];
        let ctx = RunContext::from_env().expect("valid XPS_FAULTS");
        let (m, _) = cross_matrix_recoverable(&profiles, &mut configs, 20_000, 3, 1, None, &ctx)
            .expect("matrix");
        assert!(m.is_diagonal_dominant());
        assert_eq!(
            configs[0].rob_size, configs[1].rob_size,
            "twolf adopted vpr's config"
        );
    }
}
