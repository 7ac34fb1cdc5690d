//! Regression test for the parallel exploration engine: a reduced-
//! budget pipeline over the full 11-benchmark set must produce
//! byte-identical Table 4 (customized cores) and Table 5 (cross-
//! configuration matrix) output whether it runs on one worker or four.

use xps_core::explore::{EvalCache, RunContext};
use xps_core::pipeline::{Pipeline, PipelineResult};
use xps_core::workload::{spec, WorkloadProfile};

/// A pipeline small enough to run twice in a test, but still exercising
/// multi-start annealing, cross seeding, and replacement passes.
fn reduced(jobs: usize) -> Pipeline {
    let mut p = Pipeline::quick();
    p.explore.anneal.iterations = 12;
    p.explore.anneal.eval_ops_early = 4000;
    p.explore.anneal.eval_ops_late = 8000;
    p.explore.reanneal_iterations = 4;
    p.explore.jobs = jobs;
    p.matrix_ops = 8000;
    p
}

/// One reduced run under the `XPS_FAULTS` plan (when set).
fn run(jobs: usize, profiles: &[WorkloadProfile]) -> PipelineResult {
    let ctx = RunContext::from_env().expect("valid XPS_FAULTS");
    reduced(jobs)
        .run(profiles, &EvalCache::new(), &ctx)
        .expect("reduced pipeline")
}

#[test]
fn jobs_1_and_jobs_4_produce_identical_tables() {
    let profiles = spec::all_profiles();
    let serial = run(1, &profiles);
    let parallel = run(4, &profiles);

    // Table 4: the customized cores, serialized field-for-field.
    let t4_serial = serde_json::to_string_pretty(&serial.cores).expect("serialize");
    let t4_parallel = serde_json::to_string_pretty(&parallel.cores).expect("serialize");
    assert_eq!(t4_serial, t4_parallel, "Table 4 must be byte-identical");

    // Table 5: the cross-configuration matrix.
    let t5_serial = serde_json::to_string_pretty(&serial.matrix).expect("serialize");
    let t5_parallel = serde_json::to_string_pretty(&parallel.matrix).expect("serialize");
    assert_eq!(t5_serial, t5_parallel, "Table 5 must be byte-identical");

    // The run-shape counters are the only things allowed to differ.
    assert_eq!(serial.stats.workers, 1);
    assert_eq!(parallel.stats.workers, 4);
    assert_eq!(
        serial.stats.per_worker_tasks.iter().sum::<u64>(),
        parallel.stats.per_worker_tasks.iter().sum::<u64>(),
        "same total work either way"
    );
    // The shared cache must actually short-circuit work: replacement
    // passes re-measure rows/columns that mostly did not change.
    assert!(parallel.stats.cache.hits > 0, "cache must see hits");
    assert!(parallel.stats.cache.misses > 0, "cache must also simulate");
}
