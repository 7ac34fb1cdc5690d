//! End-to-end crash-safety guarantees of the measured pipeline:
//!
//! * fault-injected runs (transient panics in ~20% of tasks) retry to
//!   success and produce **byte-identical** Table 4 / Table 5 output
//!   to a fault-free single-threaded run;
//! * a run interrupted mid-campaign resumes from its journal, re-runs
//!   only the unjournaled tasks (the counters prove it), and again
//!   reproduces the identical bytes;
//! * a permanently failing task degrades the run instead of aborting
//!   it, and is reported by name.
//!
//! The `batched_matrix_*` cases repeat these guarantees with matrix
//! cells past the replay cache, where the matrix fans run lock-step
//! batches over streamed traces; the `batched_anneal_*` cases repeat
//! them for the anneal fan, whose walks step in lock-step per workload.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use xps_core::cacti::Technology;
use xps_core::explore::{
    AnnealOptions, DesignPoint, EvalCache, ExploreError, FaultKind, FaultPlan, Journal,
    ProgressEvent, ProgressSink, RunContext, Walk, WalkCell,
};
use xps_core::pipeline::{cross_matrix_recoverable, Pipeline, PipelineResult};
use xps_core::sim::CoreConfig;
use xps_core::workload::{spec, WorkloadProfile, REPLAY_CACHE_MAX_OPS};
use xps_core::PipelineError;

fn profiles() -> Vec<WorkloadProfile> {
    ["gzip", "mcf", "crafty"]
        .iter()
        .map(|n| spec::profile(n).expect("known benchmark"))
        .collect()
}

/// A reduced-budget pipeline so each test run stays in the seconds
/// range; the crash-safety machinery is budget-independent.
fn mini(jobs: usize) -> Pipeline {
    let mut p = Pipeline::quick();
    p.explore.anneal.iterations = 40;
    p.explore.anneal.eval_ops_early = 10_000;
    p.explore.anneal.eval_ops_late = 20_000;
    p.explore.reanneal_iterations = 8;
    p.explore.jobs = jobs;
    p.matrix_ops = 20_000;
    p
}

/// [`mini`] with matrix cells too long for the replay cache, so every
/// matrix and rematrix batch streams its trace in lock-step.
fn mini_streamed(jobs: usize) -> Pipeline {
    let mut p = mini(jobs);
    p.matrix_ops = 70_000;
    assert!(p.matrix_ops > REPLAY_CACHE_MAX_OPS);
    p
}

/// The deliverable bytes of a run: the serialized Table 4 (customized
/// cores) and Table 5 (cross-configuration matrix). Stats are
/// excluded — counters legitimately differ between runs.
fn deliverable(r: &PipelineResult) -> String {
    serde_json::to_string(&(&r.cores, &r.matrix)).expect("results serialize")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("xps-crash-safety");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}

#[test]
fn transient_faults_retry_to_byte_identical_output() {
    let p = profiles();
    let clean = mini(1)
        .run(&p, &EvalCache::new(), &RunContext::new())
        .expect("clean run");

    // ~20% of first attempts panic, selected deterministically by task
    // key; every task succeeds on retry.
    let ctx = RunContext::new()
        .with_faults(FaultPlan::rate(20, 7, 1, FaultKind::Panic))
        .with_retries(2);
    let faulted = mini(2)
        .run(&p, &EvalCache::new(), &ctx)
        .expect("faulted run");

    let rec = &faulted.stats.recovery;
    assert!(rec.faults_injected > 0, "the plan must actually fire");
    assert!(rec.retried > 0, "faulted tasks must be retried");
    assert!(
        rec.failed_tasks.is_empty(),
        "single-attempt faults must never exhaust a 2-retry budget"
    );
    assert_eq!(
        deliverable(&faulted),
        deliverable(&clean),
        "recovered output must be byte-identical to the fault-free run"
    );
}

#[test]
fn interrupted_run_resumes_from_journal_bit_for_bit() {
    let p = profiles();
    let path = tmp("resume");

    // Full journaled run — the reference output and the journal an
    // interrupted campaign would have left behind (a kill between
    // tasks leaves a clean prefix of it; we simulate one below).
    let mut ctx = RunContext::new().with_journal(Journal::create(&path).expect("create"));
    let full = mini(2).run(&p, &EvalCache::new(), &ctx).expect("full run");
    let total = ctx.stats().executed;
    assert_eq!(ctx.stats().salvaged, 0);
    drop(ctx.take_journal());

    // Interrupt: keep only the first half of the journal's records, as
    // if the process died mid-campaign.
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() as u64, total, "one record per executed task");
    let keep = lines.len() / 2;
    let mut truncated: String = lines[..keep].join("\n");
    truncated.push('\n');
    std::fs::write(&path, truncated).expect("truncate journal");

    // Resume: journaled tasks are salvaged, the rest re-run, and the
    // deliverable bytes match the uninterrupted run exactly.
    let ctx = RunContext::new().with_journal(Journal::open(&path).expect("open"));
    let resumed = mini(2)
        .run(&p, &EvalCache::new(), &ctx)
        .expect("resumed run");
    let rec = ctx.stats();
    assert_eq!(rec.salvaged, keep as u64, "salvage exactly the journal");
    assert_eq!(
        rec.executed,
        total - keep as u64,
        "re-run exactly the missing tasks"
    );
    assert_eq!(
        deliverable(&resumed),
        deliverable(&full),
        "resumed output must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn permanent_matrix_failures_degrade_and_are_reported() {
    let p = profiles();
    // Every cross-matrix cell fails every attempt; the pipeline must
    // still complete (cells degrade to the failed-cell sentinel) and
    // name what it lost.
    let ctx = RunContext::new()
        .with_faults(FaultPlan::targets(["matrix#"], u32::MAX, FaultKind::Panic))
        .with_retries(1);
    let r = mini(2)
        .run(&p, &EvalCache::new(), &ctx)
        .expect("degraded run still completes");
    let rec = &r.stats.recovery;
    assert!(
        rec.failed_tasks.iter().all(|t| t.starts_with("matrix#")),
        "only matrix cells were targeted: {:?}",
        rec.failed_tasks
    );
    assert_eq!(
        rec.failed_tasks.len(),
        p.len() * p.len(),
        "every cell of the first matrix fan failed"
    );
    for w in 0..r.matrix.len() {
        for c in 0..r.matrix.len() {
            assert_eq!(
                r.matrix.ipt(w, c),
                xps_core::FAILED_CELL_IPT,
                "failed cells must carry the sentinel"
            );
        }
    }
}

#[test]
fn batched_matrix_under_transient_faults_is_byte_identical() {
    let p = profiles();
    let clean = mini_streamed(1)
        .run(&p, &EvalCache::new(), &RunContext::new())
        .expect("clean run");
    let ctx = RunContext::new()
        .with_faults(FaultPlan::rate(20, 7, 1, FaultKind::Panic))
        .with_retries(2);
    let faulted = mini_streamed(2)
        .run(&p, &EvalCache::new(), &ctx)
        .expect("faulted run");
    let rec = &faulted.stats.recovery;
    assert!(rec.faults_injected > 0, "the plan must actually fire");
    assert!(rec.failed_tasks.is_empty());
    assert_eq!(
        deliverable(&faulted),
        deliverable(&clean),
        "batched cells that fault and retry alone must not move a byte"
    );
}

#[test]
fn batched_matrix_killed_mid_fill_resumes_without_resimulating() {
    let p = profiles();
    let path = tmp("batched-resume");

    // The reference: an uninterrupted journaled run.
    let mut ctx = RunContext::new().with_journal(Journal::create(&path).expect("create"));
    let full = mini_streamed(2)
        .run(&p, &EvalCache::new(), &ctx)
        .expect("full run");
    let total = ctx.stats().executed;
    drop(ctx.take_journal());

    // Kill mid-fill: cancel once two matrix cells have completed.
    // Batches already running finish and journal their cells; nothing
    // after them starts.
    let (cancel, sink) = cancel_after("matrix#", 2);
    let mut ctx = RunContext::new()
        .with_journal(Journal::create(&path).expect("create"))
        .with_cancel(cancel)
        .with_observer(sink);
    let err = mini_streamed(2)
        .run(&p, &EvalCache::new(), &ctx)
        .expect_err("killed mid-fill");
    assert!(
        matches!(err, PipelineError::Explore(ExploreError::Cancelled)),
        "{err}"
    );
    let journaled = ctx.stats().executed;
    drop(ctx.take_journal());
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let matrix_cells = text.lines().filter(|l| l.contains("matrix#")).count();
    assert_eq!(
        text.lines().count() as u64,
        journaled,
        "one record per cell"
    );
    assert!(
        (2..p.len() * p.len()).contains(&matrix_cells),
        "the kill landed mid-fill ({matrix_cells} cells journaled)"
    );

    // Resume: every journaled task is salvaged, only the rest execute.
    let ctx = RunContext::new().with_journal(Journal::open(&path).expect("open"));
    let resumed = mini_streamed(2)
        .run(&p, &EvalCache::new(), &ctx)
        .expect("resumed run");
    let rec = ctx.stats();
    assert_eq!(rec.salvaged, journaled, "salvage exactly the journal");
    assert_eq!(
        rec.executed,
        total - journaled,
        "no journaled cell is simulated again"
    );
    assert_eq!(deliverable(&resumed), deliverable(&full));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn batched_matrix_permanent_failure_degrades_only_its_cell() {
    let p = profiles();
    let configs: Vec<CoreConfig> = [(2, 64), (4, 128), (6, 256)]
        .iter()
        .zip(&p)
        .map(|(&(width, rob), profile)| CoreConfig {
            name: profile.name.clone(),
            width,
            rob_size: rob,
            ..CoreConfig::initial()
        })
        .collect();
    let matrix = |ctx: &RunContext| {
        let mut configs = configs.clone();
        let (m, _) =
            cross_matrix_recoverable(&p, &mut configs, 70_000, 0, 1, Some(&EvalCache::new()), ctx)
                .expect("matrix completes");
        m
    };
    let clean = matrix(&RunContext::new());
    // Cell 3 is (mcf, gzip's core): its row-mates 4 and 5 still run as
    // one lock-step batch.
    let ctx = RunContext::new()
        .with_faults(FaultPlan::targets(
            ["matrix#0/3"],
            u32::MAX,
            FaultKind::Panic,
        ))
        .with_retries(1);
    let degraded = matrix(&ctx);
    assert_eq!(ctx.stats().failed_tasks, vec!["matrix#0/3".to_string()]);
    for w in 0..p.len() {
        for c in 0..p.len() {
            let want = if (w, c) == (1, 0) {
                xps_core::FAILED_CELL_IPT
            } else {
                clean.ipt(w, c)
            };
            assert_eq!(degraded.ipt(w, c), want, "cell ({w}, {c})");
        }
    }
}

/// A cancel flag and an observer that sets it once `after` tasks whose
/// keys start with `prefix` have completed.
fn cancel_after(prefix: &'static str, after: usize) -> (Arc<AtomicBool>, ProgressSink) {
    let cancel = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicUsize::new(0));
    let sink = {
        let cancel = cancel.clone();
        ProgressSink::new(move |e| {
            if let ProgressEvent::TaskDone { key, .. } = e {
                if key.starts_with(prefix) && done.fetch_add(1, Ordering::SeqCst) + 1 >= after {
                    cancel.store(true, Ordering::SeqCst);
                }
            }
        })
    };
    (cancel, sink)
}

#[test]
fn batched_anneal_killed_mid_fan_resumes_without_rerunning() {
    let p = profiles();
    let path = tmp("batched-anneal-resume");
    let mut ctx = RunContext::new().with_journal(Journal::create(&path).expect("create"));
    let full = mini(2).run(&p, &EvalCache::new(), &ctx).expect("full run");
    let total = ctx.stats().executed;
    drop(ctx.take_journal());

    // Kill mid-fan: cancel once two walks have completed. Workload
    // groups already running finish and journal every walk; the rest
    // never start.
    let (cancel, sink) = cancel_after("anneal#", 2);
    let mut ctx = RunContext::new()
        .with_journal(Journal::create(&path).expect("create"))
        .with_cancel(cancel)
        .with_observer(sink);
    let err = mini(2)
        .run(&p, &EvalCache::new(), &ctx)
        .expect_err("killed mid-fan");
    assert!(
        matches!(err, PipelineError::Explore(ExploreError::Cancelled)),
        "{err}"
    );
    let journaled = ctx.stats().executed;
    drop(ctx.take_journal());
    let text = std::fs::read_to_string(&path).expect("journal readable");
    assert_eq!(
        text.lines().count() as u64,
        journaled,
        "one record per walk"
    );
    assert!(
        text.lines().all(|l| l.contains("\"anneal#")),
        "only walks ran before the kill"
    );
    assert!(
        (2..3 * p.len() as u64).contains(&journaled),
        "the kill landed mid-fan ({journaled} walks journaled)"
    );

    let ctx = RunContext::new().with_journal(Journal::open(&path).expect("open"));
    let resumed = mini(2)
        .run(&p, &EvalCache::new(), &ctx)
        .expect("resumed run");
    let rec = ctx.stats();
    assert_eq!(rec.salvaged, journaled, "salvage exactly the journal");
    assert_eq!(rec.executed, total - journaled, "no journaled walk re-runs");
    assert_eq!(deliverable(&resumed), deliverable(&full));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn batched_anneal_under_transient_faults_matches_a_serial_clean_run() {
    let p = profiles();
    let plan = FaultPlan::rate(20, 7, 1, FaultKind::Panic);
    let hit: Vec<String> = (0..3 * p.len())
        .map(|t| format!("anneal#0/{t}"))
        .filter(|key| plan.injects(key, 0).is_some())
        .collect();
    assert!(!hit.is_empty(), "the plan must fire inside the anneal fan");
    let clean = mini(1)
        .run(&p, &EvalCache::new(), &RunContext::new())
        .expect("clean run");
    let ctx = RunContext::new().with_faults(plan).with_retries(2);
    let faulted = mini(2)
        .run(&p, &EvalCache::new(), &ctx)
        .expect("faulted run");
    assert!(faulted.stats.recovery.failed_tasks.is_empty());
    assert_eq!(
        deliverable(&faulted),
        deliverable(&clean),
        "walks that fault and retry alone must not move a byte"
    );
    // The same walks alone: each one's injected first attempt fires
    // and is retried (a walk batched with its group-mates would skip
    // both).
    let ctx = RunContext::new()
        .with_faults(FaultPlan::targets(hit.clone(), 1, FaultKind::Panic))
        .with_retries(2);
    let targeted = mini(2)
        .run(&p, &EvalCache::new(), &ctx)
        .expect("targeted run");
    let rec = &targeted.stats.recovery;
    assert_eq!(rec.faults_injected, hit.len() as u64);
    assert_eq!(rec.retried, hit.len() as u64);
    assert_eq!(deliverable(&targeted), deliverable(&clean));
}

#[test]
fn batched_anneal_permanent_failure_degrades_only_its_start() {
    let p = profiles();
    let tech = Technology::default();
    let starts = [
        DesignPoint::initial(),
        DesignPoint::fast_corner(),
        DesignPoint::big_corner(),
    ];
    let mut opts = AnnealOptions::quick();
    opts.iterations = 12;
    opts.eval_ops_early = 4_000;
    opts.eval_ops_late = 8_000;
    let opts = &opts;
    let walks: Vec<WalkCell<'_>> = p
        .iter()
        .flat_map(|profile| {
            starts.iter().map(move |start| WalkCell {
                profile,
                walk: Walk {
                    start,
                    opts,
                    progress: None,
                },
            })
        })
        .collect();
    let fan = |ctx: &RunContext| {
        ctx.run_walk_fan(2, "anneal", &walks, &tech, &EvalCache::new())
            .expect("fan completes")
            .items
    };
    let clean = fan(&RunContext::new());
    // Walk 4 is mcf's fast corner: its group-mates 3 and 5 still run as
    // one lock-step batch.
    let ctx = RunContext::new()
        .with_faults(FaultPlan::targets(
            ["anneal#0/4"],
            u32::MAX,
            FaultKind::Panic,
        ))
        .with_retries(1);
    let degraded = fan(&ctx);
    assert_eq!(ctx.stats().failed_tasks, vec!["anneal#0/4".to_string()]);
    assert_eq!(ctx.stats().executed, walks.len() as u64 - 1);
    for (t, (c, d)) in clean.iter().zip(&degraded).enumerate() {
        let c = c.as_ref().expect("clean walks succeed");
        match d {
            Err(e) => assert_eq!(t, 4, "only walk 4 fails, not {}", e.task),
            Ok(d) => assert_eq!(
                serde_json::to_string(d).expect("serializes"),
                serde_json::to_string(c).expect("serializes"),
                "walk {t} must be untouched"
            ),
        }
    }
    assert!(degraded[4].is_err());
}

/// A journal written by the sequential-walk build (commit a8c72da): the
/// `mini(1)` pipeline cancelled after its first four walks (gzip's
/// three starts and mcf's first). Resuming it salvages all four and
/// runs mcf's two remaining walks as one batch and crafty's three as
/// another.
#[test]
fn batched_anneal_resumes_a_journal_of_the_sequential_build() {
    let p = profiles();
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/pre_batching_anneal_journal.jsonl");
    let path = tmp("pre-batching-resume");
    std::fs::copy(&fixture, &path).expect("copy the fixture");
    let full = mini(1)
        .run(&p, &EvalCache::new(), &RunContext::new())
        .expect("clean run");
    let journal = Journal::open(&path).expect("open");
    assert_eq!(journal.loaded(), 4);
    let ctx = RunContext::new().with_journal(journal);
    let resumed = mini(2)
        .run(&p, &EvalCache::new(), &ctx)
        .expect("resumed run");
    let rec = ctx.stats();
    assert_eq!(rec.salvaged, 4, "every record of the older build is reused");
    assert!(rec.executed > 0);
    assert_eq!(deliverable(&resumed), deliverable(&full));
    let _ = std::fs::remove_file(&path);
}
