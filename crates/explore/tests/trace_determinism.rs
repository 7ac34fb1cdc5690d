//! The trace journal is part of the deterministic output surface:
//! running the identical campaign on one worker and on four must
//! produce byte-identical NDJSON, because tracks are keyed by task —
//! not by thread or completion order — and logical clocks are
//! per-task. The journal is also pinned byte for byte in
//! `tests/golden/trace_quick.jsonl`, so a change that reorders one
//! task's events fails even when every worker count agrees. After an
//! intentional change to the trace, refresh it with
//!
//! ```text
//! XPS_BLESS=1 cargo test -p xps-explore --test trace_determinism
//! ```
//!
//! and review the diff like any other code change.

use std::path::PathBuf;
use xps_explore::{write_atomic, Campaign, EvalCache, ExploreOptions, RunContext};
use xps_trace::{with_recorder, TraceSink};
use xps_workload::spec;

/// Run one quick two-benchmark campaign under `jobs` workers and
/// return the serialized trace.
fn traced_run(jobs: usize) -> String {
    let profiles: Vec<_> = ["gzip", "mcf"]
        .iter()
        .map(|n| spec::profile(n).expect("known benchmark"))
        .collect();
    let mut opts = ExploreOptions::quick();
    opts.anneal.iterations = 6;
    opts.anneal.eval_ops_early = 2_000;
    opts.anneal.eval_ops_late = 4_000;
    opts.reanneal_iterations = 2;
    opts.jobs = jobs;
    let trace = TraceSink::new();
    let ctx = RunContext::new().with_trace(trace.clone());
    let cache = EvalCache::new();
    let explorer = Campaign::try_new(opts).expect("valid options");
    let (root, result) = with_recorder(trace.recorder(), || {
        explorer.explore_recoverable(&profiles, &cache, &ctx)
    });
    trace.attach("main", root);
    result.expect("campaign succeeds");
    trace.to_ndjson()
}

#[test]
fn trace_journal_is_byte_identical_across_worker_counts() {
    let serial = traced_run(1);
    let parallel = traced_run(4);
    assert!(!serial.is_empty(), "the trace must record something");
    if serial != parallel {
        let diff = serial
            .lines()
            .zip(parallel.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match diff {
            Some((i, (a, b))) => panic!(
                "trace diverges at line {}:\n  jobs=1: {a}\n  jobs=4: {b}",
                i + 1
            ),
            None => panic!(
                "trace lengths differ: {} vs {} bytes",
                serial.len(),
                parallel.len()
            ),
        }
    }
}

#[test]
fn trace_journal_is_stable_across_repeated_runs() {
    // Same worker count twice: catches any wall-clock or iteration-
    // order leak into the serialized events that the cross-jobs test
    // could miss if it leaked identically.
    assert_eq!(traced_run(2), traced_run(2));
}

#[test]
fn trace_journal_matches_golden() {
    let actual = traced_run(2);
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/trace_quick.jsonl");
    if std::env::var("XPS_BLESS").as_deref() == Ok("1") {
        write_atomic(&path, &actual).expect("bless golden trace");
        eprintln!("[blessed {}]", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {} ({e}); bless it with XPS_BLESS=1",
            path.display()
        )
    });
    if let Some((i, (e, a))) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (e, a))| e != a)
    {
        panic!(
            "trace diverges from the golden at line {}:\n  golden: {e}\n  actual: {a}\n\
             (bless intentionally with XPS_BLESS=1)",
            i + 1
        );
    }
    assert_eq!(
        expected.len(),
        actual.len(),
        "trace length differs from the golden (bless intentionally with XPS_BLESS=1)"
    );
}
