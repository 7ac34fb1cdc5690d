//! End-to-end measured reproduction on a reduced scale: run the actual
//! pipeline (workload models → annealing → cross matrix → communal
//! customization) on a subset of benchmarks and check the paper's
//! qualitative claims hold on this repository's own substrate.
//!
//! These use the quick budgets; the full-scale campaign is exercised by
//! `repro explore` and recorded in EXPERIMENTS.md.

use xpscalar::communal::{best_combination, ideal_performance, Merit};
use xpscalar::explore::{EvalCache, RunContext};
use xpscalar::pipeline::{Pipeline, PipelineResult};
use xpscalar::workload::{spec, WorkloadProfile};

fn profiles(names: &[&str]) -> Vec<WorkloadProfile> {
    names
        .iter()
        .map(|n| spec::profile(n).expect("known benchmark"))
        .collect()
}

/// The quick pipeline under the `XPS_FAULTS` plan (when set), so the
/// fault-injection CI job covers these runs.
fn quick_run(p: &[WorkloadProfile]) -> PipelineResult {
    let ctx = RunContext::from_env().expect("valid XPS_FAULTS");
    Pipeline::quick()
        .run(p, &EvalCache::new(), &ctx)
        .expect("quick pipeline")
}

/// The headline end-to-end claim: a well-chosen heterogeneous pair
/// beats the best homogeneous configuration on harmonic-mean IPT, and
/// neither exceeds the ideal.
#[test]
fn heterogeneous_pair_beats_homogeneous() {
    let p = profiles(&["crafty", "mcf", "twolf", "gzip"]);
    let r = quick_run(&p);
    let m = &r.matrix;

    let single = best_combination(m, 1, Merit::HarmonicMean);
    let pair = best_combination(m, 2, Merit::HarmonicMean);
    let (_, ideal_har) = ideal_performance(m);

    assert!(
        pair.har_ipt >= single.har_ipt,
        "a pair can always include the best single: {} vs {}",
        pair.har_ipt,
        single.har_ipt
    );
    assert!(pair.har_ipt <= ideal_har + 1e-9);
    // With mcf (memory monster) and crafty (small and branchy) in the
    // mix, heterogeneity must buy a real margin.
    assert!(
        pair.har_ipt > single.har_ipt * 1.02,
        "expected >2% heterogeneity gain, got {} vs {}",
        pair.har_ipt,
        single.har_ipt
    );
}

/// The measured matrix honors the paper's construction invariants.
#[test]
fn measured_matrix_invariants() {
    let p = profiles(&["gzip", "mcf", "vpr"]);
    let r = quick_run(&p);
    let m = &r.matrix;
    assert_eq!(m.len(), 3);
    assert!(m.is_diagonal_dominant(), "replacement rule enforces this");
    for w in 0..m.len() {
        for c in 0..m.len() {
            assert!(m.ipt(w, c) > 0.0);
            assert!(m.ipt(w, c) < 40.0, "IPT blowup: {}", m.ipt(w, c));
        }
    }
    // Every customized config validates and is named for its workload.
    for (core, name) in r.cores.iter().zip(["gzip", "mcf", "vpr"]) {
        core.config.validate().expect("valid customized config");
        assert_eq!(core.config.name, name);
    }
}

/// Determinism across complete pipeline runs (same budgets, same
/// seeds).
#[test]
fn pipeline_is_deterministic() {
    let p = profiles(&["gap", "perl"]);
    let a = quick_run(&p);
    let b = quick_run(&p);
    for w in 0..2 {
        for c in 0..2 {
            assert_eq!(a.matrix.ipt(w, c), b.matrix.ipt(w, c));
        }
    }
    assert_eq!(a.cores[0].config, b.cores[0].config);
}
