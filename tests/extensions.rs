//! Integration tests for the extension surfaces (everything beyond the
//! paper's published results): the Figure 3 methodology comparison,
//! balanced partitioning, the energy model, the grid-search baseline,
//! and the job-arrival simulation — all driven end to end through the
//! public facade.

use xpscalar::cacti::Technology;
use xpscalar::communal::{
    balanced_partition, best_combination, compare_methodologies, simulate_jobs, JobPolicy, Merit,
    ScheduleOptions,
};
use xpscalar::explore::{
    anneal, grid_search, AnnealOptions, DesignPoint, EvalCache, GridSpec, Objective,
};
use xpscalar::paper;
use xpscalar::sim::{energy_delay_product, estimate_energy, CoreConfig, Simulator};
use xpscalar::workload::{spec, Characterizer, TraceGenerator};

/// The Figure 3 comparison on the paper's data: subsetting to four
/// representatives before exploration loses measurable performance.
#[test]
fn methodology_comparison_on_paper_data() {
    let m = paper::table5_matrix();
    let chars: Vec<Vec<f64>> = m
        .names()
        .iter()
        .map(|n| {
            let p = spec::profile(n).expect("known benchmark");
            let mut c = Characterizer::new();
            for op in TraceGenerator::new(p).take(60_000) {
                c.observe(&op);
            }
            c.finish().kiviat().to_vec()
        })
        .collect();
    let r = compare_methodologies(&m, &chars, 4, 3, Merit::HarmonicMean);
    assert_eq!(r.representatives.len(), 4);
    assert!(r.subsetting_loss >= 0.0);
    assert!(
        r.subsetting_loss > 0.005,
        "4-way subsetting should cost >0.5% at 3 cores on the paper's data: {}",
        r.subsetting_loss
    );
    // With no reduction there is nothing to lose.
    let full = compare_methodologies(&m, &chars, 11, 3, Merit::HarmonicMean);
    assert!(full.subsetting_loss.abs() < 1e-9);
}

/// Balanced partitioning on the paper's matrix: with the gcc+mcf pair,
/// a tolerance of 1.2 keeps the loads within 1.2x while mcf's own jobs
/// still land on mcf's core.
#[test]
fn balanced_partition_on_paper_data() {
    let m = paper::table5_matrix();
    let pair = best_combination(&m, 2, Merit::HarmonicMean).cores;
    let p = balanced_partition(&m, &pair, 2.0);
    assert_eq!(p.assignment.len(), 11);
    let mcf = m.index_of("mcf").expect("mcf present");
    let mcf_core = m.index_of("mcf").expect("mcf is one of the pair's cores");
    assert_eq!(p.assignment[mcf], mcf_core, "mcf keeps its own core");
    assert!(p.imbalance.is_finite());
    // Tightening the tolerance can only increase (or keep) slowdown.
    let tight = balanced_partition(&m, &pair, 1.2);
    assert!(tight.average_slowdown >= p.average_slowdown - 1e-12);
    assert!(tight.imbalance <= 1.21 * (11.0 / 2.0) / (11.0 / 2.0 / 1.2));
}

/// The energy model composes with exploration: an EDP-annealed core
/// never has a (much) worse EDP than the IPT-annealed one.
#[test]
fn edp_objective_improves_edp() {
    let tech = Technology::default();
    let p = spec::profile("twolf").expect("known benchmark");
    let mut perf = AnnealOptions::quick();
    perf.iterations = 60;
    let mut green = perf.clone();
    green.objective = Objective::InverseEnergyDelay;
    let cache = EvalCache::new();
    let r_perf = anneal(&p, &DesignPoint::initial(), &perf, &tech, &cache, None).expect("anneals");
    let r_green =
        anneal(&p, &DesignPoint::initial(), &green, &tech, &cache, None).expect("anneals");
    let edp_of = |cfg: &CoreConfig| {
        let stats = Simulator::new(cfg).run(TraceGenerator::new(p.clone()), 40_000);
        energy_delay_product(&tech, cfg, &stats)
    };
    let e_perf = edp_of(&r_perf.config);
    let e_green = edp_of(&r_green.config);
    assert!(
        e_green <= e_perf * 1.10,
        "EDP-optimized EDP {e_green} should not exceed perf-optimized {e_perf} by >10%"
    );
}

/// Energy accounting is stable across runs and monotone in run length.
#[test]
fn energy_accounting_sane() {
    let tech = Technology::default();
    let cfg = CoreConfig::initial();
    let p = spec::profile("vortex").expect("known benchmark");
    let short = Simulator::new(&cfg).run(TraceGenerator::new(p.clone()), 10_000);
    let long = Simulator::new(&cfg).run(TraceGenerator::new(p), 40_000);
    let e_short = estimate_energy(&tech, &cfg, &short).total_nj();
    let e_long = estimate_energy(&tech, &cfg, &long).total_nj();
    assert!(e_long > 2.0 * e_short, "4x the work needs >2x the energy");
}

/// The grid baseline and the annealer agree on which corner a workload
/// belongs to: for mcf, both pick a point whose L2 holds its chase
/// arena.
#[test]
fn grid_and_anneal_agree_on_mcf_corner() {
    let tech = Technology::default();
    let p = spec::profile("mcf").expect("known benchmark");
    let mut opts = AnnealOptions::quick();
    opts.eval_ops_late = 60_000;
    let g = grid_search(&p, &GridSpec::default(), &opts, &tech, 1, &EvalCache::new());
    assert!(
        g.config.l2.geometry.capacity_bytes() >= 1024 * 1024,
        "mcf's lattice optimum must carry a large L2, got {}",
        g.config.l2.geometry.capacity_bytes()
    );
}

/// The schedule simulation composes with the measured merits: heavier
/// load increases waiting monotonically.
#[test]
fn schedule_load_monotonic() {
    let m = paper::table5_matrix();
    let pair = best_combination(&m, 2, Merit::HarmonicMean).cores;
    let mut waits = Vec::new();
    for rate in [0.5, 2.0, 6.0] {
        let mut o = ScheduleOptions::new(pair.clone(), JobPolicy::BestAvailable);
        o.arrival_rate = rate;
        o.jobs = 8000;
        waits.push(simulate_jobs(&m, &o).avg_wait);
    }
    assert!(waits[0] <= waits[1] + 1e-9);
    assert!(waits[1] <= waits[2] + 1e-9);
}
