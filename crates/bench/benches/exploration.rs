//! Exploration costs: one evaluation (the annealer's unit of work), a
//! full quick anneal, the parallel speedup of the exploration engine
//! across worker counts, and the hit-path cost of the evaluation cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xps_core::cacti::Technology;
use xps_core::explore::{
    anneal, AnnealOptions, Campaign, DesignPoint, EvalCache, ExploreOptions, RunContext,
};
use xps_core::sim::Simulator;
use xps_core::workload::{spec, TraceGenerator};

fn evaluation(c: &mut Criterion) {
    let tech = Technology::default();
    let cfg = DesignPoint::initial()
        .realize(&tech, "bench")
        .expect("Table 3 realizes");
    let p = spec::profile("gcc").expect("known benchmark");
    c.bench_function("explore/one-evaluation-30k", |b| {
        b.iter(|| Simulator::new(&cfg).run(TraceGenerator::new(p.clone()), 30_000))
    });
}

fn quick_anneal(c: &mut Criterion) {
    let tech = Technology::default();
    let p = spec::profile("gzip").expect("known benchmark");
    let mut opts = AnnealOptions::quick();
    opts.iterations = 20;
    opts.eval_ops_early = 8_000;
    opts.eval_ops_late = 15_000;
    let mut group = c.benchmark_group("explore");
    group.sample_size(10);
    group.bench_function("mini-anneal-20-iters", |b| {
        b.iter(|| {
            let cache = EvalCache::new();
            anneal(&p, &DesignPoint::initial(), &opts, &tech, &cache, None).expect("anneals")
        })
    });
    group.finish();
}

/// Parallel speedup of the exploration engine: the same tiny campaign
/// (4 benchmarks × 3 multi-start anneals, no cross rounds) at 1, 2,
/// and 4 workers. The explored cores are bit-identical in every row —
/// only the wall clock moves.
fn parallel_explore(c: &mut Criterion) {
    let profiles: Vec<_> = ["gzip", "mcf", "twolf", "gcc"]
        .iter()
        .map(|n| spec::profile(n).expect("known benchmark"))
        .collect();
    let mut group = c.benchmark_group("explore/parallel-anneal");
    group.sample_size(10);
    for jobs in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, &jobs| {
            let mut opts = ExploreOptions::quick();
            opts.anneal.iterations = 8;
            opts.anneal.eval_ops_early = 4_000;
            opts.anneal.eval_ops_late = 8_000;
            opts.cross_rounds = 0;
            opts.jobs = jobs;
            let explorer = Campaign::try_new(opts).expect("valid options");
            b.iter(|| {
                let ctx = RunContext::from_env().expect("valid XPS_FAULTS");
                explorer.explore_recoverable(&profiles, &EvalCache::new(), &ctx)
            })
        });
    }
    group.finish();
}

/// Cost of a cache hit versus the simulation it replaces (compare with
/// `explore/one-evaluation-30k`): a hashmap lookup plus a stats clone.
fn evalcache_hit(c: &mut Criterion) {
    let tech = Technology::default();
    let cfg = DesignPoint::initial()
        .realize(&tech, "bench")
        .expect("Table 3 realizes");
    let p = spec::profile("gcc").expect("known benchmark");
    let cache = EvalCache::new();
    cache.stats(&p, &cfg, 30_000); // warm: every iteration below hits
    c.bench_function("explore/evalcache-hit-30k", |b| {
        b.iter(|| cache.stats(&p, &cfg, 30_000))
    });
}

criterion_group!(
    benches,
    evaluation,
    quick_anneal,
    parallel_explore,
    evalcache_hit
);
criterion_main!(benches);
