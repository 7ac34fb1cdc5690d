//! Configurational characterization from scratch: run the
//! simulated-annealing explorer on two raw-similar benchmarks and watch
//! their customized configurations diverge.
//!
//! ```text
//! cargo run --release --example design_exploration
//! ```
//!
//! The bzip/gzip pair is the paper's §5.3 case study: close in raw
//! characteristics, far apart configurationally. This example measures
//! both notions of distance on this repository's own substrate (takes
//! a minute or two: each annealing step is a timing simulation).

use xpscalar::explore::{Campaign, EvalCache, ExploreError, ExploreOptions, RunContext};
use xpscalar::workload::{spec, Characterizer, TraceGenerator, KIVIAT_AXES};

fn main() -> Result<(), ExploreError> {
    let names = ["bzip", "gzip"];
    let profiles: Vec<_> = names
        .iter()
        .map(|n| spec::profile(n).expect("known benchmark"))
        .collect();

    // Raw (microarchitecture-independent) characterization.
    println!("raw characteristics (0-10 Kiviat scale):");
    let mut vectors = Vec::new();
    for p in &profiles {
        let mut c = Characterizer::new();
        for op in TraceGenerator::new(p.clone()).take(120_000) {
            c.observe(&op);
        }
        let v = c.finish();
        println!("  {}:", p.name);
        for (axis, val) in KIVIAT_AXES.iter().zip(v.kiviat()) {
            println!("    {axis:<26} {val:.1}");
        }
        vectors.push(v);
    }
    println!(
        "\n  Euclidean distance bzip-gzip in raw space: {:.2} (small => classic subsetting calls them 'similar')",
        vectors[0].distance(&vectors[1])
    );

    // Configurational characterization: anneal a custom core for each.
    // The multi-start anneals and cross evaluations fan out over all
    // cores (jobs = 0); results are bit-identical to a serial run.
    println!("\nexploring customized configurations (simulated annealing)...");
    let mut opts = ExploreOptions::quick();
    opts.jobs = 0;
    let campaign = Campaign::try_new(opts)?;
    let ctx = RunContext::from_env()?;
    let result = campaign.explore_recoverable(&profiles, &EvalCache::new(), &ctx)?;
    for core in &result.cores {
        let c = &core.config;
        println!(
            "  {:5}: clock {:.2} ns, width {}, ROB {}, IQ {}, L1 {} KB ({} cy), L2 {} KB ({} cy)  ->  {:.2} IPT",
            c.name,
            c.clock_ns,
            c.width,
            c.rob_size,
            c.iq_size,
            c.l1.geometry.capacity_bytes() / 1024,
            c.l1.latency,
            c.l2.geometry.capacity_bytes() / 1024,
            c.l2.latency,
            core.ipt
        );
    }
    let s = &result.stats;
    println!(
        "\n  explored on {} worker(s); evaluation cache: {} hits / {} misses ({:.0}% hit rate)",
        s.workers,
        s.cache.hits,
        s.cache.misses,
        s.cache.hit_rate() * 100.0
    );
    println!(
        "\nraw similarity does not imply configurational similarity — the paper's central claim."
    );
    Ok(())
}
