//! Run the full exploration campaign over all eleven benchmarks with
//! the default budgets and print each customized configuration — the
//! measured analogue of the paper's Table 4, without the matrix step.
//!
//! ```text
//! cargo run --release -p xps-explore --example explore_all
//! ```
//! (Takes a few minutes; for the persisted full pipeline use
//! `repro explore` from the `xps-bench` crate.)

use std::time::Instant;
use xps_explore::{Campaign, EvalCache, ExploreError, ExploreOptions, RunContext};
use xps_workload::spec;

fn main() -> Result<(), ExploreError> {
    let t0 = Instant::now();
    let campaign = Campaign::try_new(ExploreOptions::default())?;
    let ctx = RunContext::from_env()?;
    let r = campaign.explore_recoverable(&spec::all_profiles(), &EvalCache::new(), &ctx)?;
    println!(
        "elapsed {:.1}s, cross-seeding adoptions {}",
        t0.elapsed().as_secs_f64(),
        r.adoptions
    );
    for c in &r.cores {
        let cfg = &c.config;
        println!(
            "{:8} ipt {:.2} clk {:.2} w{} fe{} rob{:4} iq{:3} lsq{:3} wk{} sd{} L1 {:4}KB({}w,{}B,{}cy) L2 {:6}KB({}w,{}B,{}cy)",
            c.profile.name,
            c.ipt,
            cfg.clock_ns,
            cfg.width,
            cfg.frontend_depth,
            cfg.rob_size,
            cfg.iq_size,
            cfg.lsq_size,
            cfg.wakeup_extra,
            cfg.sched_depth,
            cfg.l1.geometry.capacity_bytes() / 1024,
            cfg.l1.geometry.assoc,
            cfg.l1.geometry.block_bytes,
            cfg.l1.latency,
            cfg.l2.geometry.capacity_bytes() / 1024,
            cfg.l2.geometry.assoc,
            cfg.l2.geometry.block_bytes,
            cfg.l2.latency,
        );
    }
    Ok(())
}
