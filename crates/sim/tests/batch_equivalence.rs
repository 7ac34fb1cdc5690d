//! `evaluate_batch` steps K simulators in lock-step over one shared
//! trace; it must return, bit for bit, what K separate `evaluate` calls
//! return — and both must match the independent
//! [`ReferenceSimulator`] run over the materialized trace. Covered:
//! SPEC and seeded scenario profiles, batch sizes 0, 1, 2 and 11 with
//! repeated configurations, op budgets on and around multiples of the
//! engine's 1024-op lock-step chunk, and budgets on either side of the
//! replay-cache bound (65,535 / 65,536 / 65,537), where the trace
//! switches from replayed to streamed.

use proptest::prelude::*;
use xps_cacti::CacheGeometry;
use xps_scenario::{generate_profile, Family};
use xps_sim::{evaluate, evaluate_batch, CacheConfig, CoreConfig, ReferenceSimulator, SimStats};
use xps_workload::{spec, TraceGenerator, WorkloadProfile, REPLAY_CACHE_MAX_OPS};

/// A SPEC profile (`which < 11`) or one of a seeded scenario panel.
fn profile(which: usize) -> WorkloadProfile {
    match spec::BENCHMARKS.get(which) {
        Some(name) => spec::profile(name).expect("known benchmark"),
        None => {
            let family = Family::ALL[which % Family::ALL.len()];
            generate_profile(17, family, which as u64)
        }
    }
}

fn reference(profile: &WorkloadProfile, cfg: &CoreConfig, ops: u64) -> SimStats {
    ReferenceSimulator::new(cfg).run(TraceGenerator::new(profile.clone()), ops)
}

/// Assert the three-way agreement for one batch.
fn check(profile: &WorkloadProfile, configs: &[CoreConfig], ops: u64) {
    let refs: Vec<&CoreConfig> = configs.iter().collect();
    let batch = evaluate_batch(profile, &refs, ops);
    assert_eq!(batch.len(), configs.len(), "one result per configuration");
    for (cfg, got) in configs.iter().zip(&batch) {
        assert_eq!(
            *got,
            evaluate(profile, cfg, ops),
            "batch diverges from evaluate on {} / {} at {ops} ops",
            profile.name,
            cfg.name
        );
        assert_eq!(
            *got,
            reference(profile, cfg, ops),
            "batch diverges from the reference on {} / {} at {ops} ops",
            profile.name,
            cfg.name
        );
    }
}

fn arb_config() -> impl Strategy<Value = CoreConfig> {
    (
        0.15f64..0.6,
        1u32..9,
        prop::sample::select(vec![32u32, 64, 128, 256, 512]),
        prop::sample::select(vec![8u32, 16, 32, 64]),
        prop::sample::select(vec![16u32, 32, 64, 128]),
        0u32..4,
        1u32..5,
        (
            1u32..6,
            prop::sample::select(vec![64u32, 128, 256]),
            prop::sample::select(vec![1u32, 2, 4]),
        ),
        (
            4u32..25,
            prop::sample::select(vec![1024u32, 2048]),
            prop::sample::select(vec![4u32, 8]),
        ),
    )
        .prop_map(|(clock, width, rob, iq, lsq, wakeup, sched, l1, l2)| {
            let (l1_lat, l1_sets, l1_assoc) = l1;
            let (l2_lat, l2_sets, l2_assoc) = l2;
            CoreConfig {
                name: "prop".to_string(),
                clock_ns: clock,
                width,
                frontend_depth: CoreConfig::derived_frontend_depth(clock, 0.03),
                rob_size: rob,
                iq_size: iq.min(rob),
                lsq_size: lsq,
                wakeup_extra: wakeup,
                sched_depth: sched,
                lsq_depth: 2,
                l1: CacheConfig {
                    geometry: CacheGeometry::new(l1_sets, l1_assoc, 64),
                    latency: l1_lat,
                },
                l2: CacheConfig {
                    geometry: CacheGeometry::new(l2_sets, l2_assoc, 128),
                    latency: l2_lat,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random batches: K drawn from {0, 1, 2, 11}, members drawn from a
    /// pool of four configurations so repeats are common, budgets a
    /// multiple of the 1024-op chunk or one op either side of it.
    #[test]
    fn batches_match_separate_evaluations_and_the_reference(
        pool in prop::collection::vec(arb_config(), 4),
        k in prop::sample::select(vec![0usize, 1, 2, 11]),
        picks in prop::collection::vec(0usize..4, 11),
        chunks in 0u64..4,
        delta in prop::sample::select(vec![-1i64, 0, 1]),
        which in 0usize..17,
    ) {
        let ops = (chunks * 1024).saturating_add_signed(delta).max(1);
        let configs: Vec<CoreConfig> = picks[..k].iter().map(|&i| pool[i].clone()).collect();
        check(&profile(which), &configs, ops);
    }
}

/// Budgets on either side of the replay-cache bound: below it the
/// batch replays the cached trace, above it the batch streams from the
/// generator, and the two must agree with separate evaluations and
/// the reference — for a SPEC and a scenario profile, with a repeated
/// configuration in the batch.
#[test]
fn replay_cache_boundary_matches() {
    let mut narrow = CoreConfig::initial();
    narrow.name = "narrow".to_string();
    narrow.width = 2;
    narrow.rob_size = 64;
    narrow.iq_size = 16;
    let configs = [CoreConfig::initial(), narrow, CoreConfig::initial()];
    for which in [2, 13] {
        for ops in [
            REPLAY_CACHE_MAX_OPS - 1,
            REPLAY_CACHE_MAX_OPS,
            REPLAY_CACHE_MAX_OPS + 1,
        ] {
            check(&profile(which), &configs, ops);
        }
    }
}

/// An empty batch returns nothing and never touches a trace.
#[test]
fn empty_batch_is_empty() {
    assert!(evaluate_batch(&profile(0), &[], 1_000_000_000).is_empty());
}
