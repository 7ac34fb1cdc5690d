//! `anneal_batch` steps K annealing walks of one workload in lock-step,
//! scoring each iteration's candidates as one batch. Every walk must
//! come out bit for bit as the sequential walk below computes it alone
//! — a frozen copy of the one-walk loop that predates batching, kept as
//! the oracle the way `ReferenceSimulator` is for the engine. Covered:
//! SPEC and seeded scenario profiles; K = 1, 2, 3 and 5 walks with
//! repeated starts and repeated or distinct seeds; early fractions 0,
//! 0.7 and 1, both objectives and 3–9 iterations, shared by the batch
//! or mixed within it; fresh caches and a cache the oracle already
//! warmed. Each walk's deterministic trace events, and the
//! cache's hit and miss counts, must match the oracle's too.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xps_cacti::Technology;
use xps_explore::{
    anneal_batch, mutate, score, AnnealOptions, AnnealResult, DesignPoint, EvalCache, Objective,
    Walk,
};
use xps_scenario::{generate_profile, Family};
use xps_trace::{with_recorder, Event, SpanRecorder};
use xps_workload::{spec, WorkloadProfile};

/// A SPEC profile (`which < 11`) or one of a seeded scenario panel.
fn profile(which: usize) -> WorkloadProfile {
    match spec::BENCHMARKS.get(which) {
        Some(name) => spec::profile(name).expect("known benchmark"),
        None => {
            let family = Family::ALL[which % Family::ALL.len()];
            generate_profile(23, family, which as u64)
        }
    }
}

/// The sequential walk: one configuration scored at a time.
fn reference_walk(
    profile: &WorkloadProfile,
    start: &DesignPoint,
    opts: &AnnealOptions,
    tech: &Technology,
    cache: &EvalCache,
) -> AnnealResult {
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ profile.seed);
    let name = profile.name.clone();
    let walk = xps_trace::span("anneal.walk");
    let (mut accepted, mut accepted_worse, mut rejected) = (0u32, 0u32, 0u32);
    let mut rollbacks = 0u32;

    let mut cur = start.clone();
    let cur_cfg = loop {
        match cur.realize(tech, &name) {
            Some(cfg) => break cfg,
            None => {
                assert!(cur.clock_ns < 2.0, "the oracle gets realizable starts");
                cur.clock_ns *= 1.25;
            }
        }
    };
    let early_iters = (f64::from(opts.iterations) * opts.early_fraction) as u32;

    let mut cur_ipt = score(
        profile,
        &cur_cfg,
        opts.eval_ops_early,
        opts.objective,
        tech,
        cache,
    );
    let mut best = cur.clone();
    let mut best_cfg = cur_cfg;
    let mut best_ipt = cur_ipt;
    let mut temp = opts.temperature;
    let mut history = Vec::with_capacity(opts.iterations as usize);
    let mut rejected_unrealizable = 0;

    for it in 0..opts.iterations {
        let ops = if it < early_iters {
            opts.eval_ops_early
        } else {
            opts.eval_ops_late
        };
        let cand = mutate(&mut rng, &cur);
        if let Some(cfg) = cand.realize(tech, &name) {
            let ipt = score(profile, &cfg, ops, opts.objective, tech, cache);
            let accept = ipt > cur_ipt || {
                let delta = ipt - cur_ipt;
                rng.gen::<f64>() < (delta / temp.max(1e-6)).exp()
            };
            if accept {
                accepted += 1;
                if ipt < cur_ipt {
                    accepted_worse += 1;
                }
                cur = cand;
                cur_ipt = ipt;
            } else {
                rejected += 1;
            }
            xps_trace::instant("anneal.move", || {
                xps_trace::attrs([("it", (it + 1).into()), ("accepted", accept.into())])
            });
            if ipt > best_ipt {
                best = cur.clone();
                best_cfg = cfg;
                best_ipt = ipt;
            }
            if cur_ipt < opts.rollback_fraction * best_ipt {
                rollbacks += 1;
                cur = best.clone();
                cur_ipt = best_ipt;
            }
        } else {
            rejected_unrealizable += 1;
            xps_trace::instant("anneal.move", || {
                xps_trace::attrs([("it", (it + 1).into()), ("unrealizable", true.into())])
            });
        }
        temp *= opts.cooling;
        history.push(best_ipt);
    }

    let final_ipt = score(
        profile,
        &best_cfg,
        opts.eval_ops_late,
        opts.objective,
        tech,
        cache,
    );
    walk.end_with(|| {
        xps_trace::attrs([
            ("workload", name.as_str().into()),
            ("accepted", accepted.into()),
            ("accepted_worse", accepted_worse.into()),
            ("rejected", rejected.into()),
            ("rollbacks", rollbacks.into()),
            ("unrealizable", rejected_unrealizable.into()),
        ])
    });
    AnnealResult {
        point: best,
        config: best_cfg,
        ipt: final_ipt,
        history,
        rejected_unrealizable,
    }
}

/// The deterministic (journaled) events of a track.
fn journaled(rec: SpanRecorder) -> Vec<Event> {
    rec.finish().into_iter().filter(|e| !e.volatile).collect()
}

/// Everything of a result that must match, floats compared by bits.
fn fingerprint(r: &AnnealResult) -> (String, u64, Vec<u64>) {
    (
        serde_json::to_string(r).expect("results serialize"),
        r.ipt.to_bits(),
        r.history.iter().map(|x| x.to_bits()).collect(),
    )
}

/// One walk of a checked batch: a start (index into the Table 3 point
/// and the two corners) and its options.
#[derive(Debug, Clone, Copy)]
struct WalkSpec {
    start: usize,
    seed: u64,
    iterations: u32,
    early_fraction: f64,
    objective: Objective,
}

fn check(which: usize, walks: &[WalkSpec], warm: bool) {
    let p = profile(which);
    let tech = Technology::default();
    let starts = [
        DesignPoint::initial(),
        DesignPoint::fast_corner(),
        DesignPoint::big_corner(),
    ];
    let opts: Vec<AnnealOptions> = walks
        .iter()
        .map(|w| AnnealOptions {
            iterations: w.iterations,
            eval_ops_early: 1_500,
            eval_ops_late: 3_000,
            early_fraction: w.early_fraction,
            objective: w.objective,
            seed: w.seed,
            ..AnnealOptions::quick()
        })
        .collect();

    // The oracle: each walk alone, in order, on one cache.
    let oracle_cache = EvalCache::new();
    let oracle: Vec<(AnnealResult, Vec<Event>)> = walks
        .iter()
        .zip(&opts)
        .map(|(w, o)| {
            let (rec, r) = with_recorder(SpanRecorder::new(), || {
                reference_walk(&p, &starts[w.start], o, &tech, &oracle_cache)
            });
            (r, journaled(rec))
        })
        .collect();

    let fresh = EvalCache::new();
    let cache = if warm { &oracle_cache } else { &fresh };
    let before = cache.counters();
    let batch: Vec<Walk<'_>> = walks
        .iter()
        .zip(&opts)
        .map(|(w, o)| Walk {
            start: &starts[w.start],
            opts: o,
            progress: None,
        })
        .collect();
    let mut tracks: Vec<Option<SpanRecorder>> =
        walks.iter().map(|_| Some(SpanRecorder::new())).collect();
    let got = anneal_batch(&p, &batch, &tech, cache, &mut |k, f| {
        let rec = tracks[k].take().expect("track present");
        tracks[k] = Some(with_recorder(rec, f).0);
    });
    assert_eq!(got.len(), walks.len(), "one result per walk");
    for (k, ((result, track), (want, want_events))) in
        got.iter().zip(tracks).zip(&oracle).enumerate()
    {
        let result = result.as_ref().expect("realizable start");
        assert_eq!(
            fingerprint(result),
            fingerprint(want),
            "walk {k} of {} on {} diverges from the sequential walk",
            walks.len(),
            p.name
        );
        let events = journaled(track.expect("track returned"));
        assert_eq!(&events, want_events, "walk {k}: trace events differ");
    }
    let after = cache.counters();
    if warm {
        assert_eq!(
            after.misses, before.misses,
            "a warm batch must not simulate"
        );
    } else {
        // Same lookups, and one simulation per distinct evaluation: a
        // configuration repeated within a batch counts as a hit.
        assert_eq!(after, oracle_cache.counters());
    }
}

fn arb_walk() -> impl Strategy<Value = WalkSpec> {
    (
        0usize..3,
        prop::sample::select(vec![7u64, 0x5EED, 0x5EED ^ (1 << 32)]),
        3u32..10,
        prop::sample::select(vec![0.0, 0.7, 1.0]),
        any::<bool>(),
    )
        .prop_map(|(start, seed, iterations, early_fraction, edp)| WalkSpec {
            start,
            seed,
            iterations,
            early_fraction,
            objective: if edp {
                Objective::InverseEnergyDelay
            } else {
                Objective::Ipt
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `uniform` batches share the first walk's schedule and objective,
    /// as a campaign's walks do; the others mix them, so one iteration
    /// scores at two trace lengths and walks end at different rounds.
    #[test]
    fn batched_walks_match_the_sequential_walk(
        which in 0usize..17,
        k in prop::sample::select(vec![1usize, 2, 3, 5]),
        walks in prop::collection::vec(arb_walk(), 5),
        uniform in any::<bool>(),
        warm in any::<bool>(),
    ) {
        let mut walks: Vec<WalkSpec> = walks.into_iter().take(k).collect();
        if uniform {
            let first = walks[0];
            for w in &mut walks {
                w.iterations = first.iterations;
                w.early_fraction = first.early_fraction;
                w.objective = first.objective;
            }
        }
        check(which, &walks, warm);
    }
}

#[test]
fn duplicate_walks_share_every_simulation() {
    // Three copies of one walk: the batch simulates each evaluation
    // once and serves the two repeats as hits.
    let walk = WalkSpec {
        start: 0,
        seed: 0x5EED,
        iterations: 8,
        early_fraction: 0.7,
        objective: Objective::Ipt,
    };
    check(0, &[walk; 3], false);
    let edp = WalkSpec {
        early_fraction: 0.0,
        objective: Objective::InverseEnergyDelay,
        ..walk
    };
    check(11, &[edp; 3], false);
}
