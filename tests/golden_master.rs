//! Golden-master snapshots of the measured quick campaign.
//!
//! One seeded quick exploration over four benchmarks is snapshotted
//! byte-for-byte into `tests/golden/`: the customized configurations
//! (Table 4), the cross-configuration IPT matrix (Table 5), and the
//! percentage-slowdown matrix (Appendix A). The comparison is
//! byte-exact on the serialized JSON — the vendored serializer emits
//! shortest round-trip floats, so even a 1-ULP drift anywhere in the
//! simulator, annealer, or CACTI model fails the suite loudly instead
//! of sliding through a tolerance.
//!
//! To refresh the snapshots after an *intentional* model change:
//!
//! ```text
//! XPS_BLESS=1 cargo test --test golden_master
//! ```
//!
//! then review the diff like any other code change.

use std::path::PathBuf;
use std::sync::OnceLock;
use xpscalar::explore::{write_atomic, EvalCache, RunContext};
use xpscalar::pipeline::{Pipeline, PipelineResult};
use xpscalar::sim::CoreConfig;
use xpscalar::workload::spec;

/// The snapshot campaign: small enough to run in test time, big
/// enough to cover a memory monster (mcf), a branchy integer code
/// (crafty), and two cache-sensitive codes.
const BENCHES: [&str; 4] = ["crafty", "gzip", "mcf", "twolf"];

fn campaign() -> &'static PipelineResult {
    static RESULT: OnceLock<PipelineResult> = OnceLock::new();
    RESULT.get_or_init(|| {
        let profiles: Vec<_> = BENCHES
            .iter()
            .map(|n| spec::profile(n).expect("known benchmark"))
            .collect();
        // `from_env` honors `XPS_FAULTS`: the snapshots must also hold
        // under injected faults.
        let ctx = RunContext::from_env().expect("valid XPS_FAULTS");
        Pipeline::quick()
            .run(&profiles, &EvalCache::new(), &ctx)
            .expect("quick pipeline")
    })
}

/// Compare `actual` against the golden file, or overwrite it when
/// `XPS_BLESS=1` is set. Mismatches report the first differing line so
/// the failure is actionable without a diff tool.
fn golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("XPS_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create tests/golden");
        write_atomic(&path, actual).expect("bless golden file");
        eprintln!("[blessed {}]", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `XPS_BLESS=1 cargo test --test golden_master` \
             once to create it, then commit the snapshot",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let mismatch = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (e, a))| e != a);
    match mismatch {
        Some((i, (e, a))) => panic!(
            "golden mismatch in {name} at line {}:\n  golden: {e}\n  actual: {a}\n\
             (bless intentionally with XPS_BLESS=1)",
            i + 1
        ),
        None => panic!(
            "golden mismatch in {name}: lengths differ ({} vs {} bytes); \
             (bless intentionally with XPS_BLESS=1)",
            expected.len(),
            actual.len()
        ),
    }
}

#[test]
fn table4_configs_match_golden() {
    let configs: Vec<CoreConfig> = campaign().cores.iter().map(|c| c.config.clone()).collect();
    let json = serde_json::to_string_pretty(&configs).expect("configs serialize");
    golden("table4_configs.json", &json);
}

#[test]
fn table5_matrix_matches_golden() {
    let json = serde_json::to_string_pretty(&campaign().matrix).expect("matrix serializes");
    golden("table5_matrix.json", &json);
}

#[test]
fn appendix_a_slowdown_matches_golden() {
    let m = &campaign().matrix;
    let rows: Vec<Vec<f64>> = (0..m.len())
        .map(|w| (0..m.len()).map(|c| m.slowdown(w, c)).collect())
        .collect();
    let json = serde_json::to_string_pretty(&rows).expect("slowdowns serialize");
    golden("appendix_a_slowdown.json", &json);
}

/// The load-bearing property of byte-exact snapshots: a single-ULP
/// perturbation of one IPT cell changes the serialized bytes, so the
/// golden comparison catches it. A tolerance-based comparison never
/// would.
#[test]
fn one_ulp_perturbation_changes_the_snapshot_bytes() {
    let m = &campaign().matrix;
    let mut rows: Vec<Vec<f64>> = (0..m.len())
        .map(|w| (0..m.len()).map(|c| m.ipt(w, c)).collect())
        .collect();
    let baseline = serde_json::to_string_pretty(&rows).expect("serializes");
    let cell = rows[0][0];
    rows[0][0] = f64::from_bits(cell.to_bits() + 1);
    assert_ne!(rows[0][0], cell, "adjacent float is a distinct value");
    let perturbed = serde_json::to_string_pretty(&rows).expect("serializes");
    assert_ne!(
        baseline, perturbed,
        "shortest round-trip floats must distinguish 1-ULP neighbors"
    );
}
