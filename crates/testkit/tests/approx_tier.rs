//! The approximate candidate tier's exactness boundary and its
//! composition with fault injection.
//!
//! Two halves, mirroring `mq_core::prescreen`'s contract:
//!
//! 1. **Boundary** — a tier whose budget admits every stored object must
//!    leave the engine bit-identical: answers, `AvoidanceStats`, and
//!    `IoStats`, across the whole engine configuration matrix.
//! 2. **Composition** — with a genuinely lossy budget attached,
//!    [`Sim::assert_oracle_equivalence`] must still hold under injected
//!    disk faults: a faulty prescreened run that succeeds matches the
//!    fault-free prescreened oracle exactly.

use mq_core::EngineOptions;
use mq_testkit::{config_matrix, scenario, Sim};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// The CI seed set of `oracle_equivalence.rs`, thinned — each seed runs
/// the configuration matrix twice here.
const SEEDS: [u64; 4] = [1, 5, 13, 34];

/// A fresh per-test scratch directory.
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mq-testkit-approx-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn full_budget_tier_is_bit_identical_to_the_exact_engine() {
    // budget ≥ N admits everything: the candidate restriction never skips
    // a page or a record, so the tier must be invisible — not just in the
    // answers but in every avoidance and I/O counter.
    for &seed in &SEEDS {
        let exact = Sim::new(seed);
        let tier = Sim::new(seed).with_prescreen_budget(usize::MAX);
        for config in config_matrix(0) {
            let e = exact.run(config);
            let t = tier.run(config);
            assert_eq!(
                e.answers, t.answers,
                "seed {seed}, {config:?}: full-budget answers diverged"
            );
            assert_eq!(
                e.avoidance, t.avoidance,
                "seed {seed}, {config:?}: full-budget avoidance counters diverged"
            );
            assert_eq!(
                e.io, t.io,
                "seed {seed}, {config:?}: full-budget I/O counters diverged"
            );
        }
    }
}

#[test]
fn narrow_budget_actually_restricts_the_run() {
    // Guard against vacuity: a lossy budget must do real prefiltering —
    // strictly fewer distance calculations than the exact engine (the
    // whole point of the tier). Answers may lose recall but never gain
    // objects the exact run didn't report.
    let config = EngineOptions::default();
    for &seed in &SEEDS {
        let e = Sim::new(seed).run(config);
        let t = Sim::new(seed).with_prescreen_budget(8).run(config);
        let exact_calcs = e.avoidance.computed;
        let tier_calcs = t.avoidance.computed;
        assert!(
            tier_calcs < exact_calcs,
            "seed {seed}: budget 8 of 160 did not reduce distance work \
             ({tier_calcs} vs {exact_calcs})"
        );
        // The workload alternates knn/range; range answers of a lossy run
        // must be a subset of the exact run's, with bit-identical
        // distances (k-NN may legitimately backfill with farther
        // candidates, so only the fixed range predicate pins a subset).
        for (qi, answers) in t.answers.iter().enumerate().skip(1).step_by(2) {
            for a in answers {
                assert!(
                    e.answers[qi]
                        .iter()
                        .any(|x| x.id == a.id && x.distance == a.distance),
                    "seed {seed}, range query {qi}: tier reported {:?} @ {} \
                     which the exact engine did not",
                    a.id,
                    a.distance
                );
            }
        }
    }
}

#[test]
fn lossy_tier_under_disk_faults_matches_its_oracle() {
    // The ISSUE's composition clause: Sim::assert_oracle_equivalence with
    // the tier attached under fault injection. The oracle carries the
    // same prescreen, so success must reproduce the fault-free
    // prescreened run bit for bit.
    for &seed in &SEEDS {
        Sim::new(seed)
            .with_prescreen_budget(48)
            .with_plan(scenario::disk_plan(seed))
            .assert_oracle_equivalence(4);
    }
}

#[test]
fn lossy_tier_under_latency_spikes_matches_its_oracle() {
    for &seed in &SEEDS {
        Sim::new(seed)
            .with_prescreen_budget(48)
            .with_plan(scenario::latency_plan(seed))
            .assert_oracle_equivalence(0);
    }
}

#[test]
fn file_backend_with_tier_stays_report_identical() {
    // The durable store half: the candidate restriction must not perturb
    // the in-memory vs file-backed report equivalence, faults included.
    let dir = temp_dir("faulty");
    Sim::new(21)
        .with_prescreen_budget(48)
        .with_plan(scenario::disk_plan(21))
        .assert_backend_equivalence(&dir, 3);
    std::fs::remove_dir_all(&dir).ok();
}
